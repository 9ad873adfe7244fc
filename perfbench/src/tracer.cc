#include "tracer.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

Tracer *activeTracer = nullptr;

std::atomic<uint32_t> nextTid{0};

/** Small stable number of the calling thread (first caller gets 0). */
uint32_t
threadNumber()
{
    thread_local uint32_t tid = nextTid.fetch_add(1);
    return tid;
}

/** Indices of the spans open on this thread, innermost last. */
thread_local std::vector<size_t> openSpans;

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

std::FILE *
openOrThrow(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write " + path);
    return f;
}

} // namespace

Tracer::Tracer() : epoch_(Clock::now())
{
    threadNumber(); // the constructing (main) thread is thread 0
}

void
Tracer::install(Tracer *tracer)
{
    activeTracer = tracer;
}

Tracer *
Tracer::active()
{
    return activeTracer;
}

size_t
Tracer::begin(const char *name)
{
    SpanRecord rec;
    rec.name = name;
    rec.tid = threadNumber();
    rec.parent = openSpans.empty() ? -1 : int64_t(openSpans.back());
    size_t index;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        index = spans_.size();
        rec.start = secondsSince(epoch_);
        spans_.push_back(std::move(rec));
    }
    openSpans.push_back(index);
    return index;
}

void
Tracer::end(size_t index)
{
    double now = secondsSince(epoch_);
    openSpans.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[index].end = now;
}

std::vector<SpanRecord>
Tracer::take()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<SpanRecord> out;
    out.swap(spans_);
    return out;
}

std::map<std::string, double>
totalsByName(const std::vector<SpanRecord> &spans)
{
    std::map<std::string, double> totals;
    for (const auto &s : spans)
        totals[s.name] += s.seconds();
    return totals;
}

void
accumulateLayers(const std::vector<SpanRecord> &spans,
                 std::map<std::string, LayerRow> &rows)
{
    std::vector<double> childTime(spans.size(), 0);
    for (const auto &s : spans) {
        if (s.parent >= 0 && spans[size_t(s.parent)].tid == s.tid)
            childTime[size_t(s.parent)] += s.seconds();
    }
    for (size_t i = 0; i < spans.size(); ++i) {
        LayerRow &row = rows[spans[i].name];
        row.calls += 1;
        row.total += spans[i].seconds();
        row.self += spans[i].seconds() - childTime[i];
    }
}

double
coverage(const std::vector<SpanRecord> &spans, const std::string &caller,
         size_t callers, double wall)
{
    double covered = 0;
    for (const auto &s : spans) {
        if (s.parent >= 0 && spans[size_t(s.parent)].name == caller &&
            spans[size_t(s.parent)].tid == s.tid)
            covered += s.seconds();
    }
    return covered / (double(callers) * wall);
}

void
writeChromeTrace(const std::string &path,
                 const std::vector<SpanRecord> &spans,
                 const std::map<std::string, std::string> &metadata)
{
    std::FILE *f = openOrThrow(path);
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{");
    const char *sep = "";
    for (const auto &[k, v] : metadata) {
        std::fprintf(f, "%s\"%s\":\"%s\"", sep, jsonEscape(k).c_str(),
                     jsonEscape(v).c_str());
        sep = ",";
    }
    std::fprintf(f, "},\n\"traceEvents\":[\n");
    sep = "";
    for (const auto &s : spans) {
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f}",
                     sep, jsonEscape(s.name).c_str(),
                     jsonEscape(s.name.substr(0, s.name.find('.')))
                         .c_str(),
                     s.tid, s.start * 1e6, s.seconds() * 1e6);
        sep = ",\n";
    }
    std::fprintf(f, "\n]}\n");
    if (std::fclose(f) != 0)
        throw std::runtime_error("write to " + path + " failed");
}

void
writeLayerTable(const std::string &path, const std::string &header,
                const std::map<std::string, LayerRow> &rows)
{
    std::vector<std::pair<std::string, LayerRow>> sorted(rows.begin(),
                                                         rows.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto &a, const auto &b) {
                  return a.second.self > b.second.self;
              });
    std::FILE *f = openOrThrow(path);
    std::fprintf(f, "%s", header.c_str());
    std::fprintf(f, "%-28s %10s %12s %12s\n", "span", "calls",
                 "total_s", "self_s");
    for (const auto &[name, row] : sorted) {
        std::fprintf(f, "%-28s %10llu %12.6f %12.6f\n", name.c_str(),
                     (unsigned long long)row.calls, row.total, row.self);
    }
    if (std::fclose(f) != 0)
        throw std::runtime_error("write to " + path + " failed");
}

} // namespace perfbench
