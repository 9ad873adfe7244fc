/**
 * @file
 * The SCIFinder benchmark runner.
 *
 *   scif_perfbench --workload W --seed N --seconds S --trace 0|1
 *                  [--out DIR] [--work DIR] [--commit ID]
 *
 * With --trace 0 it sets the workload up several times (setup_s is
 * the median), computes the oracle, then runs operations in a closed
 * loop for S seconds with tracing off, checks every output, and prints
 * the end-to-end metrics of the fastest operation. With --trace 1 it
 * alternates untraced and
 * traced operations, writes the traced spans as Chrome trace-event
 * JSON plus a flat per-layer table with self times under --out, and
 * prints the per-layer metrics. The last line of stdout is always the
 * JSON result; every run is stamped with commit, compiler, build type
 * and nproc. End-to-end numbers from a Debug or sanitizer build are
 * refused.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "support/memstats.hh"
#include "tracer.hh"

namespace perfbench {

uint64_t
deriveSeed(uint64_t seed, uint64_t stream)
{
    // splitmix64 over (seed, stream): distinct, well-mixed and never
    // zero-heavy, whatever small integers the caller passes.
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
                 0x5eedull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

uint64_t
fnv1a(const std::string &bytes, uint64_t h)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

namespace {

/** Set-ups per run, each with its warm-up operation; setup_s is
 *  their median. */
constexpr int kSetups = 3;

/** The per-layer metrics, printed by every traced run (0 where the
 *  workload does not exercise the layer). Names ending in _s are span
 *  seconds unless the workload reports them as a counter. */
struct LayerMetric
{
    const char *name;
    const char *unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"cpu.simulate_s", "s"},
    {"cpu.records", "count"},
    {"trace.seal_s", "s"},
    {"invgen.generate_s", "s"},
    {"invgen.raw_invariants", "count"},
    {"invgen.fused_members", "count"},
    {"invgen.deduped_members", "count"},
    {"opt.cp_s", "s"},
    {"opt.dr_s", "s"},
    {"opt.er_s", "s"},
    {"opt.vr_s", "s"},
    {"opt.invariants_after_cp", "count"},
    {"opt.invariants_after_dr", "count"},
    {"opt.invariants_after_er", "count"},
    {"opt.invariants_after_vr", "count"},
    {"sci.compile_s", "s"},
    {"sci.validation_s", "s"},
    {"sci.corpus_scan_s", "s"},
    {"sci.identify_all_s", "s"},
    {"sci.identified", "count"},
    {"sci.infer_s", "s"},
    {"core.deploy_s", "s"},
    {"invgen.load_model_s", "s"},
    {"cpu.validation_sim_s", "s"},
    {"trace.encode_s", "s"},
    {"trace.decode_s", "s"},
    {"trace.store_bytes", "B"},
    {"trace.bytes_per_record", "B/record"},
    {"sci.corpus_scan_store_s", "s"},
    {"sci.violations", "count"},
    {"core.save_s", "s"},
    {"monitor.compile_set_s", "s"},
    {"monitor.post_s", "s"},
    {"monitor.close_wait_s", "s"},
    {"monitor.shard_busy_s", "s"},
    {"monitor.batches", "count"},
    {"monitor.queue_high_water", "count"},
    {"monitor.events", "count"},
    {"monitor.firings", "count"},
    {"monitor.watched_ratio", "ratio"},
    {"monitor.sequential_s", "s"},
    {"monitor.session_p99_ms", "ms"},
    {"bench.span_coverage", "ratio"},
    {"bench.trace_overhead", "s"},
};

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string outDir = ".bench_build/perfbench/out";
    std::string workDir = ".bench_build/perfbench/work";
    std::string commit = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "scif_perfbench: %s\nusage: scif_perfbench --workload "
                 "pipeline|identify-store|serve-replay --seed N "
                 "--seconds S --trace 0|1 [--out DIR] [--work DIR] "
                 "[--commit ID]\n",
                 why.c_str());
    std::exit(2);
}

uint64_t
parseNumber(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0')
        usage(flag + " expects a whole number, got '" + text + "'");
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = parseNumber(flag, v);
        else if (flag == "--seconds")
            a.seconds = double(parseNumber(flag, v));
        else if (flag == "--trace")
            a.trace = parseNumber(flag, v) != 0;
        else if (flag == "--out")
            a.outDir = v;
        else if (flag == "--work")
            a.workDir = v;
        else if (flag == "--commit")
            a.commit = v;
        else
            usage("unknown option " + flag);
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

/** Why this build must not report end-to-end numbers ("" if fine). */
std::string
unoptimizedBuild()
{
#ifndef NDEBUG
    return "assertions are enabled (NDEBUG is not defined)";
#endif
#ifndef __OPTIMIZE__
    return "the build is not optimized";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "the build is instrumented by a sanitizer";
#endif
    if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize"))
        return "the build is instrumented by a sanitizer";
    if (std::string(PERFBENCH_BUILD_TYPE) == "Debug")
        return "the build type is Debug";
    return "";
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, @p p in (0, 1]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(std::ceil(p * double(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    const char *sep = "";
    for (const auto &m : metrics) {
        double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    m.name.c_str(), v, m.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
}

/** Counts operations and their failures, reporting each failure. */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::string last;

    void check(Workload &w)
    {
        ++attempted;
        if (!w.check(last)) {
            ++failed;
            std::fprintf(stderr, "operation %" PRIu64 " failed: %s\n",
                         attempted, last.c_str());
        }
    }
};

/** One untraced operation: its wall and process CPU seconds. */
std::pair<double, double>
timedOperation(Workload &w)
{
    double cpu0 = processCpuSeconds();
    Clock::time_point start = Clock::now();
    w.operate(false);
    double wall = secondsSince(start);
    return {wall, processCpuSeconds() - cpu0};
}

int
runEndToEnd(Workload &w, const Args &args)
{
    // Each set-up ends with one checked warm-up operation, so lazy
    // initialisation and cold caches stay out of the measured ones.
    // The oracle is computed once, outside the set-up clock.
    Tally tally;
    std::vector<double> setups;
    for (int k = 0; k < kSetups; ++k) {
        Clock::time_point start = Clock::now();
        w.setup();
        double built = secondsSince(start);
        if (k == 0)
            w.reference();
        start = Clock::now();
        w.operate(false);
        setups.push_back(built + secondsSince(start));
        tally.check(w);
    }

    // The shared host's speed swings several-fold within seconds, so a
    // median over operations follows the host, not the program. Each
    // per-operation metric is therefore read at the fastest operation:
    // the one the host disturbed least.
    std::vector<double> walls, cpus, rates, sessionP50s, sessions;
    Clock::time_point runStart = Clock::now();
    while (walls.empty() || secondsSince(runStart) < args.seconds) {
        auto [wall, cpu] = timedOperation(w);
        tally.check(w);
        walls.push_back(wall);
        cpus.push_back(cpu);
        rates.push_back(double(w.events()) / wall);
        std::vector<double> s = w.sessionsMs();
        if (s.empty())
            s.push_back(wall * 1e3);
        sessionP50s.push_back(percentile(s, 0.50));
        sessions.insert(sessions.end(), s.begin(), s.end());
    }

    std::vector<double> sorted = walls;
    std::sort(sorted.begin(), sorted.end());
    std::printf("wall_s over %zu measured operations: min %.4f, q1 %.4f, "
                "median %.4f, q3 %.4f, max %.4f\n",
                sorted.size(), sorted.front(),
                sorted[sorted.size() / 4], median(sorted),
                sorted[sorted.size() * 3 / 4], sorted.back());
    std::printf("operations: %" PRIu64 " (%" PRIu64
                " failed, error rate %.4g); session p99 %.4f ms over %zu "
                "sessions; last: %s\n",
                tally.attempted, tally.failed,
                double(tally.failed) / double(tally.attempted),
                percentile(sessions, 0.99), sessions.size(),
                tally.last.c_str());
    std::vector<Metric> metrics = {
        {"setup_s", median(setups), "s"},
        {"wall_s", sorted.front(), "s"},
        {"cpu_s", *std::min_element(cpus.begin(), cpus.end()), "s"},
        {"peak_rss_mib",
         double(scif::support::peakRssKb()) / 1024.0, "MiB"},
        {"events_per_s", *std::max_element(rates.begin(), rates.end()),
         "1/s"},
        {"session_p50_ms",
         *std::min_element(sessionP50s.begin(), sessionP50s.end()), "ms"},
    };
    printResult(tally.failed == 0, tally.attempted, tally.failed, metrics);
    return 0;
}

int
runTraced(Workload &w, const Args &args,
          const std::map<std::string, std::string> &stamp)
{
    Tracer tracer;
    Tracer::install(&tracer);
    w.setup();
    Tracer::install(nullptr);
    std::vector<SpanRecord> setupSpans = tracer.take();
    std::map<std::string, double> setupTotals = totalsByName(setupSpans);
    w.reference();

    Tally tally;
    w.operate(false);
    tally.check(w);

    std::vector<double> untracedWalls, tracedWalls, coverages;
    std::map<std::string, std::vector<double>> perOp; // name -> per op
    std::map<std::string, LayerRow> rows;
    accumulateLayers(setupSpans, rows);
    std::vector<SpanRecord> firstOp;
    size_t traced = 0;
    Clock::time_point runStart = Clock::now();
    while (traced == 0 || secondsSince(runStart) < args.seconds) {
        untracedWalls.push_back(timedOperation(w).first);
        tally.check(w);

        Tracer::install(&tracer);
        Clock::time_point start = Clock::now();
        {
            Span op("bench.op");
            w.operate(true);
        }
        double wall = secondsSince(start);
        w.probe();
        Tracer::install(nullptr);
        std::vector<SpanRecord> spans = tracer.take();
        tally.check(w);

        tracedWalls.push_back(wall);
        coverages.push_back(
            coverage(spans, w.callerSpan(), w.callers(), wall));
        accumulateLayers(spans, rows);
        std::map<std::string, double> values = totalsByName(spans);
        w.counters(values);
        for (const auto &lm : kLayerMetrics) {
            auto it = values.find(lm.name);
            std::string span(lm.name);
            if (it == values.end() && span.size() > 2 &&
                span.compare(span.size() - 2, 2, "_s") == 0)
                it = values.find(span.substr(0, span.size() - 2));
            if (it != values.end())
                perOp[lm.name].push_back(it->second);
        }
        if (traced++ == 0)
            firstOp = std::move(spans);
    }

    std::vector<Metric> metrics;
    for (const auto &lm : kLayerMetrics) {
        std::string name = lm.name;
        double value = 0;
        if (name == "bench.span_coverage") {
            value = *std::min_element(coverages.begin(), coverages.end());
        } else if (name == "bench.trace_overhead") {
            value = median(tracedWalls) - median(untracedWalls);
        } else if (perOp.count(name)) {
            value = median(perOp[name]);
        } else if (name.size() > 2 &&
                   setupTotals.count(name.substr(0, name.size() - 2))) {
            value = setupTotals[name.substr(0, name.size() - 2)];
        }
        metrics.push_back({name, value, lm.unit});
    }

    std::filesystem::create_directories(args.outDir);
    std::string base = args.outDir + "/" + args.workload + "-seed" +
                       std::to_string(args.seed);
    std::map<std::string, std::string> meta = stamp;
    meta["workload"] = args.workload;
    meta["seed"] = std::to_string(args.seed);
    meta["traced_operations"] = std::to_string(traced);
    std::vector<SpanRecord> chrome = setupSpans;
    for (auto s : firstOp) {
        if (s.parent >= 0)
            s.parent += int64_t(setupSpans.size());
        chrome.push_back(std::move(s));
    }
    writeChromeTrace(base + ".trace.json", chrome, meta);
    std::string header;
    for (const auto &[k, v] : meta)
        header += "# " + k + ": " + v + "\n";
    header += "# set-up once plus " + std::to_string(traced) +
              " traced operations with their probes\n";
    writeLayerTable(base + ".layers.txt", header, rows);

    std::printf("traced %zu operations (%zu untraced between them), "
                "span coverage median %.4f, lowest %.4f; wrote "
                "%s.trace.json and %s.layers.txt\n",
                traced, untracedWalls.size(), median(coverages),
                *std::min_element(coverages.begin(), coverages.end()),
                base.c_str(), base.c_str());
    printResult(tally.failed == 0, tally.attempted, tally.failed, metrics);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args = parseArgs(argc, argv);

    std::map<std::string, std::string> stamp = {
        {"commit", args.commit},
        {"compiler", PERFBENCH_COMPILER},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
    };
    std::printf("stamp: commit=%s compiler=%s build_type=%s nproc=%s\n",
                stamp["commit"].c_str(), stamp["compiler"].c_str(),
                stamp["build_type"].c_str(), stamp["nproc"].c_str());
    std::fflush(stdout);
    std::string refusal = unoptimizedBuild();
    if (!args.trace && !refusal.empty()) {
        std::fprintf(stderr,
                     "scif_perfbench: refusing to report end-to-end "
                     "numbers: %s\n",
                     refusal.c_str());
        return 2;
    }

    Options options;
    options.seed = args.seed;
    options.workDir = args.workDir + "/" + args.workload + "-" +
                      std::to_string(getpid());
    std::map<std::string, std::function<std::unique_ptr<Workload>(
                              const Options &)>>
        factories = {{"pipeline", makePipeline},
                     {"identify-store", makeIdentifyStore},
                     {"serve-replay", makeServeReplay}};
    auto factory = factories.find(args.workload);
    if (factory == factories.end())
        usage("unknown workload '" + args.workload + "'");

    int status = 1;
    try {
        std::filesystem::create_directories(options.workDir);
        std::unique_ptr<Workload> w = factory->second(options);
        status = args.trace ? runTraced(*w, args, stamp)
                            : runEndToEnd(*w, args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "scif_perfbench: %s\n", e.what());
        status = 1;
    }
    std::error_code ignored;
    std::filesystem::remove_all(options.workDir, ignored);
    return status;
}
