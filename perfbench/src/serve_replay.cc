/**
 * @file
 * Workload `serve-replay`: the checking service under a closed loop of
 * two client threads. Set-up identifies the SCI on the paper corpus,
 * compiles the assertion set `scifinder serve` enforces, records the
 * retirement streams of the 17 training workloads plus a seeded batch
 * of fuzz programs, and starts a two-shard monitor::CheckService.
 *
 * One operation is a round: the clients take streams one at a time
 * from a shared cursor, open a session, post it in 512-record runs,
 * close it and wait for the report. Clean training sessions sit
 * beside fuzz sessions that fire often, so both the quiet and the
 * firing path of the checker run. Every report must be byte-identical
 * to the sequential AssertionMonitor's report on the same stream.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "asm/assembler.hh"
#include "bench.hh"
#include "core/scifinder.hh"
#include "fuzz/progen.hh"
#include "monitor/service.hh"
#include "support/threadpool.hh"
#include "tracer.hh"

namespace perfbench {
namespace {

using namespace scif;

constexpr size_t kFuzzPrograms = 4000;
constexpr size_t kClients = 2;
constexpr size_t kShards = 2;
constexpr size_t kPostRun = 512;

/** Retirement stream of fuzz program @p index of the @p seed corpus. */
trace::TraceBuffer
fuzzStream(uint64_t seed, uint32_t index)
{
    fuzz::GenConfig gen;
    fuzz::GeneratedProgram prog = fuzz::generate(gen, seed, index);
    assembler::Result assembled = assembler::assemble(prog.source());
    if (!assembled.ok)
        throw std::runtime_error(prog.name + " does not assemble");
    cpu::CpuConfig config;
    config.memBytes = gen.memBytes;
    cpu::Cpu cpu(config);
    cpu.loadProgram(assembled.program);
    trace::TraceBuffer out;
    cpu.run(&out);
    return out;
}

/** A copy of @p recorded whose storage holds exactly its records, so
 *  the replay corpus costs its size and not its growth slack. */
trace::TraceBuffer
compact(const trace::TraceBuffer &recorded)
{
    trace::TraceBuffer out;
    out.reserve(recorded.size());
    out.append(recorded);
    return out;
}

struct ShardTotals
{
    double busy = 0;
    uint64_t batches = 0;
    uint64_t highWater = 0;
};

ShardTotals
shardTotals(const monitor::ServiceTelemetry &t)
{
    ShardTotals s;
    for (const auto &sh : t.shards) {
        s.busy += sh.busySeconds;
        s.batches += sh.batches;
        s.highWater = std::max(s.highWater, sh.queueHighWater);
    }
    return s;
}

class ServeReplay : public Workload
{
  public:
    explicit ServeReplay(const Options &options)
        : fuzzSeed_(deriveSeed(options.seed, 2))
    {}

    void setup() override
    {
        service_.reset();
        streams_.clear();
        core::PipelineConfig config;
        config.jobs = kJobs;
        config.runInference = false;
        core::PipelineResult identified = core::runPipeline(config);
        {
            Span span("monitor.compile_set");
            set_ = std::make_shared<const monitor::CompiledAssertionSet>(
                monitor::synthesize(identified.model,
                                    identified.database.sciIndices()));
        }

        support::ThreadPool pool(kJobs);
        const auto &training = workloads::all();
        names_.clear();
        for (const auto &w : training)
            names_.push_back("workload:" + w.name);
        for (size_t i = 0; i < kFuzzPrograms; ++i)
            names_.push_back("fuzz-" + std::to_string(i));
        streams_.resize(names_.size());
        support::parallelFor(&pool, names_.size(), [&](size_t i) {
            streams_[i] = compact(
                i < training.size()
                    ? workloads::run(training[i])
                    : fuzzStream(fuzzSeed_, uint32_t(i - training.size())));
        });

        monitor::ServiceConfig sc;
        sc.shards = kShards;
        service_ = std::make_unique<monitor::CheckService>(set_, sc);
    }

    void reference() override
    {
        support::ThreadPool pool(kJobs);
        expected_.assign(streams_.size(), {});
        support::parallelFor(&pool, streams_.size(), [&](size_t i) {
            monitor::AssertionMonitor mon(set_);
            for (const auto &rec : streams_[i].records())
                mon.record(rec);
            expected_[i] = monitor::sequentialReport(names_[i], mon,
                                                     streams_[i].size())
                               .render(set_->assertions());
        });
        uint64_t watched = 0;
        events_ = 0;
        for (const auto &s : streams_) {
            events_ += s.size();
            for (const auto &rec : s.records())
                watched += set_->points().count(rec.point.id());
        }
        watchedRatio_ = double(watched) / double(events_);
    }

    void operate(bool) override
    {
        ShardTotals before = shardTotals(service_->telemetry());
        reports_.assign(streams_.size(), {});
        latencies_.assign(streams_.size(), 0);
        std::atomic<size_t> cursor{0};
        auto client = [&] {
            Span span("bench.client");
            for (size_t i = cursor++; i < streams_.size(); i = cursor++) {
                Clock::time_point start = Clock::now();
                monitor::CheckService::SessionId id;
                {
                    Span open("monitor.open");
                    id = service_->open(names_[i]);
                }
                {
                    Span post("monitor.post");
                    const trace::Record *recs =
                        streams_[i].records().data();
                    size_t total = streams_[i].size();
                    for (size_t pos = 0; pos < total; pos += kPostRun)
                        service_->post(id, recs + pos,
                                       std::min(kPostRun, total - pos));
                }
                {
                    Span close("monitor.close_wait");
                    reports_[i] = service_->close(id);
                }
                latencies_[i] = secondsSince(start) * 1e3;
            }
        };
        std::vector<std::thread> clients;
        for (size_t c = 0; c < kClients; ++c)
            clients.emplace_back(client);
        for (auto &t : clients)
            t.join();
        monitor::ServiceTelemetry after = service_->telemetry();
        ShardTotals now = shardTotals(after);
        busy_ = now.busy - before.busy;
        batches_ = now.batches - before.batches;
        highWater_ = now.highWater;
    }

    void probe() override
    {
        Span span("monitor.sequential");
        monitor::AssertionMonitor mon(set_);
        for (const auto &s : streams_) {
            for (const auto &rec : s.records())
                mon.record(rec);
            mon.clearFirings();
        }
    }

    bool check(std::string &why) override
    {
        uint64_t firings = 0;
        size_t bad = 0;
        for (size_t i = 0; i < reports_.size(); ++i) {
            firings += reports_[i].firings;
            if (reports_[i].render(set_->assertions()) != expected_[i])
                ++bad;
        }
        firings_ = firings;
        why = std::to_string(reports_.size()) + " sessions, " +
              std::to_string(events_) + " events, " +
              std::to_string(firings) + " firings, " +
              std::to_string(set_->assertions().size()) + " assertions";
        if (bad)
            why += ", " + std::to_string(bad) +
                   " reports differ from the sequential monitor";
        return bad == 0;
    }

    uint64_t events() const override { return events_; }

    std::vector<double> sessionsMs() const override { return latencies_; }

    void counters(std::map<std::string, double> &out) const override
    {
        out["monitor.shard_busy_s"] = busy_;
        out["monitor.batches"] = double(batches_);
        out["monitor.queue_high_water"] = double(highWater_);
        out["monitor.events"] = double(events_);
        out["monitor.firings"] = double(firings_);
        out["monitor.watched_ratio"] = watchedRatio_;
        std::vector<double> sorted = latencies_;
        auto p99 = sorted.begin() +
                   ptrdiff_t(std::ceil(0.99 * double(sorted.size())) - 1);
        std::nth_element(sorted.begin(), p99, sorted.end());
        out["monitor.session_p99_ms"] = *p99;
    }

    const char *callerSpan() const override { return "bench.client"; }
    size_t callers() const override { return kClients; }

  private:
    uint64_t fuzzSeed_;
    std::shared_ptr<const monitor::CompiledAssertionSet> set_;
    std::vector<std::string> names_;
    std::vector<trace::TraceBuffer> streams_;
    std::unique_ptr<monitor::CheckService> service_;
    std::vector<std::string> expected_;
    uint64_t events_ = 0;
    double watchedRatio_ = 0;

    std::vector<monitor::SessionReport> reports_;
    std::vector<double> latencies_;
    double busy_ = 0;
    uint64_t batches_ = 0;
    uint64_t highWater_ = 0;
    uint64_t firings_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeServeReplay(const Options &options)
{
    return std::make_unique<ServeReplay>(options);
}

} // namespace perfbench
