/**
 * @file
 * Trace-store throughput: the SCT2 chunked compressed set format
 * against the fixed-width record bytes it encodes — artifact size
 * (the compression ratio), write throughput, and the parallel
 * chunk-read scaling the chunk directory enables. The corpus is real
 * workload traces, so the columns carry the redundancy the delta +
 * varint + LZ stack is built for.
 *
 * Flags (on top of the common bench flags):
 *   --require-speedup <x>  fail (exit 1) unless 4-job parallel chunk
 *                          reads beat the serial read by at least x
 *                          (CI smoke uses 1.5).
 *
 * The raw/SCT2 size ratio is gated unconditionally at 2.0: the raw
 * size is records x (11 + 8 numVars) bytes (point id, fused flag,
 * index, pre and post values, with no headers), and the encoded
 * format regressing to within 2x of it is a bug, not a tuning matter.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <filesystem>

#include "bench/common.hh"
#include "support/compress.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/threadpool.hh"
#include "trace/store.hh"
#include "workloads/workloads.hh"

namespace scif {
namespace {

constexpr uint32_t chunkRecords = 2048;

/** The bench corpus: six real workload traces. */
std::vector<trace::NamedTrace>
makeCorpus()
{
    std::vector<trace::NamedTrace> out;
    for (const char *name :
         {"basicmath", "twolf", "vmlinux", "gzip", "mcf", "quake"}) {
        out.push_back(trace::NamedTrace{
            name, workloads::run(workloads::byName(name))});
    }
    return out;
}

std::string
tmpPath(const char *name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

/** @return best-of-3 wall-clock seconds of @p fn. */
template <typename Fn>
double
bestSeconds(Fn &&fn)
{
    using clock = std::chrono::steady_clock;
    double best = 1e30;
    for (int i = 0; i < 3; ++i) {
        auto start = clock::now();
        fn();
        double s =
            std::chrono::duration<double>(clock::now() - start)
                .count();
        if (s < best)
            best = s;
    }
    return best;
}

void
experiment()
{
    bench::printHeader(
        "Trace-store throughput: SCT2 chunked+compressed vs raw records",
        "out-of-core substrate for Zhang et al., ASPLOS'17 (§5.1)");

    auto corpus = makeCorpus();
    uint64_t records = 0;
    for (const auto &nt : corpus)
        records += nt.trace.size();
    double rawMb = double(records) * sizeof(trace::Record) / 1e6;
    uint64_t rawBytes = records * (11 + 8 * uint64_t(trace::numVars));

    std::string v2Path = tmpPath("scif_bench_traces.v2");

    double v2Write = bestSeconds([&] {
        trace::saveTraceSet(v2Path, corpus, chunkRecords);
    });
    auto v2Bytes = std::filesystem::file_size(v2Path);
    double ratio = double(rawBytes) / double(v2Bytes);

    trace::TraceSetReader reader(v2Path);
    if (reader.totalRecords() != records)
        fatal("v2 round trip lost records");
    double serialRead = bestSeconds([&] {
        auto all = reader.readAll(nullptr);
        if (all.size() != corpus.size())
            fatal("v2 read lost streams");
        benchmark::DoNotOptimize(all);
    });
    support::ThreadPool pool(4);
    double parallelRead = bestSeconds([&] {
        auto all = reader.readAll(&pool);
        benchmark::DoNotOptimize(all);
    });
    double readSpeedup = serialRead / parallelRead;

    TextTable table({"Metric", "SCT2"});
    table.addRow({"raw record bytes", std::to_string(rawBytes)});
    table.addRow({"artifact bytes", std::to_string(v2Bytes)});
    table.addRow({"write MB/s (of in-memory records)",
                  format("%.0f", rawMb / v2Write)});
    table.addRow({"read s (serial)", format("%.4f", serialRead)});
    table.addRow({"read s (4 jobs)", format("%.4f", parallelRead)});
    std::printf("%s", table.render().c_str());
    std::printf("%llu records, %.1f in-memory MB; raw/SCT2 size ratio "
                "%.2fx, 4-job read speedup %.2fx\n\n",
                (unsigned long long)records, rawMb, ratio,
                readSpeedup);

    bench::recordMetric("records", double(records), "records");
    bench::recordMetric("raw.bytes", double(rawBytes), "bytes");
    bench::recordMetric("v2.bytes", double(v2Bytes), "bytes");
    bench::recordMetric("v2.compression_ratio", ratio, "x");
    bench::recordMetric("v2.write_mb_s", rawMb / v2Write, "MB/s");
    bench::recordMetric("v2.serial_read_s", serialRead, "s");
    bench::recordMetric("v2.parallel_read_s", parallelRead, "s");
    bench::recordMetric("v2.parallel_read_speedup", readSpeedup,
                        "x");

    if (ratio < 2.0) {
        bench::failBench(format(
            "SCT2 artifact only %.2fx smaller than the raw records "
            "(need 2.0x)",
            ratio));
    }
    double gate = bench::options().requireSpeedup;
    if (gate > 0 && readSpeedup < gate) {
        bench::failBench(format(
            "4-job read speedup %.2fx below the required %.2fx",
            readSpeedup, gate));
    }

    std::filesystem::remove(v2Path);
}

/** Micro-benchmark twins, for --benchmark_filter=trace runs. */
struct BenchState
{
    std::vector<trace::NamedTrace> corpus = makeCorpus();
    std::string path = tmpPath("scif_bench_micro.v2");

    BenchState()
    {
        trace::saveTraceSet(path, corpus, chunkRecords);
    }
};

BenchState &
benchState()
{
    static BenchState s;
    return s;
}

void
trace_chunk_encode(benchmark::State &state)
{
    BenchState &s = benchState();
    uint64_t records = 0;
    for (const auto &nt : s.corpus)
        records += nt.trace.size();
    for (auto _ : state) {
        trace::saveTraceSet(s.path, s.corpus, chunkRecords);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(records));
}
BENCHMARK(trace_chunk_encode)->Unit(benchmark::kMillisecond);

void
trace_chunk_decode(benchmark::State &state)
{
    BenchState &s = benchState();
    trace::TraceSetReader reader(s.path);
    for (auto _ : state) {
        auto all = reader.readAll(nullptr);
        benchmark::DoNotOptimize(all);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(reader.totalRecords()));
}
BENCHMARK(trace_chunk_decode)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace scif

SCIF_BENCH_MAIN(scif::experiment)
