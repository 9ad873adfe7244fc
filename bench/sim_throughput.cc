/**
 * @file
 * Simulation front-end throughput: instructions/second of the
 * predecoded block cache versus the interpreted fetch-decode-execute
 * loop, over the full 17-program training suite. Both front ends are
 * measured traced (records emitted to an AoS buffer) and untraced
 * (the fuzzing and trigger-replay regime); every sweep reloads the
 * program image, so the cached numbers include the predecode cost
 * itself. The two front ends are sampled round-robin, best of three
 * passes each, to keep scheduler noise out of the reported ratios. A
 * second table times the trace-to-columns path: capture-time
 * columnar scattering plus seal against the classic record buffer
 * plus post-hoc transpose.
 *
 * Flags (on top of the common bench flags):
 *   --require-speedup <x>  fail (exit 1) unless the predecoded block
 *                          cache beats the interpreted front end by
 *                          at least x on the untraced suite sweep (CI
 *                          smoke uses 1.0).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "asm/assembler.hh"
#include "bench/common.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "trace/capture.hh"
#include "trace/columns.hh"
#include "workloads/workloads.hh"

namespace scif {
namespace {

/** One training program, assembled once. */
struct Prepared
{
    std::string name;
    assembler::Program program;
    cpu::CpuConfig config;
    uint64_t records = 0; ///< per-run record count (for reserve())
};

std::vector<Prepared>
prepare()
{
    std::vector<Prepared> out;
    for (const auto &w : workloads::all()) {
        Prepared p;
        p.name = w.name;
        p.program = assembler::assembleOrDie(w.source);
        p.config = w.config;
        out.push_back(std::move(p));
    }
    return out;
}

/** Time one sweep body until enough wall clock accumulates.
 *  @return sweeps per second. */
template <typename Fn>
double
sweepsPerSecond(Fn &&sweep)
{
    using clock = std::chrono::steady_clock;
    sweep(); // warm up
    size_t sweeps = 0;
    auto start = clock::now();
    double elapsed = 0;
    do {
        sweep();
        ++sweeps;
        elapsed = std::chrono::duration<double>(clock::now() - start)
                      .count();
    } while (elapsed < 0.3);
    return double(sweeps) / elapsed;
}

/**
 * Instructions/second of one front end over the whole suite.
 *
 * @param progs the assembled suite.
 * @param predecode block-cache front end (false = interpreted).
 * @param traced emit records into an AoS buffer (false = the
 *        untraced fuzz/replay regime).
 */
double
suiteRate(std::vector<Prepared> &progs, bool predecode, bool traced)
{
    std::vector<std::unique_ptr<cpu::Cpu>> cpus;
    for (auto &p : progs) {
        cpu::CpuConfig config = p.config;
        config.predecode = predecode;
        cpus.push_back(std::make_unique<cpu::Cpu>(config));
    }

    uint64_t insnsPerSweep = 0;
    trace::TraceBuffer buf;
    auto sweep = [&] {
        insnsPerSweep = 0;
        for (size_t i = 0; i < progs.size(); ++i) {
            cpus[i]->loadProgram(progs[i].program);
            cpu::RunResult r;
            if (traced) {
                buf.clear();
                buf.reserve(size_t(progs[i].records));
                r = cpus[i]->run(&buf);
                progs[i].records = buf.size();
                benchmark::DoNotOptimize(buf.size());
            } else {
                r = cpus[i]->run(nullptr);
            }
            if (r.reason != cpu::HaltReason::Halted) {
                fatal("workload '%s' did not halt in the bench",
                      progs[i].name.c_str());
            }
            insnsPerSweep += r.instructions;
        }
    };
    return sweepsPerSecond(sweep) * double(insnsPerSweep);
}

/** Records/second turning the suite into per-point columns. */
double
columnsRate(std::vector<Prepared> &progs, bool captureTime)
{
    uint64_t records = 0;
    auto sweep = [&] {
        records = 0;
        if (captureTime) {
            // Predecoded run scattering straight into columns, then
            // a contiguous merge-seal.
            std::vector<trace::ColumnarCapture> caps(progs.size());
            std::vector<const trace::ColumnarCapture *> ptrs;
            for (size_t i = 0; i < progs.size(); ++i) {
                cpu::CpuConfig config = progs[i].config;
                cpu::Cpu cpu(config);
                cpu.loadProgram(progs[i].program);
                cpu.run(&caps[i]);
                records += caps[i].size();
                ptrs.push_back(&caps[i]);
            }
            trace::ColumnSet cols =
                trace::ColumnarCapture::seal(ptrs);
            benchmark::DoNotOptimize(cols.totalRows());
        } else {
            // Interpreted run into AoS buffers, then the post-hoc
            // AoS-to-SoA transpose.
            std::vector<trace::TraceBuffer> bufs(progs.size());
            std::vector<const trace::TraceBuffer *> ptrs;
            for (size_t i = 0; i < progs.size(); ++i) {
                cpu::CpuConfig config = progs[i].config;
                config.predecode = false;
                cpu::Cpu cpu(config);
                cpu.loadProgram(progs[i].program);
                cpu.run(&bufs[i]);
                records += bufs[i].size();
                ptrs.push_back(&bufs[i]);
            }
            trace::ColumnSet cols = trace::ColumnSet::build(ptrs);
            benchmark::DoNotOptimize(cols.totalRows());
        }
    };
    return sweepsPerSecond(sweep) * double(records);
}

void
experiment()
{
    bench::printHeader(
        "Simulation throughput: predecoded vs interpreted",
        "perf substrate for Zhang et al., ASPLOS'17 (Table 8)");

    auto progs = prepare();

    TextTable table({"Mode", "Interpreted (insn/s)",
                     "Predecoded (insn/s)", "Speedup"});
    double speedups[2];
    const char *modes[2] = {"untraced", "traced"};
    for (int traced = 0; traced < 2; ++traced) {
        // Round-robin the two front ends and keep each one's best
        // pass: on a loaded host a throughput sample is only ever
        // noise-floored (a stall can make a pass slower, never
        // faster), so best-of-N interleaved passes is the honest
        // comparator for the predecoded/interpreted ratio.
        double interp = 0, cached = 0;
        for (int rep = 0; rep < 3; ++rep) {
            interp = std::max(interp,
                              suiteRate(progs, false, traced != 0));
            cached = std::max(cached,
                              suiteRate(progs, true, traced != 0));
        }
        speedups[traced] = cached / interp;
        table.addRow({modes[traced], format("%.3g", interp),
                      format("%.3g", cached),
                      format("%.2fx", speedups[traced])});
        bench::recordMetric(format("sim.%s.interpreted", modes[traced]),
                            interp, "insn/s");
        bench::recordMetric(format("sim.%s.predecoded", modes[traced]),
                            cached, "insn/s");
        bench::recordMetric(format("sim.%s.speedup", modes[traced]),
                            speedups[traced], "x");
    }
    std::printf("%s\n", table.render().c_str());

    TextTable capture({"Path", "Records/s"});
    double transpose = columnsRate(progs, false);
    double direct = columnsRate(progs, true);
    capture.addRow({"interpreted + post-hoc transpose",
                    format("%.3g", transpose)});
    capture.addRow({"predecoded + capture-time columns",
                    format("%.3g", direct)});
    std::printf("%s\n", capture.render().c_str());
    bench::recordMetric("columns.transpose", transpose, "records/s");
    bench::recordMetric("columns.capture", direct, "records/s");
    bench::recordMetric("columns.speedup", direct / transpose, "x");

    double gate = bench::options().requireSpeedup;
    if (gate > 0 && speedups[0] < gate) {
        bench::failBench(format(
            "untraced predecode speedup %.2fx below the required "
            "%.2fx",
            speedups[0], gate));
    }
}

/** Micro-benchmark twins of the table, for --benchmark_filter runs. */
void
simFrontEnd(benchmark::State &state, bool predecode, bool traced)
{
    const auto &w = workloads::byName("gzip");
    assembler::Program program = assembler::assembleOrDie(w.source);
    cpu::CpuConfig config = w.config;
    config.predecode = predecode;
    cpu::Cpu cpu(config);
    trace::TraceBuffer buf;
    uint64_t insns = 0;
    for (auto _ : state) {
        cpu.loadProgram(program);
        cpu::RunResult r;
        if (traced) {
            buf.clear();
            r = cpu.run(&buf);
        } else {
            r = cpu.run(nullptr);
        }
        benchmark::DoNotOptimize(r.instructions);
        insns += r.instructions;
    }
    state.SetItemsProcessed(int64_t(insns));
}

void
simInterpreted(benchmark::State &state)
{
    simFrontEnd(state, false, false);
}
BENCHMARK(simInterpreted)->Unit(benchmark::kMicrosecond);

void
simPredecoded(benchmark::State &state)
{
    simFrontEnd(state, true, false);
}
BENCHMARK(simPredecoded)->Unit(benchmark::kMicrosecond);

void
simPredecodedTraced(benchmark::State &state)
{
    simFrontEnd(state, true, true);
}
BENCHMARK(simPredecodedTraced)->Unit(benchmark::kMicrosecond);

} // namespace
} // namespace scif

SCIF_BENCH_MAIN(scif::experiment)
