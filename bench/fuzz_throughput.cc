/**
 * @file
 * Throughput of the differential fuzzing harness: program generation,
 * assembly, lockstep co-simulation against the reference interpreter,
 * and the 31-mutant kill-mask evaluation, plus a pool-width sweep of
 * whole campaigns (fuzz::runFuzz, what `scifinder fuzz --jobs N`
 * runs). These set the budget for the nightly fuzz job: the printed
 * programs/second figures times the job's wall-clock allowance gives
 * the campaign size, and the efficiency column says how much a wider
 * runner buys.
 *
 * Flags (on top of the common bench flags):
 *   --require-speedup <x>  fail (exit 1) unless the widest pool
 *                          beats the width-1 pool by at least x
 *                          (CI smoke uses 1.0 — hosted runners have
 *                          few cores; the design target is 0.7 * the
 *                          sweep's widest width on real hardware).
 *                          Skipped with a notice on single-core
 *                          hosts, where no width can win.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "asm/assembler.hh"
#include "bench/common.hh"
#include "fuzz/differ.hh"
#include "fuzz/fuzzer.hh"
#include "fuzz/mutcov.hh"
#include "fuzz/progen.hh"
#include "support/strings.hh"
#include "support/threadpool.hh"

namespace scif {
namespace {

constexpr uint64_t benchSeed = 0xbe7c;

fuzz::GenConfig
genConfig()
{
    return fuzz::GenConfig();
}

assembler::Program
programAt(uint32_t index)
{
    return assembler::assembleOrDie(
        fuzz::generate(genConfig(), benchSeed, index).source());
}

void
experiment()
{
    bench::printHeader("Differential fuzzing throughput",
                       "harness instrumentation (not in the paper)");

    using clock = std::chrono::steady_clock;
    constexpr uint32_t n = 200;

    auto t0 = clock::now();
    std::vector<assembler::Program> corpus;
    for (uint32_t i = 0; i < n; ++i)
        corpus.push_back(programAt(i));
    auto t1 = clock::now();

    fuzz::DiffConfig dc;
    dc.memBytes = genConfig().memBytes;
    size_t diverged = 0;
    for (const auto &p : corpus)
        diverged += fuzz::diffProgram(p, dc) ? 1 : 0;
    auto t2 = clock::now();

    fuzz::MutCovConfig mc;
    mc.memBytes = genConfig().memBytes;
    uint64_t killed = 0;
    for (uint32_t i = 0; i < 20; ++i)
        killed |= fuzz::killMask(corpus[i], mc);
    auto t3 = clock::now();

    auto secs = [](clock::time_point a, clock::time_point b) {
        return std::chrono::duration<double>(b - a).count();
    };
    TextTable table({"Stage", "Programs", "Time (s)", "Programs/s"});
    table.addRow({"generate + assemble", std::to_string(n),
                  format("%.3f", secs(t0, t1)),
                  format("%.0f", n / secs(t0, t1))});
    table.addRow({"differential co-sim", std::to_string(n),
                  format("%.3f", secs(t1, t2)),
                  format("%.0f", n / secs(t1, t2))});
    table.addRow({"kill mask (31 mutants)", "20",
                  format("%.3f", secs(t2, t3)),
                  format("%.0f", 20 / secs(t2, t3))});
    std::printf("%s", table.render().c_str());
    std::printf("divergences: %zu (expected 0), mutations killed by "
                "20 programs: %d/31\n\n",
                diverged, __builtin_popcountll(killed));
    bench::recordMetric("fuzz.generate", n / secs(t0, t1),
                        "programs/s");
    bench::recordMetric("fuzz.cosim", n / secs(t1, t2), "programs/s");
    bench::recordMetric("fuzz.killmask", 20 / secs(t2, t3),
                        "programs/s");

    // Pool-width sweep: the same campaign at widths 1/2/4/8. Its
    // reports are identical for any width, so only the wall clock
    // may move and the sweep is a pure scaling measurement.
    fuzz::FuzzConfig fc;
    fc.seed = benchSeed;
    fc.count = 96;
    const unsigned widths[] = {1, 2, 4, 8};
    TextTable sweep({"Pool width", "Time (s)", "Programs/s", "Speedup",
                     "Efficiency"});
    double base = 0;
    double widest = 0;
    for (unsigned width : widths) {
        support::ThreadPool pool(width);
        auto f0 = clock::now();
        fuzz::FuzzResult result = fuzz::runFuzz(fc, &pool);
        double t = secs(f0, clock::now());
        if (!result.ok())
            bench::failBench("fuzz campaign diverged in the bench");
        double rate = fc.count / t;
        if (width == 1)
            base = rate;
        widest = rate / base;
        sweep.addRow({std::to_string(width), format("%.3f", t),
                      format("%.0f", rate),
                      format("%.2fx", rate / base),
                      format("%.0f%%", 100.0 * rate / base / width)});
        bench::recordMetric(format("fuzz.jobs.w%u", width), rate,
                            "programs/s");
        bench::recordMetric(format("fuzz.jobs.w%u.efficiency", width),
                            rate / base / width, "");
    }
    std::printf("%s\n", sweep.render().c_str());
    bench::recordMetric("fuzz.jobs.speedup", widest, "x");

    double gate = bench::options().requireSpeedup;
    if (gate > 0 && std::thread::hardware_concurrency() < 2) {
        // A wider pool cannot beat width 1 without a second core;
        // report the measurement but keep single-core hosts green.
        std::printf("single-core host: widest-pool gate skipped "
                    "(measured %.2fx, required %.2fx)\n",
                    widest, gate);
    } else if (gate > 0 && widest < gate) {
        bench::failBench(format(
            "widest-pool speedup %.2fx below the required %.2fx",
            widest, gate));
    }
}

void
BM_GenerateProgram(benchmark::State &state)
{
    uint32_t index = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            fuzz::generate(genConfig(), benchSeed, index++));
    }
}
BENCHMARK(BM_GenerateProgram);

void
BM_AssembleProgram(benchmark::State &state)
{
    std::string source =
        fuzz::generate(genConfig(), benchSeed, 0).source();
    for (auto _ : state)
        benchmark::DoNotOptimize(assembler::assemble(source));
}
BENCHMARK(BM_AssembleProgram);

void
BM_DifferentialCosim(benchmark::State &state)
{
    assembler::Program p = programAt(0);
    fuzz::DiffConfig dc;
    dc.memBytes = genConfig().memBytes;
    for (auto _ : state)
        benchmark::DoNotOptimize(fuzz::diffProgram(p, dc));
}
BENCHMARK(BM_DifferentialCosim);

void
BM_KillMask(benchmark::State &state)
{
    assembler::Program p = programAt(0);
    fuzz::MutCovConfig mc;
    mc.memBytes = genConfig().memBytes;
    for (auto _ : state)
        benchmark::DoNotOptimize(fuzz::killMask(p, mc));
}
BENCHMARK(BM_KillMask);

} // namespace
} // namespace scif

SCIF_BENCH_MAIN(scif::experiment)
