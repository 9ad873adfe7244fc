/**
 * @file
 * Table 8: execution time of each pipeline phase, with the data
 * sizes each phase consumed (the paper reports 11h21m of invariant
 * generation over 26 GB of traces on a 2.6 GHz quad-core i7; our
 * corpus is proportionally smaller and the tool chain is C++, so
 * absolute times differ by construction — the shape to reproduce is
 * the ordering: generation dominates, optimization and inference
 * are cheap).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "asm/assembler.hh"
#include "bench/common.hh"
#include "cpu/cpu.hh"
#include "support/strings.hh"
#include "trace/capture.hh"
#include "trace/columns.hh"
#include "workloads/workloads.hh"

namespace scif {
namespace {

void threadScalingSweep();
void evalSubstrateComparison();
void simFrontEndComparison();

std::string
hms(double seconds)
{
    int s = int(seconds + 0.5);
    return format("%02d:%02d:%02d", s / 3600, (s % 3600) / 60,
                  s % 60);
}

void
experiment()
{
    bench::printHeader("Table 8: execution time per phase",
                       "Zhang et al., ASPLOS'17, Table 8");

    const auto &r = bench::pipeline();

    TextTable table({"Step", "Data", "Size", "Time (s)", "hh:mm:ss"});
    table.addRow({"Trace Generation", "programs", "17",
                  format("%.2f", r.timing.traceGeneration),
                  hms(r.timing.traceGeneration)});
    table.addRow({"Invariant Generation", "traces",
                  format("%.1f MB", double(r.traceBytes) / 1e6),
                  format("%.2f", r.timing.invariantGeneration),
                  hms(r.timing.invariantGeneration)});
    table.addRow({"Optimization", "invariants",
                  std::to_string(r.rawInvariants),
                  format("%.2f", r.timing.optimization),
                  hms(r.timing.optimization)});
    table.addRow({"SCI Identification", "invariants+bugs",
                  format("%zu+%zu", r.model.size(),
                         r.database.results().size()),
                  format("%.2f", r.timing.identification),
                  hms(r.timing.identification)});
    table.addRow({"SCI Inference", "invariants",
                  std::to_string(r.model.size()),
                  format("%.2f", r.timing.inference),
                  hms(r.timing.inference)});
    std::printf("%s\n", table.render().c_str());

    double total = r.timing.traceGeneration +
                   r.timing.invariantGeneration +
                   r.timing.optimization + r.timing.identification +
                   r.timing.inference;
    std::printf("Total: %.2f s (%s). Paper: about 12 hours for "
                "26 GB of traces; invariant generation dominates "
                "there as here.\n",
                total, hms(total).c_str());

    simFrontEndComparison();
    evalSubstrateComparison();
    threadScalingSweep();
}

/**
 * Before/after of the trace-generation phase's simulation front end:
 * the interpreted fetch/decode loop (CpuConfig::predecode = false,
 * the oracle the differential tests compare against) into AoS
 * buffers with the post-hoc columnar transpose, versus the
 * predecoded basic-block cache with capture-time columnar tracing
 * the phase runs on. See bench/sim_throughput for the
 * instruction-level sweep.
 */
void
simFrontEndComparison()
{
    const auto &suite = workloads::all();
    uint64_t records = 0;
    for (const auto &w : suite)
        records += workloads::run(w).size();

    using clock = std::chrono::steady_clock;
    auto timeSweep = [](auto &&sweep) {
        sweep(); // warm-up
        size_t sweeps = 0;
        auto start = clock::now();
        double elapsed = 0;
        do {
            sweep();
            ++sweeps;
            elapsed = std::chrono::duration<double>(clock::now() -
                                                    start)
                          .count();
        } while (elapsed < 0.3);
        return elapsed / double(sweeps);
    };

    double before = timeSweep([&] {
        std::vector<const trace::TraceBuffer *> ptrs;
        std::vector<trace::TraceBuffer> traces;
        traces.reserve(suite.size());
        for (const auto &w : suite) {
            cpu::CpuConfig config = w.config;
            config.predecode = false;
            cpu::Cpu cpu(config);
            cpu.loadProgram(assembler::assembleOrDie(w.source));
            cpu.run(&traces.emplace_back());
        }
        for (const auto &t : traces)
            ptrs.push_back(&t);
        auto cols = trace::ColumnSet::build(ptrs);
        benchmark::DoNotOptimize(cols.totalRows());
    });
    double after = timeSweep([&] {
        std::vector<trace::ColumnarCapture> caps;
        caps.reserve(suite.size());
        for (const auto &w : suite)
            caps.push_back(workloads::runColumnar(w));
        std::vector<const trace::ColumnarCapture *> ptrs;
        for (const auto &c : caps)
            ptrs.push_back(&c);
        auto cols = trace::ColumnarCapture::seal(ptrs);
        benchmark::DoNotOptimize(cols.totalRows());
    });

    std::printf("\nTrace-generation simulation front end (17 "
                "workloads to sealed columns, %llu records):\n",
                (unsigned long long)records);
    TextTable table({"Front end", "Sweep (s)", "Records/s", "Speedup"});
    table.addRow({"interpreted + transpose (before)",
                  format("%.3f", before),
                  format("%.3g", double(records) / before), "1.00x"});
    table.addRow({"predecoded + capture-time (after)",
                  format("%.3f", after),
                  format("%.3g", double(records) / after),
                  format("%.2fx", before / after)});
    std::printf("%s\n", table.render().c_str());
    bench::recordMetric("trace_generation.sweep_before_s", before, "s");
    bench::recordMetric("trace_generation.sweep_after_s", after, "s");
    bench::recordMetric("trace_generation.sweep_speedup",
                        before / after, "x");
}

/**
 * Before/after of the identification phase's evaluation substrate:
 * the full-model violation scan of the validation corpus with the
 * interpreted Expr walk (the pre-columnar implementation, kept as the
 * oracle) versus the compiled batch kernels the phase now runs on.
 */
void
evalSubstrateComparison()
{
    const auto &r = bench::pipeline();
    auto corpus = workloads::validationCorpus(8, 0x5eed);
    uint64_t records = 0;
    for (const auto &t : corpus)
        records += t.size();

    using clock = std::chrono::steady_clock;
    auto seconds = [](clock::time_point from) {
        return std::chrono::duration<double>(clock::now() - from)
            .count();
    };

    // The pipeline compiles the model once and reuses it for every
    // scan (validation corpus + two trigger traces per bug), so the
    // one-time compile cost is reported separately from the per-scan
    // throughput.
    auto compileStart = clock::now();
    sci::CompiledModel compiled(r.model);
    double compileTime = seconds(compileStart);

    auto timeSweep = [&](auto &&scanCorpus) {
        scanCorpus(); // warm-up
        size_t sweeps = 0;
        auto start = clock::now();
        double elapsed = 0;
        do {
            scanCorpus();
            ++sweeps;
            elapsed = seconds(start);
        } while (elapsed < 0.3);
        return elapsed / double(sweeps);
    };
    double before = timeSweep([&] {
        size_t violations = 0;
        for (const auto &t : corpus) {
            violations += sci::findViolations(
                              r.model, t, sci::EvalMode::Interpreted)
                              .size();
        }
        benchmark::DoNotOptimize(violations);
    });
    double after = timeSweep([&] {
        size_t violations = 0;
        for (const auto &t : corpus)
            violations += sci::findViolations(compiled, t).size();
        benchmark::DoNotOptimize(violations);
    });

    std::printf("\nIdentification evaluation substrate "
                "(%zu invariants, %llu validation records, one-time "
                "model compile %.3f s):\n",
                r.model.size(), (unsigned long long)records,
                compileTime);
    TextTable table({"Substrate", "Scan (s)", "Records/s", "Speedup"});
    table.addRow({"interpreted (before)", format("%.3f", before),
                  format("%.3g", double(records) / before), "1.00x"});
    table.addRow({"compiled (after)", format("%.3f", after),
                  format("%.3g", double(records) / after),
                  format("%.2fx", before / after)});
    std::printf("%s\n", table.render().c_str());
    bench::recordMetric("identification.compile_s", compileTime, "s");
    bench::recordMetric("identification.scan_before_s", before, "s");
    bench::recordMetric("identification.scan_after_s", after, "s");
    bench::recordMetric("identification.scan_speedup",
                        before / after, "x");
}

/**
 * The staged pipeline's fan-out, measured rather than asserted: the
 * full pipeline (inference off — Table 8's parallel rows are the
 * generation and identification phases) at 1/2/4/N worker threads,
 * with per-phase wall clock, speedup over the serial run, and a
 * determinism check of the outputs.
 */
void
threadScalingSweep()
{
    unsigned hw = std::thread::hardware_concurrency();
    std::vector<size_t> sweep = {1, 2, 4};
    if (hw > 0)
        sweep.push_back(hw);
    std::sort(sweep.begin(), sweep.end());
    sweep.erase(std::unique(sweep.begin(), sweep.end()),
                sweep.end());

    std::printf("\nThread scaling (full corpus, inference off; "
                "%u hardware threads):\n", hw);
    TextTable table({"Jobs", "Generation (s)", "Identification (s)",
                     "Total (s)", "Gen+Ident speedup",
                     "Identical to serial"});

    double serialGenIdent = 0;
    std::set<std::string> serialKeys;
    std::vector<size_t> serialSci;
    for (size_t jobs : sweep) {
        core::PipelineConfig config;
        config.runInference = false;
        config.jobs = jobs;
        core::PipelineResult r = core::runPipeline(config);

        double gen = r.timing.traceGeneration +
                     r.timing.invariantGeneration;
        double ident = r.timing.identification;
        double total = gen + r.timing.optimization + ident;
        if (jobs == 1) {
            serialGenIdent = gen + ident;
            serialKeys = r.model.keys();
            serialSci = r.database.sciIndices();
        }
        bool identical = r.model.keys() == serialKeys &&
                         r.database.sciIndices() == serialSci;
        table.addRow({std::to_string(jobs), format("%.2f", gen),
                      format("%.2f", ident), format("%.2f", total),
                      format("%.2fx",
                             serialGenIdent / (gen + ident)),
                      identical ? "yes" : "NO"});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Expected shape: near-linear speedup of the "
                "generation and identification phases up to the "
                "core count (the fan-outs are per workload, per "
                "program point, and per bug).\n");
}

/** Micro-benchmarks: the phases, timed properly. */
void
phaseTraceGeneration(benchmark::State &state)
{
    for (auto _ : state) {
        auto buf =
            workloads::run(workloads::byName("basicmath"));
        benchmark::DoNotOptimize(buf.size());
    }
}
BENCHMARK(phaseTraceGeneration)->Unit(benchmark::kMillisecond);

void
phaseIdentification(benchmark::State &state)
{
    const auto &r = bench::pipeline();
    for (auto _ : state) {
        auto res = sci::identify(sci::CompiledModel(r.model),
                                 bugs::byId("b5"),
                                 r.validationViolations);
        benchmark::DoNotOptimize(res.trueSci.size());
    }
}
BENCHMARK(phaseIdentification)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace scif

SCIF_BENCH_MAIN(scif::experiment)
