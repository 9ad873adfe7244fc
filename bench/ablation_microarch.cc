/**
 * @file
 * Ablation (paper §5.2): bug b2 — the l.macrc-after-l.mac pipeline
 * stall — is the one bug SCIFinder cannot identify, "because no
 * ISA-level invariants are violated by this bug... Identifying SCI
 * for this bug would require adding microarchitectural level
 * variables to Daikon's instrumenter."
 *
 * This bench does exactly that: it re-runs identification for b2
 * with the simulator's microarchitectural trace extension enabled
 * (the USTALL stall-counter variable plus records for stalled,
 * never-retiring instructions) and shows the bug becoming
 * identifiable.
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/common.hh"
#include "invgen/invgen.hh"
#include "sci/identify.hh"
#include "workloads/workloads.hh"

namespace scif {
namespace {

/** Run the b2 identification at one abstraction level. */
std::pair<invgen::InvariantSet, sci::IdentificationResult>
identifyB2(bool uarch)
{
    // Training traces at the chosen abstraction level.
    std::vector<trace::TraceBuffer> traces;
    for (const char *name :
         {"vmlinux", "basicmath", "mesa", "quake", "twolf"}) {
        workloads::Workload w = workloads::byName(name);
        w.config.uarchTrace = uarch;
        traces.push_back(workloads::run(w));
    }
    std::vector<const trace::TraceBuffer *> ptrs;
    for (const auto &t : traces)
        ptrs.push_back(&t);

    invgen::Config config;
    if (uarch)
        config.disabledVars.erase(trace::VarId::USTALL);
    invgen::InvariantSet set = invgen::generate(ptrs, config);

    // The trigger runs with the same trace extension; the expert
    // validation pass prunes over-fitted candidates as usual.
    bugs::Bug bug = bugs::byId("b2");
    bug.config.uarchTrace = uarch;
    sci::CompiledModel compiled(set);
    auto nonInvariant =
        sci::corpusViolations(compiled, workloads::validationCorpus(8));
    auto result = sci::identify(compiled, bug, nonInvariant);
    return {std::move(set), std::move(result)};
}

void
experiment()
{
    bench::printHeader(
        "Ablation: microarchitectural state makes b2 visible",
        "Zhang et al., ASPLOS'17, §5.2 (the one unidentified bug)");

    TextTable table({"Abstraction level", "b2 true SCI",
                     "identified"});
    auto [isaSet, isa] = identifyB2(false);
    table.addRow({"ISA-level (paper's tool)",
                  std::to_string(isa.trueSci.size()),
                  isa.detected() ? "yes" : "no"});
    auto [uarchSet, uarch] = identifyB2(true);
    table.addRow({"+ microarchitectural USTALL",
                  std::to_string(uarch.trueSci.size()),
                  uarch.detected() ? "yes" : "no"});
    std::printf("%s\n", table.render().c_str());

    if (uarch.detected()) {
        std::printf("microarchitectural SCI for b2 (first 6):\n");
        size_t shown = 0;
        for (size_t idx : uarch.trueSci) {
            std::printf("  %s\n",
                        uarchSet.all()[idx].str().c_str());
            if (++shown == 6)
                break;
        }
    }
    std::printf("Paper: \"The only bug for which our tool fails to "
                "identify any SCI is bug b2 ... all software-visible "
                "signals remain self-consistent\"; the extension "
                "above is its proposed fix.\n");
}

/** Micro-benchmark: generation cost with the extension enabled. */
void
uarchGeneration(benchmark::State &state)
{
    workloads::Workload w = workloads::byName("quake");
    w.config.uarchTrace = true;
    trace::TraceBuffer trace = workloads::run(w);
    invgen::Config config;
    config.disabledVars.erase(trace::VarId::USTALL);
    for (auto _ : state) {
        auto set = invgen::generate(trace, config);
        benchmark::DoNotOptimize(set.size());
    }
}
BENCHMARK(uarchGeneration)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace scif

SCIF_BENCH_MAIN(scif::experiment)
