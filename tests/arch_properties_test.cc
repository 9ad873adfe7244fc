/**
 * @file
 * Architectural property tests: invariants the clean processor must
 * uphold on *every* record of *any* program, checked over a sweep of
 * constrained-random programs; plus determinism and mutation
 * robustness sweeps.
 */

#include <gtest/gtest.h>

#include "support/random.hh"
#include "trace/record.hh"
#include "workloads/workloads.hh"

namespace scif::cpu {
namespace {

using trace::Record;
using trace::VarId;

/** One random program per parameter value. */
class RandomSweep : public ::testing::TestWithParam<uint64_t>
{
  protected:
    trace::TraceBuffer
    runRandom()
    {
        Rng rng(GetParam());
        workloads::Workload w;
        w.name = "random";
        w.source = workloads::randomProgram(rng, 200);
        return workloads::run(w);
    }
};

TEST_P(RandomSweep, ArchitecturalInvariantsHold)
{
    trace::TraceBuffer buf = runRandom();
    ASSERT_GT(buf.size(), 50u);

    for (const Record &rec : buf.records()) {
        // GPR0 is hardwired to zero.
        EXPECT_EQ(rec.pre[trace::gprVar(0)], 0u);
        EXPECT_EQ(rec.post[trace::gprVar(0)], 0u);

        // The fixed-one SR bit reads one; these programs stay in
        // supervisor mode.
        EXPECT_EQ(rec.post[VarId::FO], 1u);
        EXPECT_EQ(rec.post[VarId::SM], 1u);

        // Control flow stays word aligned and sequenced.
        EXPECT_EQ(rec.post[VarId::PC] % 4, 0u);
        EXPECT_EQ(rec.post[VarId::NPC] % 4, 0u);
        EXPECT_EQ(rec.post[VarId::NNPC], rec.post[VarId::NPC] + 4);

        // Fetch integrity: the executed word is the memory word.
        if (!rec.point.isInterrupt()) {
            EXPECT_EQ(rec.post[VarId::INSN], rec.post[VarId::IMEM]);
        }

        // The ISA-correctness witnesses always pass on clean runs.
        EXPECT_EQ(rec.post[VarId::FLAGOK], 1u)
            << rec.point.name() << " @" << rec.index;
        EXPECT_EQ(rec.post[VarId::MEMOK], 1u)
            << rec.point.name() << " @" << rec.index;

        // The microarchitectural stall counter is dormant.
        EXPECT_EQ(rec.post[VarId::USTALL], 0u);

        // Word memory traffic is aligned and faithful.
        if (!rec.fused && !rec.point.isInterrupt() &&
            rec.point.exception() == isa::Exception::None &&
            rec.point.mnemonic() == isa::Mnemonic::L_LWZ) {
            EXPECT_EQ(rec.post[VarId::MEMADDR] % 4, 0u);
            EXPECT_EQ(rec.post[VarId::MEMBUS],
                      rec.post[VarId::DMEM]);
        }
    }
}

TEST_P(RandomSweep, ExecutionIsDeterministic)
{
    trace::TraceBuffer a = runRandom();
    trace::TraceBuffer b = runRandom();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.records()[i].point.id(), b.records()[i].point.id());
        EXPECT_EQ(a.records()[i].pre, b.records()[i].pre);
        EXPECT_EQ(a.records()[i].post, b.records()[i].post);
    }
}

TEST_P(RandomSweep, EveryMutationRunsToCompletion)
{
    // Robustness: no injected erratum may wedge the simulator
    // itself (hangs are reported as Wedged/MaxInsns, never a crash).
    Rng rng(GetParam() ^ 0x5a5a);
    workloads::Workload w;
    w.name = "random";
    w.source = workloads::randomProgram(rng, 80);

    for (size_t m = 0; m < numMutations; ++m) {
        cpu::CpuConfig config = w.config;
        config.maxInsns = 20000;
        config.mutations.add(Mutation(m));
        cpu::Cpu cpu(config);
        cpu.loadProgram(assembler::assembleOrDie(w.source));
        trace::TraceBuffer buf;
        RunResult result = cpu.run(&buf);
        EXPECT_GT(result.instructions, 0u) << "mutation " << m;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSweep,
                         ::testing::Values(11, 23, 37, 41, 59, 73,
                                           97, 113));

TEST(CleanWorkloads, WitnessVariablesHoldEverywhere)
{
    // The same witness checks over the real training suite,
    // including its exception-heavy boot workload.
    for (const auto &w : workloads::all()) {
        trace::TraceBuffer buf = workloads::run(w);
        for (const Record &rec : buf.records()) {
            EXPECT_EQ(rec.post[trace::gprVar(0)], 0u) << w.name;
            EXPECT_EQ(rec.post[VarId::FO], 1u) << w.name;
            EXPECT_EQ(rec.post[VarId::FLAGOK], 1u)
                << w.name << " " << rec.point.name();
            EXPECT_EQ(rec.post[VarId::MEMOK], 1u)
                << w.name << " " << rec.point.name();
        }
    }
}

TEST(CleanWorkloads, ExceptionEntryInvariants)
{
    // At every exception-taking record: supervisor mode entered,
    // handler vector reached, ESR captured the pre-exception SR.
    trace::TraceBuffer buf = workloads::run(workloads::byName("vmlinux"));
    size_t exceptional = 0;
    for (const Record &rec : buf.records()) {
        if (rec.point.exception() == isa::Exception::None)
            continue;
        ++exceptional;
        EXPECT_EQ(rec.post[VarId::SM], 1u);
        EXPECT_EQ(rec.post[VarId::NPC],
                  isa::exceptionVector(rec.point.exception()));
        // ESR captures SR at exception entry; the faulting
        // instruction may already have updated the arithmetic flags
        // (a range exception commits OV first), so compare modulo
        // F/CY/OV.
        uint32_t flagMask = ~((1u << isa::sr::F) |
                              (1u << isa::sr::CY) |
                              (1u << isa::sr::OV));
        EXPECT_EQ(rec.post[VarId::ESR0] & flagMask,
                  rec.pre[VarId::SR] & flagMask);
    }
    EXPECT_GT(exceptional, 100u);
}

} // namespace
} // namespace scif::cpu
