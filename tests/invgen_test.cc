/**
 * @file
 * Invariant-generation tests: the engine must discover the paper's
 * flagship invariants from the training corpus (GPR0 == 0, the l.rfe
 * SR restore, syscall vectoring, link-register updates, effective
 * addresses, flag correctness) and must respect its confidence bar.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "invgen/invgen.hh"
#include "workloads/workloads.hh"

namespace scif::invgen {
namespace {

/** Generate once over the full corpus; shared by the tests. */
const InvariantSet &
corpusInvariants()
{
    static const InvariantSet set = [] {
        std::vector<trace::TraceBuffer> buffers;
        for (const auto &w : workloads::all())
            buffers.push_back(workloads::run(w));
        std::vector<const trace::TraceBuffer *> ptrs;
        for (const auto &b : buffers)
            ptrs.push_back(&b);
        return generate(ptrs);
    }();
    return set;
}

TEST(Generate, ProducesASubstantialModel)
{
    const auto &set = corpusInvariants();
    EXPECT_GT(set.size(), 10000u);
    EXPECT_GT(set.variableCount(), set.size());
}

TEST(Generate, FindsFlagshipInvariants)
{
    const auto &set = corpusInvariants();
    for (const char *text : {
             // The paper's running example (p9/p14 family).
             "l.rfe -> SR == orig(ESR0)",
             // GPR0 is hardwired to zero (b10 family).
             "l.add -> GPR0 == 0",
             "l.addi -> GPR0 == 0",
             // Syscall vectoring (b8 family, properties p17/p21/p23).
             "l.sys@syscall -> NPC == 0xc00",
             // Link register update (b13 / p11).
             "l.jal -> GPR9 == PC + 8",
             "l.jalr -> GPR9 == PC + 8",
             // Effective address (p7/p29).
             "l.lwz -> MEMADDR == (orig(OPA) + IMM)",
             "l.sw -> MEMADDR == (orig(OPA) + IMM)",
             // Control-flow flag correctness (p28).
             "l.sfltu -> FLAGOK == 1",
             "l.sfleu -> FLAGOK == 1",
             "l.sfges -> FLAGOK == 1",
             // LSU data correctness (p5/p6).
             "l.lbs -> MEMOK == 1",
             "l.sb -> MEMOK == 1",
             "l.lwz -> MEMBUS == DMEM",
             // Exception register updates (p3).
             "l.add@range -> EPCR0 == PC",
             "l.trap@trap -> EPCR0 == PC",
             "int@illegal-instruction -> EPCR0 == PC",
             "l.sys@syscall -> EPCR0 == PC + 4",
             // Fetch integrity (b11 / p12).
             "l.add -> IMEM == INSN",
             // Supervisor entry on exception (p20).
             "l.sys@syscall -> SM == 1",
             // The fixed-one SR bit (h6).
             "l.rfe -> FO == 1",
             // Word extensions are the identity (b3 / p29).
             "l.extws -> OPDEST == orig(OPA)",
         }) {
        expr::Invariant inv = expr::Invariant::parse(text);
        EXPECT_TRUE(set.contains(inv.key())) << text;
    }
}

TEST(Generate, DelaySlotDsxInvariant)
{
    // An exception taken in a delay slot must set DSX (b4).
    const auto &set = corpusInvariants();
    expr::Invariant inv =
        expr::Invariant::parse("l.j@alignment -> DSX == 1");
    EXPECT_TRUE(set.contains(inv.key()));
}

TEST(Generate, EffectiveAddressOracleOffByDefault)
{
    // p10's jump-effective-address variable is disabled by default
    // (§5.4: Daikon "does not capture effective addresses").
    const auto &set = corpusInvariants();
    for (const auto &inv : set.all()) {
        EXPECT_FALSE(inv.lhs.mentions(trace::VarId::JEA));
        EXPECT_FALSE(inv.lhs.mentions(trace::VarId::EA));
        if (inv.op != expr::CmpOp::In) {
            EXPECT_FALSE(inv.rhs.mentions(trace::VarId::JEA));
            EXPECT_FALSE(inv.rhs.mentions(trace::VarId::EA));
        }
    }
}

TEST(Generate, EnablingEffectiveAddressFindsJumpTarget)
{
    // The paper's fix: add the effective address as a derived
    // variable and the jump-target invariant appears (p10).
    std::vector<trace::TraceBuffer> buffers;
    buffers.push_back(workloads::run(workloads::byName("basicmath")));
    buffers.push_back(workloads::run(workloads::byName("crafty")));
    std::vector<const trace::TraceBuffer *> ptrs;
    for (const auto &b : buffers)
        ptrs.push_back(&b);

    Config config;
    config.disabledVars.clear();
    InvariantSet set = generate(ptrs, config);

    expr::Invariant inv = expr::Invariant::parse("l.j -> NPC == JEA");
    EXPECT_TRUE(set.contains(inv.key()));
}

TEST(Generate, AllInvariantsHoldOnTrainingTraces)
{
    // Soundness: nothing the generator emits may be violated by the
    // very traces it learned from.
    std::vector<trace::TraceBuffer> buffers;
    for (const auto &w : workloads::all())
        buffers.push_back(workloads::run(w));
    const auto &set = corpusInvariants();

    size_t checked = 0;
    for (const auto &buf : buffers) {
        for (const auto &rec : buf.records()) {
            for (size_t idx : set.atPoint(rec.point.id())) {
                EXPECT_TRUE(set.all()[idx].exprHolds(rec))
                    << set.all()[idx].str();
                ++checked;
            }
        }
    }
    EXPECT_GT(checked, 100000u);
}

TEST(Generate, RespectsMinimumSamples)
{
    // A tiny trace must produce no invariants at starved points.
    trace::TraceBuffer buf;
    trace::Record rec;
    rec.point = trace::Point::insn(isa::Mnemonic::L_XOR);
    buf.record(rec);
    buf.record(rec);

    Config config;
    InvariantSet set = generate(buf, config);
    EXPECT_EQ(set.size(), 0u);
}

TEST(Generate, ConfidenceGateOnBinaryVariables)
{
    // A binary-valued variable that is constant in only a handful of
    // samples must not be reported: with cardinality 2 the chance of
    // n identical draws is 0.5^(n-1), so 0.99 confidence needs n >= 8.
    trace::TraceBuffer buf;
    for (int i = 0; i < 6; ++i) {
        trace::Record rec;
        rec.point = trace::Point::insn(isa::Mnemonic::L_XOR);
        rec.post[trace::VarId::SF] = 1;
        // Make the variable binary overall by alternating elsewhere.
        trace::Record other;
        other.point = trace::Point::insn(isa::Mnemonic::L_AND);
        other.post[trace::VarId::SF] = uint32_t(i % 2);
        buf.record(rec);
        buf.record(other);
    }

    Config config;
    config.minSamples = 3;
    InvariantSet set = generate(buf, config);
    expr::Invariant probe = expr::Invariant::parse("l.xor -> SF == 1");
    EXPECT_FALSE(set.contains(probe.key()));

    // With plenty of samples the same invariant is justified.
    for (int i = 0; i < 30; ++i) {
        trace::Record rec;
        rec.point = trace::Point::insn(isa::Mnemonic::L_XOR);
        rec.post[trace::VarId::SF] = 1;
        trace::Record other;
        other.point = trace::Point::insn(isa::Mnemonic::L_AND);
        other.post[trace::VarId::SF] = uint32_t(i % 2);
        buf.record(rec);
        buf.record(other);
    }
    set = generate(buf, config);
    EXPECT_TRUE(set.contains(probe.key()));
}

TEST(InvariantSetOps, TextPersistenceRoundTrips)
{
    // Every generated invariant's str() form parses back to the same
    // invariant, so the text reports name the model exactly.
    std::vector<trace::TraceBuffer> buffers;
    buffers.push_back(workloads::run(workloads::byName("gzip")));
    std::vector<const trace::TraceBuffer *> ptrs = {&buffers[0]};
    InvariantSet set = generate(ptrs);
    ASSERT_GT(set.size(), 100u);

    InvariantSet parsed;
    for (const auto &inv : set.all())
        parsed.add(expr::Invariant::parse(inv.str()));

    EXPECT_EQ(parsed.size(), set.size());
    EXPECT_EQ(parsed.keys(), set.keys());
}

TEST(InvariantSetOps, AddDedupsAndIndexes)
{
    InvariantSet set;
    auto inv = expr::Invariant::parse("l.add -> GPR0 == 0");
    EXPECT_TRUE(set.add(inv));
    EXPECT_FALSE(set.add(inv));
    EXPECT_EQ(set.size(), 1u);
    EXPECT_EQ(set.atPoint(inv.point.id()).size(), 1u);
    EXPECT_TRUE(set.atPoint(
                       trace::Point::insn(isa::Mnemonic::L_SUB).id())
                    .empty());
}

} // namespace
} // namespace scif::invgen
