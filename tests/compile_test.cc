/**
 * @file
 * Differential proof that compiled batch evaluation equals the
 * interpreted Expr oracle: record-for-record on every invariant the
 * generator produces from the workload corpus, on fuzzed random
 * expressions, and through the sci::findViolations entry points.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "expr/compile.hh"
#include "invgen/invgen.hh"
#include "sci/identify.hh"
#include "support/random.hh"
#include "support/threadpool.hh"
#include "trace/columns.hh"
#include "workloads/workloads.hh"

namespace scif::expr {
namespace {

using scif::Rng;

const trace::Point fuzzPoint = trace::Point::insn(isa::Mnemonic::L_ADD);

/** A record whose slots mix tiny values (so comparisons and set
 *  membership actually go both ways) with full-range noise. */
trace::Record
randomRecord(Rng &rng, uint64_t index)
{
    trace::Record rec;
    rec.point = fuzzPoint;
    rec.index = index;
    for (uint16_t v = 0; v < trace::numVars; ++v) {
        rec.pre[v] = rng.chance(0.5) ? uint32_t(rng.below(8))
                                     : uint32_t(rng.next());
        rec.post[v] = rng.chance(0.5) ? uint32_t(rng.below(8))
                                      : uint32_t(rng.next());
    }
    return rec;
}

Operand
randomOperand(Rng &rng)
{
    if (rng.chance(0.15))
        return Operand::imm(rng.chance(0.5) ? uint32_t(rng.below(8))
                                            : uint32_t(rng.next()));
    Operand o = Operand::var(uint16_t(rng.below(trace::numVars)),
                             rng.chance(0.5));
    if (rng.chance(0.3)) {
        o.op2 = Op2(1 + rng.below(4));
        o.b = VarRef{uint16_t(rng.below(trace::numVars)),
                     rng.chance(0.5)};
    }
    if (rng.chance(0.15))
        o.negate = true;
    if (rng.chance(0.2))
        o.mulImm = 1 + uint32_t(rng.below(4));
    if (rng.chance(0.25)) {
        // Mix power-of-two (AndImm strength reduction) and general
        // moduli (ModImm).
        static const uint32_t mods[] = {2, 3, 4, 5, 7, 8, 16, 10};
        o.modImm = mods[rng.below(8)];
    }
    if (rng.chance(0.2))
        o.addImm = uint32_t(rng.below(100));
    return o;
}

Invariant
randomInvariant(Rng &rng)
{
    Invariant inv;
    inv.point = fuzzPoint;
    inv.op = CmpOp(rng.below(7));
    inv.lhs = randomOperand(rng);
    if (inv.op == CmpOp::In) {
        // The interpreted oracle binary-searches the set, so it must
        // be canonical (sorted); compile() also sorts defensively.
        size_t n = 1 + rng.below(6);
        for (size_t i = 0; i < n; ++i)
            inv.set.push_back(uint32_t(rng.below(8)));
        inv.canonicalize();
    }
    else {
        // Leave Lt/Le un-canonicalized: that exercises the compiled
        // swapped-compare lowering against the interpreter's native
        // Lt/Le evaluation.
        inv.rhs = randomOperand(rng);
    }
    return inv;
}

TEST(Compile, FuzzedDifferentialAgainstInterpreter)
{
    Rng rng(0xc0de);

    constexpr size_t numRecords = 64;
    trace::TraceBuffer buf;
    for (size_t i = 0; i < numRecords; ++i)
        buf.record(randomRecord(rng, i));
    trace::ColumnSet cols = trace::ColumnSet::build(buf);
    trace::PointColumns *pc = cols.point(fuzzPoint.id());
    ASSERT_NE(pc, nullptr);
    ASSERT_EQ(pc->rows(), numRecords);

    constexpr size_t numExprs = 12000;
    for (size_t n = 0; n < numExprs; ++n) {
        Invariant inv = randomInvariant(rng);
        CompiledInvariant prog = CompiledInvariant::compile(inv);
        ASSERT_TRUE(prog.compatible(*pc));

        // Scalar kernel == oracle, record for record.
        size_t firstFalse = CompiledInvariant::npos;
        for (size_t i = 0; i < numRecords; ++i) {
            bool oracle = inv.exprHolds(buf.records()[i]);
            ASSERT_EQ(prog.holdsRecord(buf.records()[i]), oracle)
                << inv.str() << " @ record " << i;
            if (!oracle && firstFalse == CompiledInvariant::npos)
                firstFalse = i;
        }
        ASSERT_EQ(prog.firstViolation(*pc, 0, numRecords), firstFalse)
            << inv.str();

        // Sub-range scans must respect [begin, end).
        if (firstFalse != CompiledInvariant::npos) {
            ASSERT_EQ(prog.firstViolation(*pc, firstFalse, numRecords),
                      firstFalse);
            ASSERT_GE(prog.firstViolation(*pc, firstFalse + 1,
                                          numRecords),
                      firstFalse + 1);
        }
    }
}

TEST(Compile, SlotsAreSortedAndDeduplicated)
{
    // slots() is an interface contract: the identification scan's
    // ColumnSet::build(buf, slots) assumes each referenced column
    // appears once, in ascending order, however the expression
    // repeats or reorders its variable references.
    Invariant inv;
    inv.point = fuzzPoint;
    inv.op = CmpOp::Eq;
    inv.lhs = Operand::var(5, false);        // slot 11
    inv.lhs.op2 = Op2::Add;
    inv.lhs.b = VarRef{2, true};             // slot 4
    inv.rhs = Operand::var(5, false);        // slot 11 again
    inv.rhs.op2 = Op2::Sub;
    inv.rhs.b = VarRef{0, true};             // slot 0
    CompiledInvariant prog = CompiledInvariant::compile(inv);
    EXPECT_EQ(prog.slots(), (std::vector<uint16_t>{0, 4, 11}));

    for (size_t n = 0; n < 300; ++n) {
        Rng rng(n);
        std::vector<uint16_t> slots =
            CompiledInvariant::compile(randomInvariant(rng)).slots();
        EXPECT_TRUE(std::is_sorted(slots.begin(), slots.end()));
        EXPECT_EQ(std::adjacent_find(slots.begin(), slots.end()),
                  slots.end());
    }
}

TEST(Compile, ReferencedSlotsSufficeForEvaluation)
{
    Rng rng(0xfeed);
    trace::TraceBuffer buf;
    for (size_t i = 0; i < 40; ++i)
        buf.record(randomRecord(rng, i));

    for (size_t n = 0; n < 500; ++n) {
        Invariant inv = randomInvariant(rng);
        CompiledInvariant prog = CompiledInvariant::compile(inv);
        // A column set holding only the program's slots is enough.
        trace::ColumnSet cols =
            trace::ColumnSet::build(buf, prog.slots());
        trace::PointColumns *pc = cols.point(fuzzPoint.id());
        ASSERT_NE(pc, nullptr);
        ASSERT_TRUE(prog.compatible(*pc));
        size_t firstFalse = CompiledInvariant::npos;
        for (size_t i = 0; i < buf.size(); ++i) {
            if (!inv.exprHolds(buf.records()[i])) {
                firstFalse = i;
                break;
            }
        }
        ASSERT_EQ(prog.firstViolation(*pc, 0, pc->rows()), firstFalse)
            << inv.str();
    }
}

/** Shared workload corpus + generated model for the suite. */
struct Corpus
{
    std::vector<trace::TraceBuffer> buffers;
    invgen::InvariantSet model;
};

const Corpus &
corpus()
{
    static const Corpus c = [] {
        Corpus c;
        for (const char *name : {"vmlinux", "basicmath", "gzip"}) {
            c.buffers.push_back(
                workloads::run(workloads::byName(name)));
        }
        std::vector<const trace::TraceBuffer *> ptrs;
        for (const auto &b : c.buffers)
            ptrs.push_back(&b);
        c.model = invgen::generate(ptrs);
        return c;
    }();
    return c;
}

TEST(Compile, GeneratedModelDifferentialOnTrainingRecords)
{
    const Corpus &c = corpus();
    ASSERT_GT(c.model.size(), 1000u);

    std::vector<const trace::TraceBuffer *> ptrs;
    for (const auto &b : c.buffers)
        ptrs.push_back(&b);
    trace::ColumnSet cols = trace::ColumnSet::build(ptrs);

    size_t checked = 0;
    for (const auto &inv : c.model.all()) {
        CompiledInvariant prog = CompiledInvariant::compile(inv);
        trace::PointColumns *pc = cols.point(inv.point.id());
        ASSERT_NE(pc, nullptr) << inv.str();
        // Every generated invariant holds on its training rows; the
        // compiled scan must agree.
        ASSERT_EQ(prog.firstViolation(*pc, 0, pc->rows()),
                  CompiledInvariant::npos)
            << inv.str();
        checked += pc->rows();
    }
    EXPECT_GT(checked, 100000u);

    // Spot-check the scalar kernel against the oracle on real records
    // (the batch kernel only proves the all-true case above).
    Rng rng(0x5ca1a);
    const auto &invs = c.model.all();
    for (size_t n = 0; n < 2000; ++n) {
        const auto &inv = invs[rng.below(invs.size())];
        CompiledInvariant prog = CompiledInvariant::compile(inv);
        const auto &buf = c.buffers[rng.below(c.buffers.size())];
        const auto &rec =
            buf.records()[rng.below(buf.records().size())];
        EXPECT_EQ(prog.holdsRecord(rec), inv.exprHolds(rec))
            << inv.str();
    }
}

TEST(Compile, FindViolationsMatchesInterpretedOnCorpus)
{
    const Corpus &c = corpus();
    auto validation = workloads::validationCorpus(6, 0xd1ff);
    for (const auto &trace : validation) {
        auto compiled = sci::findViolations(c.model, trace,
                                            sci::EvalMode::Compiled);
        auto interpreted = sci::findViolations(
            c.model, trace, sci::EvalMode::Interpreted);
        EXPECT_EQ(compiled, interpreted);
        // Fresh traces violate plenty of training-only invariants;
        // make sure the differential is not vacuous.
        EXPECT_FALSE(compiled.empty());
    }
}

TEST(Compile, GenerationIsJobCountInvariant)
{
    const Corpus &c = corpus();
    std::vector<const trace::TraceBuffer *> ptrs;
    for (const auto &b : c.buffers)
        ptrs.push_back(&b);

    support::ThreadPool pool(4);
    invgen::InvariantSet parallel =
        invgen::generate(ptrs, invgen::Config(), nullptr, &pool);

    ASSERT_EQ(parallel.size(), c.model.size());
    for (size_t i = 0; i < parallel.size(); ++i) {
        ASSERT_EQ(parallel.all()[i].key(), c.model.all()[i].key());
        ASSERT_EQ(parallel.all()[i].str(), c.model.all()[i].str());
    }
}

} // namespace
} // namespace scif::expr
