/**
 * @file
 * Trace-layer tests: schema naming, program-point packing and
 * parsing, derived-variable computation, and trace buffers.
 */

#include <gtest/gtest.h>

#include <set>

#include "trace/derived.hh"
#include "trace/record.hh"
#include "trace/schema.hh"

namespace scif::trace {
namespace {

TEST(Schema, NamesRoundTrip)
{
    for (uint16_t v = 0; v < numVars; ++v) {
        auto name = varName(v);
        EXPECT_FALSE(name.empty());
        EXPECT_EQ(varByName(name), v) << name;
    }
    EXPECT_EQ(varByName("nonsense"), numVars);
    EXPECT_EQ(varName(gprVar(7)), "GPR7");
    EXPECT_EQ(varName(VarId::EPCR0), "EPCR0");
    EXPECT_EQ(varName(VarId::FLAGOK), "FLAGOK");
}

TEST(Point, PackUnpack)
{
    Point p = Point::insn(isa::Mnemonic::L_ADD);
    EXPECT_EQ(Point::fromId(p.id()), p);
    EXPECT_EQ(p.name(), "l.add");
    EXPECT_FALSE(p.isInterrupt());

    Point q = Point::insn(isa::Mnemonic::L_SYS,
                          isa::Exception::Syscall);
    EXPECT_EQ(Point::fromId(q.id()), q);
    EXPECT_EQ(q.name(), "l.sys@syscall");

    Point r = Point::interrupt(isa::Exception::Tick);
    EXPECT_EQ(Point::fromId(r.id()), r);
    EXPECT_TRUE(r.isInterrupt());
    EXPECT_EQ(r.name(), "int@tick");

    EXPECT_NE(p.id(), q.id());
    EXPECT_NE(q.id(), r.id());
}

TEST(Point, ParseNames)
{
    EXPECT_EQ(Point::parse("l.add"), Point::insn(isa::Mnemonic::L_ADD));
    EXPECT_EQ(Point::parse("l.sys@syscall"),
              Point::insn(isa::Mnemonic::L_SYS,
                          isa::Exception::Syscall));
    EXPECT_EQ(Point::parse("int@external-interrupt"),
              Point::interrupt(isa::Exception::External));
}

TEST(Point, AllPointsHaveDistinctIds)
{
    std::set<uint16_t> ids;
    for (const auto &ii : isa::allInsns()) {
        for (int e = 0; e <= int(isa::Exception::Trap); ++e) {
            Point p = Point::insn(ii.mnemonic, isa::Exception(e));
            EXPECT_TRUE(ids.insert(p.id()).second) << p.name();
        }
    }
    for (int e = 0; e <= int(isa::Exception::Trap); ++e) {
        Point p = Point::interrupt(isa::Exception(e));
        EXPECT_TRUE(ids.insert(p.id()).second);
    }
}

TEST(Point, ValidIdsAreExactlyTheDefinedPoints)
{
    // validId() guards fromId() against untrusted bytes: of all 2^16
    // packed ids it accepts the instruction and interrupt points and
    // nothing else.
    std::set<uint16_t> defined;
    for (int e = 0; e <= int(isa::Exception::Trap); ++e) {
        for (const auto &ii : isa::allInsns())
            defined.insert(Point::insn(ii.mnemonic, isa::Exception(e)).id());
        defined.insert(Point::interrupt(isa::Exception(e)).id());
    }
    for (uint32_t id = 0; id <= UINT16_MAX; ++id)
        EXPECT_EQ(Point::validId(uint16_t(id)), defined.count(id) != 0)
            << id;
}

TEST(Derived, FlagBitsUnpacked)
{
    Record rec;
    rec.point = Point::insn(isa::Mnemonic::L_ADD);
    rec.post[VarId::SR] = (1u << isa::sr::F) | (1u << isa::sr::SM) |
                          (1u << isa::sr::FO);
    rec.pre[VarId::SR] = 1u << isa::sr::CY;
    computeDerived(rec);
    EXPECT_EQ(rec.post[VarId::SF], 1u);
    EXPECT_EQ(rec.post[VarId::SM], 1u);
    EXPECT_EQ(rec.post[VarId::FO], 1u);
    EXPECT_EQ(rec.post[VarId::CY], 0u);
    EXPECT_EQ(rec.pre[VarId::CY], 1u);
    EXPECT_EQ(rec.pre[VarId::SF], 0u);
}

TEST(Derived, CompareOracle)
{
    using isa::Mnemonic;
    EXPECT_EQ(compareOracle(Mnemonic::L_SFEQ, 5, 5), 1u);
    EXPECT_EQ(compareOracle(Mnemonic::L_SFNE, 5, 5), 0u);
    EXPECT_EQ(compareOracle(Mnemonic::L_SFLTU, 0xffffffff, 1), 0u);
    EXPECT_EQ(compareOracle(Mnemonic::L_SFLTS, 0xffffffff, 1), 1u);
    EXPECT_EQ(compareOracle(Mnemonic::L_SFGEU, 7, 7), 1u);
    EXPECT_EQ(compareOracle(Mnemonic::L_SFGTSI, 0x80000000, 0), 0u);
}

TEST(Derived, FlagOkWitnessesCorrectAndWrongFlags)
{
    Record rec;
    rec.point = Point::insn(isa::Mnemonic::L_SFLTU);
    rec.pre[VarId::OPA] = 3;
    rec.pre[VarId::OPB] = 9;
    rec.post[VarId::SR] = (1u << isa::sr::F); // correctly set
    computeDerived(rec);
    EXPECT_EQ(rec.post[VarId::FLAGOK], 1u);

    rec.post[VarId::SR] = 0; // flag wrongly clear
    computeDerived(rec);
    EXPECT_EQ(rec.post[VarId::FLAGOK], 0u);
}

TEST(Derived, MemOkWitnessesLoadExtension)
{
    Record rec;
    rec.point = Point::insn(isa::Mnemonic::L_LBS);
    rec.post[VarId::MEMBUS] = 0xca;
    rec.post[VarId::OPDEST] = 0xffffffca;
    computeDerived(rec);
    EXPECT_EQ(rec.post[VarId::MEMOK], 1u);

    rec.post[VarId::OPDEST] = 0xca; // zero-extended: wrong for lbs
    computeDerived(rec);
    EXPECT_EQ(rec.post[VarId::MEMOK], 0u);
}

TEST(Derived, MemOkWitnessesStoreTruncation)
{
    Record rec;
    rec.point = Point::insn(isa::Mnemonic::L_SB);
    rec.pre[VarId::OPB] = 0x12345678;
    rec.post[VarId::MEMBUS] = 0x78;
    computeDerived(rec);
    EXPECT_EQ(rec.post[VarId::MEMOK], 1u);

    rec.post[VarId::MEMBUS] = 0xf8;
    computeDerived(rec);
    EXPECT_EQ(rec.post[VarId::MEMOK], 0u);
}

TEST(Derived, JumpEffectiveAddress)
{
    Record rec;
    rec.point = Point::insn(isa::Mnemonic::L_J);
    rec.post[VarId::PC] = 0x1000;
    rec.post[VarId::IMM] = uint32_t(-4);
    computeDerived(rec);
    EXPECT_EQ(rec.post[VarId::JEA], 0x0ff0u);
}

TEST(Derived, EffectiveAddressOracle)
{
    Record rec;
    rec.point = Point::insn(isa::Mnemonic::L_LWZ);
    rec.pre[VarId::OPA] = 0x8000;
    rec.post[VarId::IMM] = uint32_t(-8);
    rec.pre[VarId::IMM] = uint32_t(-8);
    computeDerived(rec);
    EXPECT_EQ(rec.post[VarId::EA], 0x7ff8u);
}

TEST(Buffer, Append)
{
    TraceBuffer a, b;
    Record rec;
    rec.index = 1;
    a.record(rec);
    rec.index = 2;
    b.record(rec);
    a.append(b);
    ASSERT_EQ(a.size(), 2u);
    EXPECT_EQ(a.records()[1].index, 2u);
}

} // namespace
} // namespace scif::trace
