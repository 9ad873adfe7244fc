/**
 * @file
 * SCI-layer tests: violation scanning, the identification
 * differential (buggy vs clean vs validation), the SCI database, the
 * property catalog and matchers, and property grouping.
 */

#include <gtest/gtest.h>

#include "sci/identify.hh"
#include "sci/infer.hh"
#include "sci/properties.hh"

namespace scif::sci {
namespace {

using expr::Invariant;

trace::Record
recordAt(const char *point)
{
    trace::Record rec;
    rec.point = trace::Point::parse(point);
    return rec;
}

TEST(FindViolations, FlagsOnlyViolatedInvariants)
{
    invgen::InvariantSet set;
    set.add(Invariant::parse("l.add -> GPR0 == 0"));
    set.add(Invariant::parse("l.add -> OPDEST == 5"));
    set.add(Invariant::parse("l.sub -> GPR0 == 0"));

    trace::TraceBuffer buf;
    trace::Record rec = recordAt("l.add");
    rec.post[trace::VarId::OPDEST] = 7; // violates the second
    buf.record(rec);

    auto violated = findViolations(set, buf);
    ASSERT_EQ(violated.size(), 1u);
    EXPECT_EQ(set.all()[violated[0]].str(), "l.add -> OPDEST == 5");
}

TEST(FindViolations, ReportsEachInvariantOnce)
{
    invgen::InvariantSet set;
    set.add(Invariant::parse("l.add -> OPDEST == 5"));
    trace::TraceBuffer buf;
    for (int i = 0; i < 10; ++i) {
        trace::Record rec = recordAt("l.add");
        rec.post[trace::VarId::OPDEST] = 7;
        buf.record(rec);
    }
    EXPECT_EQ(findViolations(set, buf).size(), 1u);
}

TEST(Database, TracksProvenanceAndLabels)
{
    SciDatabase db;
    IdentificationResult r1;
    r1.bugId = "b1";
    r1.trueSci = {3, 5};
    r1.falsePositives = {7};
    db.addResult(r1);

    IdentificationResult r2;
    r2.bugId = "b2";
    r2.trueSci = {5};
    r2.falsePositives = {3, 9}; // 3 is already SCI: stays SCI
    db.addResult(r2);

    EXPECT_EQ(db.sciIndices(), (std::vector<size_t>{3, 5}));
    EXPECT_EQ(db.nonSciIndices(), (std::vector<size_t>{7, 9}));
    EXPECT_TRUE(db.isSci(5));
    EXPECT_FALSE(db.isSci(7));
    EXPECT_EQ(db.provenance(5),
              (std::vector<std::string>{"b1", "b2"}));
    EXPECT_TRUE(db.provenance(42).empty());
}

TEST(Catalog, ThirtyPropertiesWithExpectedScoping)
{
    const auto &cat = catalog();
    ASSERT_EQ(cat.size(), 30u);

    // Off-core and microarchitectural exclusions match Table 6.
    EXPECT_EQ(propertyById("p18").expressibility,
              Expressibility::Microarch);
    EXPECT_EQ(propertyById("p24").expressibility,
              Expressibility::Microarch);
    for (const char *id : {"p25", "p26", "p27"}) {
        EXPECT_EQ(propertyById(id).expressibility,
                  Expressibility::OffCore);
    }
    for (const char *id : {"p10", "p22"}) {
        EXPECT_EQ(propertyById(id).expressibility,
                  Expressibility::NotGenerated);
    }

    // The three new properties are flagged as ours.
    for (const char *id : {"p28", "p29", "p30"})
        EXPECT_EQ(propertyById(id).origin, "new");

    // Every expressible property has a matcher.
    for (const auto &p : cat) {
        if (p.expressibility == Expressibility::Yes) {
            EXPECT_TRUE(bool(p.matches)) << p.id;
        }
    }
}

struct MatchCase
{
    const char *invariant;
    const char *property;
};

// Without a printer gtest names each case by the raw bytes of its two
// pointers, which differ on every run under ASLR; print the property
// id so the listed test names stay the same from build to build.
void
PrintTo(const MatchCase &c, std::ostream *os)
{
    *os << c.property;
}

class Matchers : public ::testing::TestWithParam<MatchCase>
{
};

TEST_P(Matchers, RepresentativeInvariantMatches)
{
    auto inv = Invariant::parse(GetParam().invariant);
    auto matched = matchProperties(inv);
    EXPECT_TRUE(std::find(matched.begin(), matched.end(),
                          GetParam().property) != matched.end())
        << GetParam().invariant << " should match "
        << GetParam().property;
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, Matchers,
    ::testing::Values(
        MatchCase{"l.lwz@data-page-fault -> orig(SM) == 0", "p1"},
        MatchCase{"l.mtspr -> SPRV == orig(OPB)", "p2"},
        MatchCase{"l.add@range -> EPCR0 == PC", "p3"},
        MatchCase{"l.macrc -> OPDEST == GPR3", "p4"},
        MatchCase{"l.sb -> MEMOK == 1", "p5"},
        MatchCase{"l.lbs -> MEMOK == 1", "p6"},
        MatchCase{"l.lwz -> MEMBUS == DMEM", "p6"},
        MatchCase{"l.lwz -> MEMADDR == (IMM + orig(OPA))", "p7"},
        MatchCase{"l.sys@syscall -> SM == 1", "p8"},
        MatchCase{"l.rfe -> SR == orig(ESR0)", "p9"},
        MatchCase{"l.jal -> GPR9 == PC + 8", "p11"},
        MatchCase{"l.jalr -> GPR9 == PC + 8", "p11"},
        MatchCase{"l.sw -> IMEM == INSN", "p12"},
        MatchCase{"l.sys@syscall -> NPC == 0xc00", "p13"},
        MatchCase{"l.rfe -> NPC == orig(EPCR0)", "p14"},
        MatchCase{"l.j@syscall -> EPCR0 != PC", "p14"},
        MatchCase{"l.sfeq -> GPR7 == orig(GPR7)", "p15"},
        MatchCase{"l.add -> SR != OPDEST", "p16"},
        MatchCase{"l.sys@syscall -> NPC == 0xc00", "p17"},
        MatchCase{"l.mtspr -> SM == 1", "p19"},
        MatchCase{"l.add -> SM == orig(SM)", "p20"},
        MatchCase{"l.sys@syscall -> ESR0 == orig(SR)", "p21"},
        MatchCase{"l.trap@trap -> NPC == 0xe00", "p23"},
        MatchCase{"l.sfltu -> FLAGOK == 1", "p28"},
        MatchCase{"l.extws -> OPDEST == orig(OPA)", "p29"},
        MatchCase{"l.add -> GPR0 == 0", "p29"},
        MatchCase{"l.lbz -> GPR9 == orig(GPR9)", "p30"}),
    [](const ::testing::TestParamInfo<MatchCase> &info) {
        return std::string(info.param.property) + "_" +
               std::to_string(info.index);
    });

TEST(Catalog, NegativeCases)
{
    // p28 is specifically about compare instructions.
    auto inv = Invariant::parse("l.add -> FLAGOK == 1");
    auto matched = matchProperties(inv);
    EXPECT_TRUE(std::find(matched.begin(), matched.end(), "p28") ==
                matched.end());

    // p30 excludes the link-writing jumps themselves.
    inv = Invariant::parse("l.jal -> GPR9 == orig(GPR9)");
    matched = matchProperties(inv);
    EXPECT_TRUE(std::find(matched.begin(), matched.end(), "p30") ==
                matched.end());

    // A plain data invariant represents nothing.
    inv = Invariant::parse("l.add -> GPR5 != GPR6");
    EXPECT_TRUE(matchProperties(inv).empty());
}

TEST(Grouping, AbstractsPointsAndConstants)
{
    invgen::InvariantSet set;
    set.add(Invariant::parse("l.add -> GPR0 == 0"));
    set.add(Invariant::parse("l.sub -> GPR0 == 0"));
    set.add(Invariant::parse("l.sys@syscall -> NPC == 0xc00"));
    set.add(Invariant::parse("l.trap@trap -> NPC == 0xe00"));
    set.add(Invariant::parse("l.rfe -> SR == orig(ESR0)"));

    std::vector<size_t> all = {0, 1, 2, 3, 4};
    auto groups = groupIntoProperties(set, all);

    // GPR0==0 groups across points; the NPC vector constants group
    // across exceptions only when the qualifier matches.
    EXPECT_EQ(groups.size(), 4u);
}

} // namespace
} // namespace scif::sci
