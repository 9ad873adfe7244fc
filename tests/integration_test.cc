/**
 * @file
 * End-to-end pipeline tests over the full corpus: the four phases
 * run, the headline results of the paper hold (16 of 17 bugs
 * identified with b2 the only miss, one SCI covering multiple bugs,
 * 12 of 14 held-out bugs detected), and the deployment path
 * produces a small assertion set with Table 9-shaped overhead.
 */

#include <gtest/gtest.h>

#include "analysis/secflow.hh"
#include "core/scifinder.hh"
#include "monitor/overhead.hh"
#include "sci/audit.hh"

namespace scif::core {
namespace {

/** The pipeline runs once; all tests share the result. */
const PipelineResult &
pipeline()
{
    static const PipelineResult result = runPipeline();
    return result;
}

/** The static audit of the full-pipeline result, computed once. */
const sci::AuditReport &
auditReport()
{
    static const sci::AuditReport report =
        sci::audit(pipeline().model, bugs::table1(),
                   &pipeline().database);
    return report;
}

TEST(Pipeline, PhasesProduceOutput)
{
    const auto &r = pipeline();
    EXPECT_GT(r.traceRecords, 20000u);
    EXPECT_GT(r.rawInvariants, 50000u);
    EXPECT_LT(r.model.size(), r.rawInvariants);
    EXPECT_EQ(r.optimizationStats.size(), 4u);
    EXPECT_EQ(r.database.results().size(), 17u);
    EXPECT_GT(r.inference.testAccuracy, 0.7);
    // The security-dataflow semantic prior must be live: some
    // recommended invariants clear only the lowered bar.
    EXPECT_GT(r.inference.semanticRecommended, 0u);
}

TEST(Pipeline, StageItemCountsAreTheProducedSets)
{
    // Each stage counts what it produced: the optimized model, the
    // identified SCI and the inferred SCI. None of them returns a
    // container of those items, so a default count would report the
    // four optimization passes or one result struct instead.
    const auto &r = pipeline();
    ASSERT_EQ(r.stages.size(), 5u);
    EXPECT_EQ(r.stages[1].name, "invariant-generation");
    EXPECT_EQ(r.stages[1].itemsOut, 187607u);
    EXPECT_EQ(r.stages[2].name, "optimization");
    EXPECT_EQ(r.stages[2].itemsIn, 187607u);
    EXPECT_EQ(r.stages[2].itemsOut, 34444u);
    EXPECT_EQ(r.stages[3].name, "identification");
    EXPECT_EQ(r.stages[3].itemsIn, 34444u);
    EXPECT_EQ(r.stages[3].itemsOut, 266u);
    EXPECT_EQ(r.stages[4].name, "inference");
    EXPECT_EQ(r.stages[4].itemsOut, 22698u);
    EXPECT_EQ(r.model.size(), 34444u);
    EXPECT_EQ(r.identifiedSci().size(), 266u);
    EXPECT_EQ(r.inference.inferredSci.size(), 22698u);
}

TEST(Pipeline, SixteenOfSeventeenBugsIdentified)
{
    const auto &r = pipeline();
    int detected = 0;
    for (const auto &res : r.database.results()) {
        if (res.detected())
            ++detected;
        // The paper's one negative result: the b2 pipeline stall is
        // invisible at the ISA level.
        if (res.bugId == "b2")
            EXPECT_TRUE(res.trueSci.empty());
    }
    EXPECT_EQ(detected, 16);
}

TEST(Pipeline, OneSciCanCoverMultipleBugs)
{
    // §5.2: "a single SCI can be identified from different bugs".
    // b6 and b7 both corrupt the compare flag.
    const auto &r = pipeline();
    bool shared = false;
    for (size_t idx : r.database.sciIndices()) {
        if (r.database.provenance(idx).size() >= 2)
            shared = true;
    }
    EXPECT_TRUE(shared);
}

TEST(Pipeline, IdentifiedSciRepresentKeyProperties)
{
    const auto &r = pipeline();
    std::set<std::string> covered;
    for (size_t idx : r.database.sciIndices()) {
        for (const auto &pid :
             sci::matchProperties(r.model.all()[idx]))
            covered.insert(pid);
    }
    // The identification bugs pin down at least the exception,
    // memory, control-flow-flag, and fetch-integrity families.
    for (const char *pid : {"p3", "p12", "p28", "p29", "p11"})
        EXPECT_TRUE(covered.count(pid)) << pid;
}

TEST(Pipeline, InferenceAddsProperties)
{
    const auto &r = pipeline();
    std::set<std::string> fromIdent, fromInfer;
    for (size_t idx : r.database.sciIndices()) {
        for (const auto &pid :
             sci::matchProperties(r.model.all()[idx]))
            fromIdent.insert(pid);
    }
    for (size_t idx : r.inference.inferredSci) {
        for (const auto &pid :
             sci::matchProperties(r.model.all()[idx])) {
            if (!fromIdent.count(pid))
                fromInfer.insert(pid);
        }
    }
    EXPECT_GE(fromInfer.size(), 3u)
        << "inference must cover properties identification missed";
}

TEST(Pipeline, DynamicDetectionMatchesIdentification)
{
    const auto &r = pipeline();
    auto assertions =
        monitor::synthesize(r.model, r.database.sciIndices());
    for (const auto *bug : bugs::table1()) {
        bool expect = false;
        for (const auto &res : r.database.results()) {
            if (res.bugId == bug->id)
                expect = res.detected();
        }
        EXPECT_EQ(detectsDynamically(assertions, *bug), expect)
            << bug->id;
    }
}

TEST(Pipeline, HeldOutDetectionTwelveOfFourteen)
{
    const auto &r = pipeline();
    auto assertions = monitor::synthesize(r.model, r.finalSci());
    int detected = 0;
    for (const auto *bug : bugs::heldOut()) {
        bool d = detectsDynamically(assertions, *bug);
        detected += d;
        // The two microarchitecturally invisible bugs stay hidden.
        if (bug->id == "h13" || bug->id == "h14")
            EXPECT_FALSE(d) << bug->id;
    }
    EXPECT_EQ(detected, 12);
}

TEST(Pipeline, DeploymentShapesLikeTable9)
{
    const auto &r = pipeline();
    auto initial = deployedAssertions(r, r.identifiedSci());
    auto final_set = deployedAssertions(r, r.finalSci());
    EXPECT_GE(initial.size(), 10u);
    EXPECT_LE(initial.size(), 25u);
    EXPECT_GT(final_set.size(), initial.size());
    EXPECT_LE(final_set.size(), 40u);

    auto ohInitial = monitor::estimateOverhead(initial);
    auto ohFinal = monitor::estimateOverhead(final_set);
    EXPECT_LT(ohInitial.logicPct, ohFinal.logicPct);
    EXPECT_LT(ohFinal.logicPct, 10.0);
    EXPECT_LT(ohFinal.powerPct, 1.0);
    EXPECT_EQ(ohFinal.delayPct, 0.0);
}

TEST(Pipeline, StaticAuditIsSoundForEveryTableOneBug)
{
    // The secflow soundness contract: every dynamically identified
    // SCI must be statically reachable from its bug's mutation
    // footprint. An unsound bug means the state graph is missing a
    // real value flow.
    const sci::AuditReport &report = auditReport();
    ASSERT_EQ(report.bugs().size(), 17u);
    for (const sci::BugAudit &a : report.bugs()) {
        EXPECT_TRUE(a.checked) << a.bugId;
        EXPECT_TRUE(a.unsound.empty())
            << a.bugId << ": " << a.unsound.size()
            << " dynamic SCI with no static flow";
    }
    EXPECT_TRUE(report.sound());
}

TEST(Pipeline, StaticTriageBeatsRandomOrdering)
{
    // Rank quality 0.5 = the static order is no better than random;
    // the footprint-distance triage must do measurably better on
    // average, and must not bury any bug's SCI in the far tail.
    const sci::AuditReport &report = auditReport();
    EXPECT_GT(report.meanRankQuality(), 0.55);
    for (const sci::BugAudit &a : report.bugs()) {
        if (!a.checked || a.dynamicSci == 0)
            continue;
        EXPECT_GT(a.rankQuality, 0.25) << a.bugId;
    }
}

TEST(Pipeline, ValidationCorpusIsDeterministic)
{
    auto a = workloads::validationCorpus(3, 99);
    auto b = workloads::validationCorpus(3, 99);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].size(), b[i].size());
        for (size_t j = 0; j < a[i].size(); ++j) {
            EXPECT_EQ(a[i].records()[j].post, b[i].records()[j].post);
        }
    }
}

TEST(Pipeline, ReducedConfigurationRuns)
{
    PipelineConfig config;
    config.workloadNames = {"vmlinux", "basicmath", "twolf"};
    config.bugIds = {"b10", "b6"};
    config.validationPrograms = 4;
    PipelineResult r = runPipeline(config);
    EXPECT_EQ(r.database.results().size(), 2u);
    EXPECT_TRUE(r.database.results()[0].detected());
    EXPECT_TRUE(r.database.results()[1].detected());
}

} // namespace
} // namespace scif::core
