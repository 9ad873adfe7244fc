/**
 * @file
 * The parallel pipeline's central contract: for any --jobs value the
 * output is byte-identical to the serial run. Every intra-stage
 * fan-out (per workload, per program point, per bug, per validation
 * program) merges deterministically, so running the reduced corpus at
 * 1 and at 4 threads must produce the same invariant model, the same
 * SCI database, and the same inference labels.
 */

#include <gtest/gtest.h>

#include "analysis/analyzer.hh"
#include "core/scifinder.hh"
#include "support/threadpool.hh"

namespace scif {
namespace {

/** The reduced corpus of the integration tests: fast, non-trivial. */
core::PipelineConfig
reducedConfig(size_t jobs)
{
    core::PipelineConfig config;
    config.workloadNames = {"vmlinux", "basicmath", "twolf"};
    config.bugIds = {"b10", "b6"};
    config.validationPrograms = 4;
    config.jobs = jobs;
    return config;
}

void
expectIdenticalResults(const core::PipelineResult &serial,
                       const core::PipelineResult &parallel)
{
    // Phase 1+2: the optimized invariant model, including insertion
    // order (indices into all() identify invariants everywhere else).
    ASSERT_EQ(parallel.model.size(), serial.model.size());
    for (size_t i = 0; i < serial.model.size(); ++i) {
        EXPECT_EQ(parallel.model.all()[i].str(),
                  serial.model.all()[i].str());
    }
    EXPECT_EQ(parallel.rawInvariants, serial.rawInvariants);
    EXPECT_EQ(parallel.rawVariables, serial.rawVariables);
    EXPECT_EQ(parallel.traceRecords, serial.traceRecords);
    EXPECT_EQ(parallel.traceBytes, serial.traceBytes);

    // Phase 3: the validation violations and the SCI database.
    EXPECT_EQ(parallel.validationViolations,
              serial.validationViolations);
    EXPECT_EQ(parallel.database.sciIndices(),
              serial.database.sciIndices());
    EXPECT_EQ(parallel.database.nonSciIndices(),
              serial.database.nonSciIndices());
    ASSERT_EQ(parallel.database.results().size(),
              serial.database.results().size());
    for (size_t i = 0; i < serial.database.results().size(); ++i) {
        const auto &s = serial.database.results()[i];
        const auto &p = parallel.database.results()[i];
        EXPECT_EQ(p.bugId, s.bugId);
        EXPECT_EQ(p.trueSci, s.trueSci);
        EXPECT_EQ(p.falsePositives, s.falsePositives);
        EXPECT_EQ(p.notInvariant, s.notInvariant);
    }

    // Phase 4: the fitted model (exact bits: the CV folds run on the
    // pool), inference labels and the final SCI set.
    EXPECT_EQ(parallel.inference.model.beta, serial.inference.model.beta);
    EXPECT_EQ(parallel.inference.model.intercept,
              serial.inference.model.intercept);
    EXPECT_EQ(parallel.inference.model.lambda,
              serial.inference.model.lambda);
    EXPECT_EQ(parallel.inference.testAccuracy,
              serial.inference.testAccuracy);
    EXPECT_EQ(parallel.inference.labeledSci,
              serial.inference.labeledSci);
    EXPECT_EQ(parallel.inference.labeledNonSci,
              serial.inference.labeledNonSci);
    EXPECT_EQ(parallel.inference.recommended,
              serial.inference.recommended);
    EXPECT_EQ(parallel.inference.inferredSci,
              serial.inference.inferredSci);
    EXPECT_EQ(parallel.finalSci(), serial.finalSci());
}

TEST(PipelineDeterminism, FourJobsMatchesSerial)
{
    auto serial = core::runPipeline(reducedConfig(1));
    auto parallel = core::runPipeline(reducedConfig(4));
    expectIdenticalResults(serial, parallel);
}

TEST(PipelineDeterminism, AllHardwareThreadsMatchesSerial)
{
    // jobs = 0 resolves to the hardware thread count; on a
    // single-core host this still exercises the pool code path
    // (resolveJobs(0) >= 1 and the fan-outs run through
    // parallelFor's claiming loop).
    if (support::ThreadPool::resolveJobs(0) == 1)
        GTEST_SKIP() << "single hardware thread";
    auto serial = core::runPipeline(reducedConfig(1));
    auto parallel = core::runPipeline(reducedConfig(0));
    expectIdenticalResults(serial, parallel);
}

TEST(PipelineDeterminism, AnalyzeReportMatchesSerial)
{
    // The 'scifinder analyze' report contract: byte-identical output
    // for any --jobs value over the same optimized model.
    auto result = core::runPipeline(reducedConfig(1));
    std::string serial =
        analysis::analyze(result.model.all()).render();

    support::ThreadPool four(4);
    EXPECT_EQ(analysis::analyze(result.model.all(), &four).render(),
              serial);
    support::ThreadPool all(support::ThreadPool::resolveJobs(0));
    EXPECT_EQ(analysis::analyze(result.model.all(), &all).render(),
              serial);
}

TEST(PipelineDeterminism, StageStatsRecorded)
{
    auto result = core::runPipeline(reducedConfig(2));
    ASSERT_EQ(result.stages.size(), 5u);
    EXPECT_EQ(result.stages[0].name, "trace-generation");
    EXPECT_EQ(result.stages[0].itemsIn, 3u); // three workloads
    EXPECT_EQ(result.stages[0].itemsOut, 3u); // one trace each
    EXPECT_EQ(result.stages[1].name, "invariant-generation");
    EXPECT_EQ(result.stages[1].itemsIn, 3u);
    EXPECT_EQ(result.stages[2].name, "optimization");
    EXPECT_EQ(result.stages[2].itemsOut, result.model.size());
    EXPECT_EQ(result.stages[3].name, "identification");
    EXPECT_EQ(result.stages[3].itemsOut, result.identifiedSci().size());
    EXPECT_EQ(result.stages[4].name, "inference");
    EXPECT_EQ(result.stages[4].itemsOut,
              result.inference.inferredSci.size());
    for (const auto &s : result.stages)
        EXPECT_GE(s.seconds, 0.0);
}

} // namespace
} // namespace scif
