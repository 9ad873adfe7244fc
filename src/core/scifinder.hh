/**
 * @file
 * SCIFinder: the end-to-end tool chain facade (paper Figure 1).
 *
 * Phases: (1) invariant generation from the training workloads,
 * (2) optimization, (3) SCI identification from the security errata,
 * (4) SCI inference with the elastic-net model. The facade also
 * exposes assertion deployment (the §3.5 expert step selecting
 * production assertions) and dynamic-detection checks used by the
 * evaluation benches.
 */

#ifndef SCIFINDER_CORE_SCIFINDER_HH
#define SCIFINDER_CORE_SCIFINDER_HH

#include <string>
#include <vector>

#include "bugs/registry.hh"
#include "core/stage.hh"
#include "invgen/invgen.hh"
#include "monitor/assertion.hh"
#include "opt/passes.hh"
#include "sci/identify.hh"
#include "sci/infer.hh"
#include "sci/properties.hh"
#include "trace/store.hh"
#include "workloads/workloads.hh"

namespace scif::core {

/** Pipeline configuration; the defaults reproduce the paper's run. */
struct PipelineConfig
{
    invgen::Config generation;
    sci::InferConfig inference;

    /** Training workloads (empty = the full 17-program suite). */
    std::vector<std::string> workloadNames;

    /** Identification bugs (empty = the 17 of Table 1). */
    std::vector<std::string> bugIds;

    /** Validation corpus size (the simulated expert, §5.7). */
    size_t validationPrograms = 24;

    /** Skip phase 4 (used by ablations). */
    bool runInference = true;

    /**
     * Run every simulation on the interpreted (non-predecoded) front
     * end with AoS record buffering and the post-hoc columnar
     * transpose — the differential oracle for the default predecoded
     * + capture-time-columnar fast path. Artifacts are byte-identical
     * either way.
     */
    bool interpretedSim = false;

    /**
     * Worker threads for the intra-stage fan-outs (per workload, per
     * program point, per bug, per cross-validation fold). 1 = serial;
     * 0 = all hardware threads.
     * Every fan-out merges deterministically, so the results are
     * byte-identical for any value.
     */
    size_t jobs = 1;

    /**
     * When non-empty, each stage persists its output artifact here
     * (see core/artifacts.hh), enabling single-phase re-runs via the
     * scifinder subcommands. Persisting also switches trace handling
     * to the out-of-core path: simulations seal compressed chunks as
     * they run and the downstream phases stream them back a chunk at
     * a time, so resident trace memory is O(chunk x jobs) instead of
     * the whole corpus. Models and artifacts are byte-identical to
     * the in-memory run.
     */
    std::string artifactDir;

    /** Records per chunk of the persisted trace sets. */
    uint32_t traceChunkRecords = trace::defaultChunkRecords;
};

/** Wall-clock seconds per phase (Table 8). */
struct PhaseTiming
{
    double traceGeneration = 0;
    double invariantGeneration = 0;
    double optimization = 0;
    double identification = 0;
    double inference = 0;
};

/** Everything the pipeline produces. */
struct PipelineResult
{
    /** The optimized invariant model. */
    invgen::InvariantSet model;

    size_t rawInvariants = 0;
    size_t rawVariables = 0;
    std::vector<opt::PassStats> optimizationStats;

    uint64_t traceRecords = 0;
    uint64_t traceBytes = 0;

    sci::SciDatabase database;
    std::set<size_t> validationViolations;
    sci::InferenceResult inference;
    PhaseTiming timing;

    /** Per-stage accounting in execution order (wall-clock seconds
     *  plus input/output item counts); timing is derived from it. */
    std::vector<StageStats> stages;

    /** SCI identified from the errata (phase 3). */
    std::vector<size_t> identifiedSci() const
    {
        return database.sciIndices();
    }

    /** Identified plus inferred SCI (the final set). */
    std::vector<size_t> finalSci() const;
};

/** Run the full pipeline: the four phases below, in order, on one
 *  result and one worker pool. */
PipelineResult runPipeline(const PipelineConfig &config =
                               PipelineConfig());

/**
 * The four phases, one function each. runPipeline() runs them in
 * order; the scifinder subcommands generate, optimize, identify and
 * infer run one each over an artifact directory.
 *
 * Each phase records its stages in @p result and leaves its output
 * there. With config.artifactDir set, it also owns its artifact
 * contract (the files are listed in core/artifacts.hh): it writes its
 * output files, and when it starts @p result (no stage recorded yet)
 * it first reads its inputs from the directory, throwing
 * MissingArtifact if one is not there; a later phase of the same run
 * takes them from @p result instead. @p pool (null = serial) carries
 * the phase's fan-outs.
 */

/** Phase 1: simulate the workloads (traces.bin) and infer the raw
 *  model (invariants.raw.bin); @p stats, if given, receives the
 *  generator's counts. */
void generatePhase(const PipelineConfig &config,
                   support::ThreadPool *pool, PipelineResult &result,
                   invgen::GenStats *stats = nullptr);

/** Phase 2: optimize the raw model into invariants.bin. */
void optimizePhase(const PipelineConfig &config,
                   support::ThreadPool *pool, PipelineResult &result);

/** Phase 3: scan the validation corpus (validation.bin, seed 0x5eed)
 *  and identify the SCI of the configured bugs (violations.bin,
 *  scidb.bin); @p triage, if given, receives one static-triage
 *  report per bug. */
void identifyPhase(const PipelineConfig &config,
                   support::ThreadPool *pool, PipelineResult &result,
                   std::vector<sci::TriageReport> *triage = nullptr);

/** Phase 4: infer further SCI and report the final set
 *  (inference.txt). */
void inferPhase(const PipelineConfig &config, support::ThreadPool *pool,
                PipelineResult &result);

/**
 * The §3.5 deployment step: an expert distills the SCI into one
 * synthesizable assertion per represented security property (the
 * paper deploys 14 identification assertions and 33 final ones the
 * same way). Each deployed assertion carries every matching SCI as
 * a member, so enforcing it checks the property at all its points.
 */
std::vector<monitor::Assertion>
deployedAssertions(const PipelineResult &result,
                   const std::vector<size_t> &sci);

/**
 * Dynamic-verification check: run @p bug's trigger on the buggy and
 * on the clean processor under the assertion monitor.
 *
 * @return true if some assertion fires on the buggy run that stays
 *         quiet on the clean run (a firing on both is a false alarm
 *         of the assertion set, not a detection).
 */
bool detectsDynamically(const std::vector<monitor::Assertion> &assertions,
                        const bugs::Bug &bug);

} // namespace scif::core

#endif // SCIFINDER_CORE_SCIFINDER_HH
