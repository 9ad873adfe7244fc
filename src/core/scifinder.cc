#include "scifinder.hh"

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <memory>

#include "core/artifacts.hh"
#include "support/ioerror.hh"
#include "support/threadpool.hh"
#include "trace/store.hh"

namespace scif::core {

std::vector<size_t>
PipelineResult::finalSci() const
{
    std::vector<size_t> out = database.sciIndices();
    out.insert(out.end(), inference.inferredSci.begin(),
               inference.inferredSci.end());
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

namespace {

/** Resolve the configured workload list to registry entries. */
std::vector<const workloads::Workload *>
resolveWorkloads(const PipelineConfig &config)
{
    std::vector<const workloads::Workload *> list;
    if (config.workloadNames.empty()) {
        for (const auto &w : workloads::all())
            list.push_back(&w);
    } else {
        for (const auto &name : config.workloadNames)
            list.push_back(&workloads::byName(name));
    }
    return list;
}

/** Seed of the simulated expert's validation corpus (§5.7). */
constexpr uint64_t validationSeed = 0x5eed;

/**
 * Whether a phase reads its inputs from the artifact directory: it
 * does when it persists and starts @p result; a later phase of the
 * same run finds them in @p result.
 */
bool
readsInputs(const PipelineConfig &config, const PipelineResult &result)
{
    return !config.artifactDir.empty() && result.stages.empty();
}

/** Load an optimized or raw model artifact that @p producer writes. */
invgen::InvariantSet
loadModel(const std::string &path, const char *producer)
{
    requireArtifact(path, producer);
    return invgen::InvariantSet::loadBinary(path);
}

/** The phase-4 human-readable artifact: the final SCI report. */
void
writeInferenceReport(const std::string &path,
                     const PipelineResult &result)
{
    std::ofstream out(path);
    if (!out) {
        throw support::IoError(
            path, "cannot open '" + path + "' for writing", errno);
    }
    out << "# identified SCI: "
        << result.identifiedSci().size() << "\n";
    out << "# inferred SCI: "
        << result.inference.inferredSci.size() << "\n";
    out << "# test accuracy: " << result.inference.testAccuracy
        << "\n";
    for (size_t idx : result.finalSci())
        out << idx << "\t" << result.model.all()[idx].str() << "\n";
    if (!out)
        throw support::IoError(path, "write to '" + path + "' failed");
}

} // namespace

PipelineResult
runPipeline(const PipelineConfig &config)
{
    PipelineResult result;

    size_t jobs = support::ThreadPool::resolveJobs(config.jobs);
    std::unique_ptr<support::ThreadPool> pool;
    if (jobs > 1)
        pool = std::make_unique<support::ThreadPool>(jobs);

    generatePhase(config, pool.get(), result);
    optimizePhase(config, pool.get(), result);
    identifyPhase(config, pool.get(), result);
    if (config.runInference)
        inferPhase(config, pool.get(), result);

    StageContext ctx(pool.get(), &result.stages);
    result.timing.traceGeneration = ctx.seconds("trace-generation");
    result.timing.invariantGeneration =
        ctx.seconds("invariant-generation");
    result.timing.optimization = ctx.seconds("optimization");
    result.timing.identification = ctx.seconds("identification");
    result.timing.inference = ctx.seconds("inference");
    return result;
}

void
generatePhase(const PipelineConfig &config, support::ThreadPool *pool,
              PipelineResult &result, invgen::GenStats *stats)
{
    StageContext ctx(pool, &result.stages);
    const bool persist = !config.artifactDir.empty();
    ArtifactPaths paths(config.artifactDir);
    if (persist)
        paths.ensureDir();

    // In memory, the predecoded simulation scatters records straight
    // into per-point columns (no AoS intermediate). With an artifact
    // directory, workloads instead seal compressed chunks into the
    // trace set as they simulate, and invariant generation folds the
    // chunks back a window at a time. Both paths produce
    // byte-identical models.
    //
    // The trace stages take the resolved workload list as input, so
    // they count workloads in and traces out.
    using WorkloadList = std::vector<const workloads::Workload *>;
    WorkloadList workloadList = resolveWorkloads(config);
    if (persist) {
        // -- phase 1a: out-of-core trace generation (per workload) --
        Stage<WorkloadList, std::vector<uint64_t>> traceStage(
            "trace-generation",
            [&config, &paths](StageContext &sc, WorkloadList &list) {
                std::vector<std::string> names;
                names.reserve(list.size());
                for (const auto *w : list)
                    names.push_back(w->name);
                return trace::buildTraceSetParallel(
                    paths.traces(), config.traceChunkRecords, names,
                    [&](size_t i, trace::TraceSink &sink) {
                        workloads::runInto(*list[i], {}, &sink);
                    },
                    sc.pool());
            });
        auto counts = traceStage.run(ctx, workloadList);
        for (uint64_t n : counts) {
            result.traceRecords += n;
            result.traceBytes += n * sizeof(trace::Record);
        }

        // -- phase 1b: streaming invariant generation --
        Stage<std::vector<uint64_t>, invgen::InvariantSet> genStage(
            "invariant-generation",
            [&config, &paths, stats](StageContext &sc,
                                     std::vector<uint64_t> &) {
                trace::TraceSetReader reader(paths.traces());
                return invgen::generateStreaming(
                    reader, config.generation, stats, sc.pool());
            });
        result.model = genStage.run(ctx, counts);
    } else {
        // -- phase 1a: columnar trace capture (per workload) --
        Stage<WorkloadList, std::vector<trace::NamedCapture>>
            traceStage(
                "trace-generation",
                [](StageContext &sc, WorkloadList &list) {
                    return support::parallelMap(
                        sc.pool(), list,
                        [](const workloads::Workload *w) {
                            return trace::NamedCapture{
                                w->name, workloads::runColumnar(*w)};
                        });
                });
        auto captures = traceStage.run(ctx, workloadList);
        for (const auto &nc : captures) {
            result.traceRecords += nc.capture.size();
            result.traceBytes +=
                nc.capture.size() * sizeof(trace::Record);
        }

        // -- phase 1b: invariant generation from the sealed columns
        //    (the AoS-to-SoA transpose never happens) --
        Stage<std::vector<trace::NamedCapture>, invgen::InvariantSet>
            genStage("invariant-generation",
                     [&config, stats](StageContext &sc,
                                      std::vector<trace::NamedCapture> &in) {
                         std::vector<const trace::ColumnarCapture *>
                             caps;
                         for (const auto &nc : in)
                             caps.push_back(&nc.capture);
                         return invgen::generate(
                             trace::ColumnarCapture::seal(caps),
                             config.generation, stats, sc.pool());
                     });
        result.model = genStage.run(ctx, captures);
    }
    result.rawInvariants = result.model.size();
    result.rawVariables = result.model.variableCount();
    if (persist)
        result.model.saveBinary(paths.rawModel());
}

void
optimizePhase(const PipelineConfig &config, support::ThreadPool *pool,
              PipelineResult &result)
{
    ArtifactPaths paths(config.artifactDir);
    if (readsInputs(config, result)) {
        result.model = loadModel(paths.rawModel(), "generate");
        result.rawInvariants = result.model.size();
        result.rawVariables = result.model.variableCount();
    }

    // The optimizer rewrites the model in place.
    StageContext ctx(pool, &result.stages);
    Stage<invgen::InvariantSet, std::vector<opt::PassStats>> optStage(
        "optimization",
        [](StageContext &, invgen::InvariantSet &m) {
            return opt::optimize(m);
        },
        [](const invgen::InvariantSet &m, const auto &) {
            return uint64_t(m.size());
        });
    result.optimizationStats = optStage.run(ctx, result.model);
    if (!config.artifactDir.empty())
        result.model.saveBinary(paths.model());
}

void
identifyPhase(const PipelineConfig &config, support::ThreadPool *pool,
              PipelineResult &result)
{
    const bool persist = !config.artifactDir.empty();
    ArtifactPaths paths(config.artifactDir);
    if (readsInputs(config, result))
        result.model = loadModel(paths.model(), "optimize");

    // Fans out per bug, with the simulated expert's validation corpus
    // fanned out per program.
    struct IdentOutput
    {
        std::set<size_t> violations;
        sci::SciDatabase db;
    };
    StageContext ctx(pool, &result.stages);
    Stage<invgen::InvariantSet, IdentOutput> identStage(
        "identification",
        [&config, persist, &paths](StageContext &sc,
                                   invgen::InvariantSet &model) {
            IdentOutput out;
            // Compile the model once for both the validation-corpus
            // scan and the per-bug identification sweeps.
            sci::CompiledModel compiled(model);
            if (persist) {
                // Stream the simulated expert's corpus through the
                // trace store: each random program seals compressed
                // chunks as it runs, then the scan decodes them a
                // chunk at a time. Same violation set as the
                // in-memory corpus scan.
                workloads::validationCorpusToStore(
                    paths.validation(), config.validationPrograms,
                    validationSeed, sc.pool(), config.traceChunkRecords);
                trace::TraceSetReader validation(paths.validation());
                out.violations = sci::corpusViolations(
                    compiled, validation, sc.pool());
            } else {
                auto validation = workloads::validationCorpus(
                    config.validationPrograms, validationSeed,
                    sc.pool());
                out.violations = sci::corpusViolations(
                    compiled, validation, sc.pool());
            }
            out.db = sci::identifyAll(compiled,
                                      bugs::resolve(config.bugIds),
                                      out.violations, sc.pool());
            return out;
        },
        [](const auto &, const IdentOutput &out) {
            return uint64_t(out.db.sciIndices().size());
        });
    IdentOutput ident = identStage.run(ctx, result.model);
    result.validationViolations = std::move(ident.violations);
    result.database = std::move(ident.db);
    if (persist) {
        saveIndexSet(paths.violations(), result.validationViolations);
        result.database.saveBinary(paths.sciDatabase());
    }
}

void
inferPhase(const PipelineConfig &config, support::ThreadPool *pool,
           PipelineResult &result)
{
    ArtifactPaths paths(config.artifactDir);
    if (readsInputs(config, result)) {
        requireArtifact(paths.model(), "optimize");
        requireArtifact(paths.violations(), "identify");
        requireArtifact(paths.sciDatabase(), "identify");
        result.model = invgen::InvariantSet::loadBinary(paths.model());
        result.validationViolations =
            loadIndexSet(paths.violations(), result.model.size());
        result.database = sci::SciDatabase::loadBinary(
            paths.sciDatabase(), result.model.size());
    }

    StageContext ctx(pool, &result.stages);
    Stage<invgen::InvariantSet, sci::InferenceResult> inferStage(
        "inference",
        [&config, &result](StageContext &sc,
                           invgen::InvariantSet &model) {
            return sci::infer(model, result.database,
                              result.validationViolations,
                              config.inference, sc.pool());
        },
        [](const auto &, const sci::InferenceResult &inferred) {
            return uint64_t(inferred.inferredSci.size());
        });
    result.inference = inferStage.run(ctx, result.model);
    if (!config.artifactDir.empty())
        writeInferenceReport(paths.inference(), result);
}

std::vector<monitor::Assertion>
deployedAssertions(const PipelineResult &result,
                   const std::vector<size_t> &sci)
{
    // Bucket the SCI by the catalog property they represent; SCI
    // representing no recognizable security property stay undeployed
    // (the expert's production-use judgment, §3.5).
    std::map<std::string, std::vector<size_t>> byProperty;
    for (size_t idx : sci) {
        for (const auto &pid :
             sci::matchProperties(result.model.all()[idx])) {
            byProperty[pid].push_back(idx);
        }
    }

    std::vector<monitor::Assertion> deployed;
    for (const auto &[pid, members] : byProperty) {
        // One assertion per property: synthesize over the members
        // and merge into a single checker whose representative is
        // the most instantiated expression.
        auto parts = monitor::synthesize(result.model, members);
        monitor::Assertion merged;
        size_t best = 0;
        for (const auto &p : parts) {
            if (p.members.size() > best) {
                best = p.members.size();
                merged.representative = p.representative;
                merged.kind = p.kind;
            }
            merged.members.insert(merged.members.end(),
                                  p.members.begin(), p.members.end());
        }
        merged.name = pid;
        deployed.push_back(std::move(merged));
    }
    return deployed;
}

namespace {

/** Distinct assertions that fire when running @p bug's trigger. */
std::set<size_t>
firingsOn(const std::vector<monitor::Assertion> &assertions,
          const bugs::Bug &bug, bool buggy)
{
    monitor::AssertionMonitor mon(assertions);
    cpu::CpuConfig config = bug.config;
    if (buggy)
        config.mutations.add(bug.mutation);
    cpu::Cpu cpu(config);
    cpu.loadProgram(assembler::assembleOrDie(bug.trigger));
    cpu.run(&mon);
    auto fired = mon.firedAssertions();
    return std::set<size_t>(fired.begin(), fired.end());
}

} // namespace

bool
detectsDynamically(const std::vector<monitor::Assertion> &assertions,
                   const bugs::Bug &bug)
{
    std::set<size_t> buggy = firingsOn(assertions, bug, true);
    if (buggy.empty())
        return false;
    std::set<size_t> clean = firingsOn(assertions, bug, false);
    for (size_t a : buggy) {
        if (!clean.count(a))
            return true;
    }
    return false;
}

} // namespace scif::core
