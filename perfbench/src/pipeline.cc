/**
 * @file
 * Workload `pipeline`: the whole in-memory SCIFinder run on the paper
 * corpus, as `scifinder run --jobs 4` performs it — core::runPipeline
 * followed by the deployment step and its overhead estimate.
 *
 * The traced operation makes the same public calls runPipeline makes
 * on its default in-memory path, one span per call, and must produce
 * the same SCI sets. The oracle is the seed-commit result: raw and
 * optimized invariant counts and digests of the SCI database and of
 * the final SCI set. Table 3 keeps b2 at zero SCI.
 */

#include <cinttypes>
#include <cstdio>

#include "asm/assembler.hh"
#include "bench.hh"
#include "core/scifinder.hh"
#include "monitor/overhead.hh"
#include "support/threadpool.hh"
#include "tracer.hh"

namespace perfbench {
namespace {

using namespace scif;

/** The seed commit's pipeline output (Release, any --jobs). */
constexpr size_t kRawInvariants = 187607;
constexpr size_t kOptimizedInvariants = 34444;
constexpr uint64_t kDatabaseDigest = 0x7da370f250ef3e52ull;
constexpr uint64_t kFinalSciDigest = 0x89aac4a25a421724ull;

/** Digest of every per-bug identification row, in bug order. */
uint64_t
databaseDigest(const sci::SciDatabase &db)
{
    std::string text;
    auto list = [&text](const char *tag, const std::vector<size_t> &v) {
        text += tag;
        for (size_t i : v) {
            text += ' ';
            text += std::to_string(i);
        }
        text += "\n";
    };
    for (const auto &r : db.results()) {
        text += r.bugId + "\n";
        list("sci", r.trueSci);
        list("fp", r.falsePositives);
        list("ni", r.notInvariant);
    }
    return fnv1a(text);
}

/** Digest of the final SCI set: index and text of each member. */
uint64_t
finalSciDigest(const core::PipelineResult &r)
{
    std::string text;
    for (size_t idx : r.finalSci())
        text += std::to_string(idx) + "\t" + r.model.all()[idx].str() + "\n";
    return fnv1a(text);
}

class Pipeline : public Workload
{
  public:
    void setup() override
    {
        // The operation's inputs: the training corpus, the Table 1
        // bug triggers and the simulated expert's validation
        // programs, each assembled once.
        for (const auto &w : workloads::all())
            assembler::assembleOrDie(w.source);
        for (const auto *b : bugs::table1())
            assembler::assembleOrDie(b->trigger);
        for (const auto &w :
             workloads::validationPrograms(config_.validationPrograms))
            assembler::assembleOrDie(w.source);
        config_.jobs = kJobs;
    }

    void reference() override {}

    void operate(bool traced) override
    {
        {
            Span span("bench.release");
            result_ = {};
            deployed_ = {};
        }
        result_ = traced ? tracedPipeline() : core::runPipeline(config_);
        Span span("core.deploy");
        deployed_ = core::deployedAssertions(result_, result_.finalSci());
        overhead_ = monitor::estimateOverhead(deployed_);
    }

    bool check(std::string &why) override
    {
        char buf[256];
        uint64_t db = databaseDigest(result_.database);
        uint64_t fin = finalSciDigest(result_);
        bool b2Clean = false;
        for (const auto &r : result_.database.results()) {
            if (r.bugId == "b2")
                b2Clean = r.trueSci.empty();
        }
        std::snprintf(buf, sizeof buf,
                      "raw %zu, optimized %zu, db %016" PRIx64
                      ", final %016" PRIx64 ", b2 %s, %zu assertions",
                      result_.rawInvariants, result_.model.size(), db, fin,
                      b2Clean ? "clean" : "NOT clean", deployed_.size());
        why = buf;
        return result_.rawInvariants == kRawInvariants &&
               result_.model.size() == kOptimizedInvariants &&
               db == kDatabaseDigest && fin == kFinalSciDigest &&
               b2Clean && !deployed_.empty() && overhead_.luts > 0;
    }

    uint64_t events() const override { return result_.traceRecords; }

    void counters(std::map<std::string, double> &out) const override
    {
        out["cpu.records"] = double(result_.traceRecords);
        out["invgen.raw_invariants"] = double(result_.rawInvariants);
        out["invgen.fused_members"] = double(gen_.candidatesTried);
        out["invgen.deduped_members"] = double(gen_.candidatesDeduped);
        static const char *const after[] = {
            "opt.invariants_after_cp", "opt.invariants_after_dr",
            "opt.invariants_after_er", "opt.invariants_after_vr"};
        for (size_t i = 0; i < result_.optimizationStats.size(); ++i)
            out[after[i]] =
                double(result_.optimizationStats[i].invariantsAfter);
        out["sci.identified"] = double(result_.identifiedSci().size());
    }

  private:
    /** runPipeline's default in-memory path, one span per call. */
    core::PipelineResult tracedPipeline()
    {
        core::PipelineResult r;
        std::unique_ptr<support::ThreadPool> pool;
        {
            Span span("support.pool_start");
            pool = std::make_unique<support::ThreadPool>(kJobs);
        }
        std::vector<trace::NamedCapture> captures;
        {
            Span span("cpu.simulate");
            std::vector<const workloads::Workload *> list;
            for (const auto &w : workloads::all())
                list.push_back(&w);
            captures = support::parallelMap(
                pool.get(), list, [](const workloads::Workload *w) {
                    Span inner("cpu.run_columnar");
                    return trace::NamedCapture{w->name,
                                               workloads::runColumnar(*w)};
                });
        }
        for (const auto &nc : captures) {
            r.traceRecords += nc.capture.size();
            r.traceBytes += nc.capture.size() * sizeof(trace::Record);
        }
        trace::ColumnSet cols;
        {
            Span span("trace.seal");
            std::vector<const trace::ColumnarCapture *> caps;
            for (const auto &nc : captures)
                caps.push_back(&nc.capture);
            cols = trace::ColumnarCapture::seal(caps);
        }
        {
            Span span("invgen.generate");
            r.model = invgen::generate(std::move(cols), config_.generation,
                                       &gen_, pool.get());
        }
        r.rawInvariants = r.model.size();
        r.rawVariables = r.model.variableCount();
        {
            Span span("invgen.set_copy");
            invs_ = r.model.all();
        }
        {
            Span span("opt.cp");
            r.optimizationStats.push_back(opt::constantPropagation(invs_));
        }
        {
            Span span("opt.dr");
            r.optimizationStats.push_back(opt::deducibleRemoval(invs_));
        }
        {
            Span span("opt.er");
            r.optimizationStats.push_back(opt::equivalenceRemoval(invs_));
        }
        {
            Span span("opt.vr");
            r.optimizationStats.push_back(opt::vacuityRemoval(invs_));
        }
        {
            Span span("invgen.set_assign");
            r.model.assign(std::move(invs_));
        }
        std::unique_ptr<sci::CompiledModel> compiled;
        {
            Span span("sci.compile");
            compiled = std::make_unique<sci::CompiledModel>(r.model);
        }
        std::vector<trace::TraceBuffer> validation;
        {
            Span span("sci.validation");
            validation = workloads::validationCorpus(
                config_.validationPrograms, 0x5eed, pool.get());
        }
        {
            Span span("sci.corpus_scan");
            r.validationViolations =
                sci::corpusViolations(*compiled, validation, pool.get());
        }
        {
            Span span("sci.identify_all");
            r.database = sci::identifyAll(*compiled, bugs::table1(),
                                          r.validationViolations,
                                          pool.get());
        }
        {
            Span span("sci.infer");
            r.inference = sci::infer(r.model, r.database,
                                     r.validationViolations,
                                     config_.inference);
        }
        {
            Span span("bench.release");
            validation = {};
            compiled.reset();
            captures = {};
            pool.reset();
        }
        return r;
    }

    core::PipelineConfig config_;
    core::PipelineResult result_;
    std::vector<expr::Invariant> invs_;
    invgen::GenStats gen_;
    std::vector<monitor::Assertion> deployed_;
    monitor::Overhead overhead_;
};

} // namespace

std::unique_ptr<Workload>
makePipeline(const Options &)
{
    return std::make_unique<Pipeline>();
}

} // namespace perfbench
