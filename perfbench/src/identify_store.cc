/**
 * @file
 * Workload `identify-store`: phase 3 re-run out of core, the step a
 * user repeats when a new erratum arrives. Set-up trains and saves the
 * optimized model once; each operation loads it, compiles it, streams
 * a seeded 1,024-program validation corpus into an SCT2 trace set,
 * scans that set for violations, identifies the Table 1 SCI and saves
 * the database.
 *
 * The oracle is the in-memory path for the same seed
 * (workloads::validationCorpus + sci::corpusViolations +
 * sci::identifyAll): the violation set and the saved database bytes
 * must match it. The traced run's probe times simulation, encoding
 * and decoding on their own and checks that the probe's store is
 * byte-identical to the operation's.
 */

#include <filesystem>

#include "bench.hh"
#include "core/scifinder.hh"
#include "support/threadpool.hh"
#include "trace/store.hh"
#include "tracer.hh"

namespace perfbench {
namespace {

using namespace scif;

constexpr size_t kPrograms = 1024;
constexpr size_t kOracleBatch = 128;
static_assert(kPrograms % kOracleBatch == 0);

class IdentifyStore : public Workload
{
  public:
    explicit IdentifyStore(const Options &options)
        : validationSeed_(deriveSeed(options.seed, 1)),
          modelPath_(options.workDir + "/invariants.bin"),
          storePath_(options.workDir + "/validation.sct"),
          probePath_(options.workDir + "/probe.sct"),
          dbPath_(options.workDir + "/sci.bin"),
          refDbPath_(options.workDir + "/sci-reference.bin")
    {}

    void setup() override
    {
        // Phases 1-2 on the paper corpus: the model every operation
        // starts from.
        core::PipelineConfig config;
        config.jobs = kJobs;
        config.runInference = false;
        core::PipelineResult trained = core::runPipeline(config);
        trained.model.saveBinary(modelPath_);
    }

    void reference() override
    {
        // validationCorpus + corpusViolations in memory, a batch of
        // programs at a time: the union is order-independent, and the
        // oracle then never sets the process's peak memory.
        support::ThreadPool pool(kJobs);
        invgen::InvariantSet model =
            invgen::InvariantSet::loadBinary(modelPath_);
        sci::CompiledModel compiled(model);
        std::vector<workloads::Workload> programs =
            workloads::validationPrograms(kPrograms, validationSeed_);
        refViolations_.clear();
        for (size_t first = 0; first < kPrograms; first += kOracleBatch) {
            std::vector<workloads::Workload> batch(
                programs.begin() + ptrdiff_t(first),
                programs.begin() + ptrdiff_t(first + kOracleBatch));
            std::set<size_t> found = sci::corpusViolations(
                compiled,
                support::parallelMap(&pool, batch,
                                     [](const workloads::Workload &w) {
                                         return workloads::run(w);
                                     }),
                &pool);
            refViolations_.insert(found.begin(), found.end());
        }
        sci::identifyAll(compiled, bugs::table1(), refViolations_, &pool)
            .saveBinary(refDbPath_);
        refDb_ = readFile(refDbPath_);
    }

    void operate(bool) override
    {
        std::unique_ptr<support::ThreadPool> pool;
        {
            Span span("support.pool_start");
            pool = std::make_unique<support::ThreadPool>(kJobs);
        }
        invgen::InvariantSet model;
        {
            Span span("invgen.load_model");
            model = invgen::InvariantSet::loadBinary(modelPath_);
        }
        std::unique_ptr<sci::CompiledModel> compiled;
        {
            Span span("sci.compile");
            compiled = std::make_unique<sci::CompiledModel>(model);
        }
        {
            Span span("workloads.validation_to_store");
            records_ = 0;
            for (uint64_t n : workloads::validationCorpusToStore(
                     storePath_, kPrograms, validationSeed_, pool.get()))
                records_ += n;
        }
        {
            Span span("sci.corpus_scan_store");
            trace::TraceSetReader reader(storePath_);
            violations_ =
                sci::corpusViolations(*compiled, reader, pool.get());
        }
        sci::SciDatabase db;
        {
            Span span("sci.identify_all");
            db = sci::identifyAll(*compiled, bugs::table1(), violations_,
                                  pool.get());
        }
        {
            Span span("core.save");
            db.saveBinary(dbPath_);
        }
        Span span("bench.release");
        compiled.reset();
        model = {};
        db = {};
        pool.reset();
    }

    void probe() override
    {
        support::ThreadPool pool(kJobs);
        std::vector<trace::TraceBuffer> corpus;
        {
            Span span("cpu.validation_sim");
            corpus = workloads::validationCorpus(kPrograms, validationSeed_,
                                                 &pool);
        }
        std::vector<workloads::Workload> programs =
            workloads::validationPrograms(kPrograms, validationSeed_);
        {
            Span span("trace.encode");
            trace::TraceSetWriter writer(probePath_);
            for (size_t i = 0; i < corpus.size(); ++i) {
                writer.beginStream(programs[i].name);
                for (const auto &rec : corpus[i].records())
                    writer.record(rec);
                writer.endStream();
            }
            writer.close();
        }
        {
            Span span("trace.decode");
            trace::TraceSetReader reader(storePath_);
            reader.readAll(&pool);
        }
        probeMatches_ = readFile(probePath_) == readFile(storePath_);
        storeBytes_ = std::filesystem::file_size(storePath_);
    }

    bool check(std::string &why) override
    {
        why = std::to_string(records_) + " records, " +
              std::to_string(violations_.size()) + " violations";
        if (!probeMatches_)
            why += ", probe store differs from the operation's store";
        return probeMatches_ && violations_ == refViolations_ &&
               readFile(dbPath_) == refDb_;
    }

    uint64_t events() const override { return records_; }

    void counters(std::map<std::string, double> &out) const override
    {
        out["cpu.records"] = double(records_);
        out["trace.store_bytes"] = double(storeBytes_);
        out["trace.bytes_per_record"] =
            double(storeBytes_) / double(records_);
        out["sci.violations"] = double(violations_.size());
    }

  private:
    uint64_t validationSeed_;
    std::string modelPath_, storePath_, probePath_, dbPath_, refDbPath_;
    std::set<size_t> refViolations_;
    std::string refDb_;
    std::set<size_t> violations_;
    uint64_t records_ = 0;
    uint64_t storeBytes_ = 0;
    bool probeMatches_ = true;
};

} // namespace

std::unique_ptr<Workload>
makeIdentifyStore(const Options &options)
{
    return std::make_unique<IdentifyStore>(options);
}

} // namespace perfbench
