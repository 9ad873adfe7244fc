#include "identify.hh"

#include <algorithm>

#include "support/binio.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/threadpool.hh"
#include "trace/store.hh"

namespace scif::sci {

CompiledModel::CompiledModel(const invgen::InvariantSet &set)
    : set_(&set)
{
    programs_.reserve(set.all().size());
    std::set<uint16_t> slots;
    for (const auto &inv : set.all()) {
        programs_.push_back(expr::CompiledInvariant::compile(inv));
        for (uint16_t s : programs_.back().slots())
            slots.insert(s);
        points_.insert(inv.point.id());
    }
    slots_.assign(slots.begin(), slots.end());
}

std::vector<size_t>
findViolations(const CompiledModel &model,
               const trace::TraceBuffer &trace)
{
    // Transpose only the referenced slots at the covered points:
    // records elsewhere cannot violate anything.
    trace::ColumnSet cols = trace::ColumnSet::build(
        trace, model.slots(), &model.points());

    std::set<size_t> violated;
    for (const auto &pc : cols.points()) {
        for (size_t idx : model.set().atPoint(pc.point().id())) {
            if (model.programs()[idx].firstViolation(pc, 0,
                                                     pc.rows()) !=
                expr::CompiledInvariant::npos) {
                violated.insert(idx);
            }
        }
    }
    return std::vector<size_t>(violated.begin(), violated.end());
}

std::vector<size_t>
findViolations(const invgen::InvariantSet &set,
               const trace::TraceBuffer &trace, EvalMode mode)
{
    if (mode == EvalMode::Compiled)
        return findViolations(CompiledModel(set), trace);

    std::set<size_t> violated;
    const auto &invs = set.all();
    for (const auto &rec : trace.records()) {
        for (size_t idx : set.atPoint(rec.point.id())) {
            if (violated.count(idx))
                continue;
            if (!invs[idx].exprHolds(rec))
                violated.insert(idx);
        }
    }
    return std::vector<size_t>(violated.begin(), violated.end());
}

std::set<size_t>
corpusViolations(const CompiledModel &model,
                 const std::vector<trace::TraceBuffer> &corpus,
                 support::ThreadPool *pool)
{
    std::vector<std::vector<size_t>> perTrace(corpus.size());
    support::parallelFor(pool, corpus.size(), [&](size_t i) {
        perTrace[i] = findViolations(model, corpus[i]);
    });
    std::set<size_t> out;
    for (const auto &violations : perTrace)
        out.insert(violations.begin(), violations.end());
    return out;
}

std::set<size_t>
corpusViolations(const CompiledModel &model,
                 const trace::TraceSetReader &reader,
                 support::ThreadPool *pool)
{
    // One job per chunk: decode, scan, release. The union is
    // order-independent, so the fan-out is jobs-invariant.
    struct Job
    {
        size_t stream;
        size_t chunk;
    };
    std::vector<Job> jobs;
    const auto &streams = reader.streams();
    for (size_t s = 0; s < streams.size(); ++s)
        for (size_t c = 0; c < streams[s].chunks.size(); ++c)
            jobs.push_back({s, c});

    std::vector<std::vector<size_t>> perChunk = support::parallelMap(
        pool, jobs, [&](const Job &job) -> std::vector<size_t> {
            trace::TraceBuffer buffer;
            reader.readChunk(job.stream, job.chunk, buffer);
            return findViolations(model, buffer);
        });

    std::set<size_t> out;
    for (const auto &violations : perChunk)
        out.insert(violations.begin(), violations.end());
    return out;
}

namespace {

/** Fold the trigger scans into one bug's result (§3.3). */
IdentificationResult
combineScans(const bugs::Bug &bug,
             const std::vector<size_t> &buggyViolations,
             std::vector<size_t> cleanViolations,
             const std::set<size_t> &knownNonInvariant)
{
    IdentificationResult result;
    result.bugId = bug.id;
    result.notInvariant = std::move(cleanViolations);

    std::vector<size_t> candidates;
    std::set_difference(buggyViolations.begin(), buggyViolations.end(),
                        result.notInvariant.begin(),
                        result.notInvariant.end(),
                        std::back_inserter(candidates));

    for (size_t idx : candidates) {
        if (knownNonInvariant.count(idx))
            result.falsePositives.push_back(idx);
        else
            result.trueSci.push_back(idx);
    }
    return result;
}

} // namespace

IdentificationResult
identify(const CompiledModel &model, const bugs::Bug &bug,
         const std::set<size_t> &knownNonInvariant)
{
    bugs::TriggerTraces traces = bugs::runTriggers(bug);
    return combineScans(bug, findViolations(model, traces.buggy),
                        findViolations(model, traces.clean),
                        knownNonInvariant);
}

SciDatabase
identifyAll(const CompiledModel &model,
            const std::vector<const bugs::Bug *> &bugList,
            const std::set<size_t> &knownNonInvariant,
            support::ThreadPool *pool)
{
    // The compiled programs are immutable and shared read-only by
    // the per-bug workers. Each bug's identification (two trigger
    // simulations plus the violation scans) is independent; folding
    // the results in bug-list order keeps the database identical to
    // the serial loop.
    std::vector<IdentificationResult> results(bugList.size());
    support::parallelFor(pool, bugList.size(), [&](size_t i) {
        results[i] = identify(model, *bugList[i], knownNonInvariant);
    });
    SciDatabase db;
    for (const auto &result : results)
        db.addResult(result);
    return db;
}

void
SciDatabase::addResult(const IdentificationResult &result)
{
    results_.push_back(result);
    for (size_t idx : result.trueSci)
        sci_[idx].push_back(result.bugId);
    for (size_t idx : result.falsePositives)
        falsePositives_.insert(idx);
}

std::vector<size_t>
SciDatabase::sciIndices() const
{
    std::vector<size_t> out;
    for (const auto &[idx, bugs] : sci_)
        out.push_back(idx);
    return out;
}

std::vector<size_t>
SciDatabase::nonSciIndices() const
{
    std::vector<size_t> out;
    for (size_t idx : falsePositives_) {
        if (!sci_.count(idx))
            out.push_back(idx);
    }
    return out;
}

const std::vector<std::string> &
SciDatabase::provenance(size_t index) const
{
    static const std::vector<std::string> empty;
    auto it = sci_.find(index);
    return it == sci_.end() ? empty : it->second;
}

namespace {

constexpr uint32_t dbMagic = 0x53434944; // "SCID"
constexpr uint32_t dbVersion = 1;
constexpr uint64_t dbMaxIndices = 1ull << 32;

void
writeIndices(support::BinWriter &out, const std::vector<size_t> &v)
{
    out.u64(v.size());
    for (size_t idx : v)
        out.u64(idx);
}

/** Read one index list; every index must point into the model. */
std::vector<size_t>
readIndices(support::BinReader &in, size_t modelSize)
{
    uint64_t count = in.u64();
    if (count > dbMaxIndices) {
        in.corrupt(sizeof(count),
                   format("%llu indices", (unsigned long long)count));
    }
    // Grow as the entries arrive: a corrupt count must not size an
    // allocation that the file cannot back.
    std::vector<size_t> out;
    for (uint64_t i = 0; i < count; ++i) {
        uint64_t idx = in.u64();
        if (idx >= modelSize) {
            in.corrupt(sizeof(idx),
                       format("index %llu is beyond the %zu-invariant "
                              "model",
                              (unsigned long long)idx, modelSize));
        }
        out.push_back(size_t(idx));
    }
    return out;
}

} // namespace

void
SciDatabase::saveBinary(const std::string &path) const
{
    support::BinWriter out(path, dbMagic, dbVersion);
    out.u64(results_.size());
    for (const auto &result : results_) {
        out.str(result.bugId);
        writeIndices(out, result.trueSci);
        writeIndices(out, result.falsePositives);
        writeIndices(out, result.notInvariant);
    }
    out.close();
}

SciDatabase
SciDatabase::loadBinary(const std::string &path, size_t modelSize)
{
    support::BinReader in(path, dbMagic, dbVersion, "SCI database");
    SciDatabase db;
    uint64_t count = in.u64();
    for (uint64_t i = 0; i < count; ++i) {
        IdentificationResult result;
        result.bugId = in.str(256);
        result.trueSci = readIndices(in, modelSize);
        result.falsePositives = readIndices(in, modelSize);
        result.notInvariant = readIndices(in, modelSize);
        db.addResult(result);
    }
    in.expectEof();
    return db;
}

} // namespace scif::sci
