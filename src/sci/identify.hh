/**
 * @file
 * Security-critical invariant identification (paper §3.3, §5.2).
 *
 * For each reproduced bug the trigger program runs on the buggy and
 * on the clean processor:
 *
 *  - invariants violated on the *clean* run are not true invariants
 *    at all (generation artifacts); they are silently discarded;
 *  - invariants violated on the buggy run only are candidate SCI;
 *  - candidates are then validated the way the paper's human expert
 *    validated them (§5.7: five hours of marking candidates that are
 *    "clearly non-invariant as determined by the ISA"): a candidate
 *    violated by any clean run of the held-out validation corpus is
 *    not a real processor invariant and becomes a false positive —
 *    Table 3's FP column; the survivors are the bug's true SCI.
 */

#ifndef SCIFINDER_SCI_IDENTIFY_HH
#define SCIFINDER_SCI_IDENTIFY_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "bugs/registry.hh"
#include "expr/compile.hh"
#include "invgen/invgen.hh"

namespace scif::support {
class ThreadPool;
} // namespace scif::support

namespace scif::sci {

/**
 * How findViolations() evaluates invariant expressions: compiled batch
 * programs over columnar trace matrices (the default), or the
 * interpreted Expr tree walk over AoS records (the oracle the
 * differential tests and the eval-throughput bench compare against).
 * Every other scan takes a CompiledModel.
 */
enum class EvalMode { Compiled, Interpreted };

/**
 * An invariant model compiled for batch violation scanning: one
 * register-machine program per invariant plus the column
 * materialization list (exactly the slots the model references) and
 * the covered program points. Build once, share read-only across the
 * per-bug / per-trace fan-outs.
 */
class CompiledModel
{
  public:
    explicit CompiledModel(const invgen::InvariantSet &set);

    const invgen::InvariantSet &set() const { return *set_; }
    const std::vector<expr::CompiledInvariant> &programs() const
    {
        return programs_;
    }
    /** Slot ids referenced by any invariant, ascending. */
    const std::vector<uint16_t> &slots() const { return slots_; }
    /** Point ids with at least one invariant. */
    const std::set<uint16_t> &points() const { return points_; }

  private:
    const invgen::InvariantSet *set_;
    std::vector<expr::CompiledInvariant> programs_;
    std::vector<uint16_t> slots_;
    std::set<uint16_t> points_;
};

/**
 * Scan a trace for invariant violations.
 *
 * @param set the invariant model.
 * @param trace the execution trace.
 * @param mode evaluation substrate; both produce identical results.
 * @return indices (into set.all()) of every invariant violated by at
 *         least one record, in ascending order.
 */
std::vector<size_t> findViolations(const invgen::InvariantSet &set,
                                   const trace::TraceBuffer &trace,
                                   EvalMode mode = EvalMode::Compiled);

/** Scan with a prebuilt compiled model (the hot path). */
std::vector<size_t> findViolations(const CompiledModel &model,
                                   const trace::TraceBuffer &trace);

/**
 * Union of violations across a corpus of clean traces — the automated
 * stand-in for the expert's ISA knowledge. Traces are scanned in
 * parallel over @p pool when one is given; the union is
 * order-independent, so the result is identical either way.
 */
std::set<size_t>
corpusViolations(const CompiledModel &model,
                 const std::vector<trace::TraceBuffer> &corpus,
                 support::ThreadPool *pool = nullptr);

/**
 * Corpus scan over a chunked trace-set artifact without
 * materializing it: chunks are decompressed, scanned, and released
 * independently (in parallel over @p pool), so resident trace memory
 * is O(chunk x jobs). The violation union is order-independent and
 * identical to scanning the fully loaded corpus.
 */
std::set<size_t>
corpusViolations(const CompiledModel &model,
                 const trace::TraceSetReader &reader,
                 support::ThreadPool *pool = nullptr);

/** Per-bug identification outcome (one row of Table 3). */
struct IdentificationResult
{
    std::string bugId;
    /** Violated on the buggy run only and validated: the true SCI. */
    std::vector<size_t> trueSci;
    /** Violated on the buggy run only but exposed as non-invariant
     *  by the validation corpus: Table 3's FP column. */
    std::vector<size_t> falsePositives;
    /** Violated on the clean trigger run: generation artifacts,
     *  discarded before validation. */
    std::vector<size_t> notInvariant;

    /** An enforced assertion would fire on this bug. */
    bool detected() const { return !trueSci.empty(); }
};

/**
 * Identify the SCI for one bug.
 *
 * @param model the optimized invariant model, compiled.
 * @param bug the reproduced erratum and its trigger.
 * @param knownNonInvariant invariants the validation corpus exposed
 *        as non-invariant (see corpusViolations()).
 *
 * The trigger pair runs on one Cpu via bugs::runTriggers().
 */
IdentificationResult identify(const CompiledModel &model,
                              const bugs::Bug &bug,
                              const std::set<size_t> &knownNonInvariant);

/**
 * Identify the SCI for a list of bugs, fanning out per bug over
 * @p pool when one is given. Results are folded into the returned
 * database in the order of @p bugList, so the output is identical to
 * the serial per-bug loop.
 */
class SciDatabase;
SciDatabase identifyAll(const CompiledModel &model,
                        const std::vector<const bugs::Bug *> &bugList,
                        const std::set<size_t> &knownNonInvariant,
                        support::ThreadPool *pool = nullptr);

/**
 * The accumulated identification output: which invariants are SCI
 * (and from which bugs), and which are labeled false positives — the
 * labeled data the inference phase trains on (§5.3: SCI plus the
 * unique false positives from the identification step).
 */
class SciDatabase
{
  public:
    /** Fold one bug's identification result in. */
    void addResult(const IdentificationResult &result);

    /** @return indices of all identified SCI, ascending. */
    std::vector<size_t> sciIndices() const;

    /**
     * @return indices of labeled non-SCI (identification false
     * positives never identified as SCI by any bug), ascending.
     */
    std::vector<size_t> nonSciIndices() const;

    /** @return bugs whose trigger identified invariant @p index. */
    const std::vector<std::string> &provenance(size_t index) const;

    /** @return true if the invariant is an identified SCI. */
    bool isSci(size_t index) const { return sci_.count(index) != 0; }

    /** @return per-bug results in insertion order. */
    const std::vector<IdentificationResult> &results() const
    {
        return results_;
    }

    /**
     * Persist to a versioned binary artifact (the phase-3 output of
     * the staged pipeline). The per-bug results are the source of
     * truth; the SCI and false-positive indices are rebuilt on load.
     */
    void saveBinary(const std::string &path) const;

    /**
     * Load a binary artifact whose indices point into a model of
     * @p modelSize invariants; throws support::IoError on a
     * truncated or corrupt file, an unsupported version, or an index
     * at or beyond @p modelSize (at that index's offset).
     */
    static SciDatabase loadBinary(const std::string &path,
                                  size_t modelSize);

  private:
    std::vector<IdentificationResult> results_;
    std::map<size_t, std::vector<std::string>> sci_;
    std::set<size_t> falsePositives_;
};

} // namespace scif::sci

#endif // SCIFINDER_SCI_IDENTIFY_HH
