/**
 * @file
 * Dynamic invariant generation (paper §3.1): a Daikon-style inference
 * engine specialized for processor traces.
 *
 * Records are grouped by program point (per-mnemonic, with delay-slot
 * fusion and exception qualification already applied by the trace
 * layer). At each point the engine instantiates invariant templates
 * over every tracked variable slot — pre ("orig") and post state —
 * and keeps the candidates that survive all samples *and* clear a
 * Daikon-style confidence bar (the probability that the invariant
 * holds by chance in the observed sample count must be below
 * 1 - confidence; the paper uses confidence 0.99).
 *
 * Templates:
 *  - equality to constant            (x == c)
 *  - small-set membership            (x in {c1, c2, c3})
 *  - binary relations between slots  (x == y, x != y, x < y, ...)
 *  - linear relations                (x == a*y + b)
 *  - modular residue                 (x mod m == c)
 *  - targeted ternary sums           (x == y + z, x == y - z)
 */

#ifndef SCIFINDER_INVGEN_INVGEN_HH
#define SCIFINDER_INVGEN_INVGEN_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "expr/expr.hh"
#include "trace/columns.hh"
#include "trace/record.hh"

namespace scif::support {
class ThreadPool;
} // namespace scif::support

namespace scif::trace {
class TraceSetReader;
} // namespace scif::trace

namespace scif::invgen {

/** Tuning knobs for the generator. */
struct Config
{
    /** Daikon confidence limit (§5.1 uses 0.99). */
    double confidence = 0.99;

    /** Minimum samples at a point before any invariant is emitted. */
    uint64_t minSamples = 5;

    /** Minimum samples for a != relation (weak evidence). */
    uint64_t neMinSamples = 12;

    /** Maximum set size for membership invariants. */
    size_t maxOneOf = 3;

    /** Scales tried for linear relations x == a*y + b. */
    std::vector<uint32_t> linearScales = {1, 2, 4};

    /** Moduli tried for residue invariants. */
    std::vector<uint32_t> moduli = {2, 4};

    /**
     * Variables excluded from invariant generation. The effective-
     * address oracles are off by default, reproducing the paper's
     * missing property p10 (§5.4); enabling them is the ablation.
     */
    std::set<uint16_t> disabledVars = {trace::VarId::JEA,
                                       trace::VarId::EA,
                                       trace::VarId::USTALL};
};

/** A deduplicated, point-indexed collection of invariants. */
class InvariantSet
{
  public:
    /**
     * Canonicalize and insert.
     * @return true if the invariant was new.
     */
    bool add(expr::Invariant inv);

    /** @return all invariants, in insertion order. */
    const std::vector<expr::Invariant> &all() const { return invs_; }

    /** @return indices of invariants at program point @p pointId. */
    const std::vector<size_t> &atPoint(uint16_t pointId) const;

    /** @return true if an invariant with this canonical key exists. */
    bool contains(const std::string &key) const
    {
        return keyIndex_.count(key) != 0;
    }

    /** @return the canonical keys of all invariants. */
    std::set<std::string> keys() const;

    size_t size() const { return invs_.size(); }

    /** Total number of variable references across all invariants
     *  (the "Variables" row of Table 2). */
    size_t variableCount() const;

    /** Replace the contents with the given invariants. */
    void assign(std::vector<expr::Invariant> invs);

    /**
     * Persist to a text file, one invariant per line in the str()
     * syntax (the format the parser reads back).
     */
    void saveText(const std::string &path) const;

    /** Load a set previously written by saveText(). */
    static InvariantSet loadText(const std::string &path);

    /**
     * Persist to a versioned binary artifact (the inter-stage format
     * of the staged pipeline); byte-exact round trip, including
     * insertion order.
     */
    void saveBinary(const std::string &path) const;

    /** Load a binary artifact; aborts on a truncated or corrupt
     *  file, or on an unsupported version. */
    static InvariantSet loadBinary(const std::string &path);

  private:
    std::vector<expr::Invariant> invs_;
    std::map<std::string, size_t> keyIndex_;
    std::map<uint16_t, std::vector<size_t>> pointIndex_;
};

/** Per-run statistics for reporting. */
struct GenStats
{
    uint64_t records = 0;
    uint64_t points = 0;
    uint64_t candidatesTried = 0;
    /** Always zero: every candidate is falsified on its own, so none
     *  is ever shared. Kept only because the benchmark reads it as
     *  `invgen.deduped_members`. */
    uint64_t candidatesDeduped = 0;
};

/**
 * Infer invariants from one or more trace buffers.
 *
 * Program points are independent, so inference fans out per point
 * over @p pool when one is given; the per-point results are merged
 * in ascending point order, making the output identical to the
 * serial run.
 *
 * @param traces the training corpus.
 * @param config generator tuning.
 * @param stats optional output statistics.
 * @param pool optional worker pool for the per-point fan-out.
 */
InvariantSet generate(const std::vector<const trace::TraceBuffer *> &traces,
                      const Config &config = Config(),
                      GenStats *stats = nullptr,
                      support::ThreadPool *pool = nullptr);

/** Convenience overload for a single buffer. */
InvariantSet generate(const trace::TraceBuffer &trace,
                      const Config &config = Config(),
                      GenStats *stats = nullptr);

/**
 * Infer invariants from an already-transposed column set (the
 * capture-time columnar front end). @p cols must materialize at
 * least the slots the templates reference — a full-slot seal always
 * qualifies — and yields output identical to generate() over the
 * equivalent record stream, minus the AoS-to-SoA transpose.
 */
InvariantSet generate(trace::ColumnSet cols,
                      const Config &config = Config(),
                      GenStats *stats = nullptr,
                      support::ThreadPool *pool = nullptr);

/**
 * Infer invariants from a chunked v2 trace-set artifact without
 * materializing the corpus: chunks are decompressed a window at a
 * time (one chunk per pool worker), folded into per-point
 * accumulators, and released, so resident trace memory is
 * O(chunk x jobs) no matter how large the set on disk is. Every
 * accumulator is a prefix-closed fold over the record stream, so the
 * result is identical to generate() over the fully loaded corpus —
 * independent of chunk size and job count.
 */
InvariantSet generateStreaming(const trace::TraceSetReader &reader,
                               const Config &config = Config(),
                               GenStats *stats = nullptr,
                               support::ThreadPool *pool = nullptr);

} // namespace scif::invgen

#endif // SCIFINDER_INVGEN_INVGEN_HH
