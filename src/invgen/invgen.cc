#include "invgen.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_set>

#include "support/binio.hh"
#include "support/logging.hh"
#include "support/memstats.hh"
#include "support/strings.hh"
#include "support/threadpool.hh"
#include "trace/columns.hh"
#include "trace/store.hh"

namespace scif::invgen {

using expr::CmpOp;
using expr::Invariant;
using expr::Op2;
using expr::Operand;
using expr::VarRef;

bool
InvariantSet::add(Invariant inv)
{
    inv.canonicalize();
    std::string key = inv.key();
    if (keyIndex_.count(key))
        return false;
    size_t idx = invs_.size();
    keyIndex_[key] = idx;
    pointIndex_[inv.point.id()].push_back(idx);
    invs_.push_back(std::move(inv));
    return true;
}

const std::vector<size_t> &
InvariantSet::atPoint(uint16_t pointId) const
{
    static const std::vector<size_t> empty;
    auto it = pointIndex_.find(pointId);
    return it == pointIndex_.end() ? empty : it->second;
}

std::set<std::string>
InvariantSet::keys() const
{
    std::set<std::string> out;
    for (const auto &[key, idx] : keyIndex_)
        out.insert(key);
    return out;
}

size_t
InvariantSet::variableCount() const
{
    size_t count = 0;
    for (const auto &inv : invs_) {
        count += inv.lhs.vars().size();
        if (inv.op != CmpOp::In)
            count += inv.rhs.vars().size();
    }
    return count;
}

void
InvariantSet::assign(std::vector<expr::Invariant> invs)
{
    invs_.clear();
    keyIndex_.clear();
    pointIndex_.clear();
    for (auto &inv : invs)
        add(std::move(inv));
}

namespace {

constexpr uint32_t invMagic = 0x53434956; // "SCIV"
constexpr uint32_t invVersion = 1;

void
writeOperand(support::BinWriter &out, const Operand &op)
{
    out.u8(op.isConst);
    out.u32(op.constVal);
    out.u16(op.a.var);
    out.u8(op.a.orig);
    out.u8(uint8_t(op.op2));
    out.u16(op.b.var);
    out.u8(op.b.orig);
    out.u8(op.negate);
    out.u32(op.mulImm);
    out.u32(op.modImm);
    out.u32(op.addImm);
}

/** Read a variable id, rejecting ids outside the schema. */
uint16_t
readVar(support::BinReader &in)
{
    uint16_t var = in.u16();
    if (var >= trace::numVars)
        in.corrupt(sizeof(var), format("variable id %u", var));
    return var;
}

Operand
readOperand(support::BinReader &in)
{
    Operand op;
    op.isConst = in.u8() != 0;
    op.constVal = in.u32();
    op.a.var = readVar(in);
    op.a.orig = in.u8() != 0;
    uint8_t op2 = in.u8();
    if (op2 > uint8_t(Op2::Sub))
        in.corrupt(sizeof(op2), format("operator %u", op2));
    op.op2 = Op2(op2);
    op.b.var = readVar(in);
    op.b.orig = in.u8() != 0;
    op.negate = in.u8() != 0;
    op.mulImm = in.u32();
    op.modImm = in.u32();
    op.addImm = in.u32();
    return op;
}

} // namespace

void
InvariantSet::saveBinary(const std::string &path) const
{
    support::BinWriter out(path, invMagic, invVersion);
    out.u64(invs_.size());
    for (const auto &inv : invs_) {
        out.u16(inv.point.id());
        out.u8(uint8_t(inv.op));
        writeOperand(out, inv.lhs);
        writeOperand(out, inv.rhs);
        out.u32(uint32_t(inv.set.size()));
        for (uint32_t v : inv.set)
            out.u32(v);
    }
    out.close();
}

InvariantSet
InvariantSet::loadBinary(const std::string &path)
{
    support::BinReader in(path, invMagic, invVersion,
                          "invariant model");
    InvariantSet set;
    uint64_t count = in.u64();
    for (uint64_t i = 0; i < count; ++i) {
        Invariant inv;
        uint16_t pointId = in.u16();
        if (!trace::Point::validId(pointId))
            in.corrupt(sizeof(pointId), format("point id %u", pointId));
        inv.point = trace::Point::fromId(pointId);
        uint8_t op = in.u8();
        if (op > uint8_t(CmpOp::In))
            in.corrupt(sizeof(op), format("comparison %u", op));
        inv.op = CmpOp(op);
        inv.lhs = readOperand(in);
        inv.rhs = readOperand(in);
        uint32_t setSize = in.u32();
        if (setSize > (1u << 20))
            in.corrupt(sizeof(setSize), format("set size %u", setSize));
        inv.set.resize(setSize);
        for (uint32_t &v : inv.set)
            v = in.u32();
        set.add(std::move(inv));
    }
    in.expectEof();
    return set;
}

namespace {

/** A slot is one column of the trace matrix: (variable, pre/post). */
struct Slot
{
    uint16_t var;
    bool orig;

    VarRef ref() const { return VarRef{var, orig}; }
    uint16_t id() const { return trace::slotId(var, orig); }
};

/** Rows per falsification-sweep block between early-exit checks. */
constexpr size_t sweepBlock = 512;

/** Cap on the per-slot global distinct-value trackers. */
constexpr size_t cardinalityCap = 64;

/**
 * The justification test: an invariant is emitted only if the chance
 * of it holding coincidentally in n samples is below 1 - confidence.
 * The per-sample chance is modelled from the slot's observed global
 * value cardinality (Daikon's "justified" notion, simplified).
 */
bool
justified(double per_sample_chance, uint64_t n, double confidence)
{
    if (n == 0)
        return false;
    double p = std::pow(per_sample_chance, double(n - 1));
    return p <= 1.0 - confidence;
}

/** Pair evidence bits. */
constexpr uint8_t sawLtBit = 1;
constexpr uint8_t sawEqBit = 2;
constexpr uint8_t sawGtBit = 4;
constexpr uint8_t pairDead = sawLtBit | sawEqBit | sawGtBit;

/** Lazy linear-candidate lifecycle. */
constexpr uint8_t linUnseeded = 0;
constexpr uint8_t linAlive = 1;
constexpr uint8_t linDead = 2;

/**
 * The incremental inference engine. Trace windows (any partition of
 * the corpus into column sets, in record order) are folded in one at
 * a time with add(); finish() then emits every invariant the whole
 * corpus justifies. Every per-point accumulator is a prefix-closed
 * fold over the record stream, so the result is independent of how
 * the corpus was windowed — feeding the entire corpus as one window
 * reproduces the historical batch generator bit for bit, and feeding
 * it chunk-by-chunk from the trace store gives the same answer with
 * O(window) resident trace memory.
 */
class Engine
{
  public:
    explicit Engine(const Config &config) : config_(config)
    {
        for (uint16_t v = 0; v < trace::numVars; ++v) {
            if (config_.disabledVars.count(v))
                continue;
            slots_.push_back(Slot{v, true});
            slots_.push_back(Slot{v, false});
        }
        slotIds_.reserve(slots_.size());
        for (const auto &s : slots_)
            slotIds_.push_back(s.id());
        seen_.resize(slots_.size());
        globalMin_.assign(slots_.size(), 0xffffffffu);
        globalMax_.assign(slots_.size(), 0);
        buildTripleSpecs();
    }

    /** The slot ids a window ColumnSet must materialize. */
    const std::vector<uint16_t> &slotIds() const { return slotIds_; }

    /**
     * Fold one window of the corpus into the per-point accumulators.
     * Distinct points are independent, so the per-point update fans
     * out over @p pool.
     */
    void
    add(const trace::ColumnSet &cols, support::ThreadPool *pool)
    {
        // Global value-cardinality trackers are shared across points;
        // update them serially. The final cardinalities are order-
        // independent: a capped set either saturates or holds every
        // distinct value, and min/max are plain folds.
        for (const auto &pc : cols.points()) {
            for (size_t s = 0; s < slots_.size(); ++s) {
                const uint32_t *col = pc.column(slots_[s].id());
                auto &set = seen_[s];
                uint32_t mn = globalMin_[s], mx = globalMax_[s];
                for (size_t k = 0; k < pc.rows(); ++k) {
                    uint32_t v = col[k];
                    mn = std::min(mn, v);
                    mx = std::max(mx, v);
                    if (set.size() < cardinalityCap)
                        set.insert(v);
                }
                globalMin_[s] = mn;
                globalMax_[s] = mx;
            }
        }

        // Create the states serially (the map must not rehash under
        // the fan-out), then update each point on its own worker.
        std::vector<std::pair<PointState *, const trace::PointColumns *>>
            work;
        work.reserve(cols.points().size());
        for (const auto &pc : cols.points()) {
            auto &slot = states_[pc.point().id()];
            if (!slot)
                slot = makeState(pc.point());
            work.push_back({slot.get(), &pc});
        }
        support::parallelFor(pool, work.size(), [&](size_t i) {
            updatePoint(*work[i].first, *work[i].second);
        });
    }

    /** Emit every justified invariant over the folded corpus. */
    InvariantSet
    finish(GenStats *stats, support::ThreadPool *pool)
    {
        computeCardinality();

        std::vector<const PointState *> emit;
        uint64_t records = 0;
        for (const auto &[id, st] : states_) {
            records += st->n;
            if (st->n >= config_.minSamples)
                emit.push_back(st.get());
        }

        struct PointOut
        {
            InvariantSet invs;
            uint64_t candidates = 0;
        };
        std::vector<PointOut> perPoint(emit.size());
        support::parallelFor(pool, emit.size(), [&](size_t i) {
            emitPoint(*emit[i], perPoint[i].invs,
                      perPoint[i].candidates);
        });

        InvariantSet out;
        uint64_t candidates = 0;
        for (auto &po : perPoint) {
            for (const auto &inv : po.invs.all())
                out.add(inv);
            candidates += po.candidates;
        }
        if (stats) {
            stats->records = records;
            stats->points = states_.size();
            stats->candidatesTried = candidates;
        }
        return out;
    }

  private:
    /** Per-slot accumulation at one program point. */
    struct SlotAcc
    {
        uint32_t first = 0;
        uint32_t min = 0;
        uint32_t max = 0;
        bool constant = true;
        bool trackDistinct = true;
        std::vector<uint32_t> distinct; // first-seen order, capped
        std::vector<uint8_t> modAlive;  // per modulus
        std::vector<uint8_t> diffAlive; // per scale: a*(v-first) == 0
    };

    /** All evidence accumulated at one program point. */
    struct PointState
    {
        trace::Point point;
        uint64_t n = 0;
        std::vector<SlotAcc> slots;
        std::vector<uint8_t> pairBits; // i<j upper triangle
        std::vector<uint8_t> linear;   // (i*ns + j)*scales + a
        uint8_t tripleAlive[4][2];
    };

    struct TripleSpec
    {
        Slot v, w, u;
        int iv = -1, iw = -1, iu = -1;
    };

    std::unique_ptr<PointState>
    makeState(trace::Point point) const
    {
        auto st = std::make_unique<PointState>();
        size_t ns = slots_.size();
        st->point = point;
        st->slots.resize(ns);
        for (auto &a : st->slots) {
            a.modAlive.assign(config_.moduli.size(), 1);
            a.diffAlive.assign(config_.linearScales.size(), 1);
        }
        st->pairBits.assign(ns * (ns - 1) / 2, 0);
        st->linear.assign(ns * ns * config_.linearScales.size(),
                          linUnseeded);
        for (auto &spec : st->tripleAlive)
            spec[0] = spec[1] = 1;
        return st;
    }

    void
    buildTripleSpecs()
    {
        using trace::VarId;
        triples_ = {
            TripleSpec{{VarId::MEMADDR, false},
                       {VarId::OPA, true},
                       {VarId::IMM, false}},
            TripleSpec{{VarId::OPDEST, false},
                       {VarId::OPA, true},
                       {VarId::OPB, true}},
            TripleSpec{{VarId::OPDEST, false},
                       {VarId::OPA, true},
                       {VarId::IMM, false}},
            TripleSpec{{VarId::EPCR0, false},
                       {VarId::PC, false},
                       {VarId::IMM, false}},
        };
        auto slotIndex = [&](const Slot &s) -> int {
            for (size_t i = 0; i < slots_.size(); ++i) {
                if (slots_[i].var == s.var &&
                    slots_[i].orig == s.orig)
                    return int(i);
            }
            return -1;
        };
        for (auto &t : triples_) {
            t.iv = slotIndex(t.v);
            t.iw = slotIndex(t.w);
            t.iu = slotIndex(t.u);
        }
    }

    void
    computeCardinality()
    {
        cardinality_.assign(slots_.size(), 0);
        for (size_t s = 0; s < slots_.size(); ++s) {
            size_t distinct = std::max<size_t>(seen_[s].size(), 1);
            if (distinct < cardinalityCap) {
                cardinality_[s] = distinct;
            } else {
                // The distinct-value tracker saturated: estimate the
                // value cardinality from the observed span (Daikon's
                // value-tracker heuristic). Wide variables get a huge
                // cardinality, so "never equal" observations carry no
                // statistical weight.
                uint64_t span =
                    uint64_t(globalMax_[s]) - globalMin_[s] + 1;
                cardinality_[s] = size_t(
                    std::min<uint64_t>(span, 0xffffffffull));
            }
        }
    }

    /** Chance of two values colliding, from global cardinalities. */
    double
    eqChance(size_t i, size_t j) const
    {
        size_t v = std::min(cardinality_[i], cardinality_[j]);
        return 1.0 / double(std::max<size_t>(v, 2));
    }

    /** Per-sample chance that two values merely happen to differ. */
    double
    neChance(size_t i, size_t j) const
    {
        return 1.0 - eqChance(i, j);
    }

    void
    updatePoint(PointState &st, const trace::PointColumns &pc) const
    {
        size_t ns = slots_.size();
        size_t n = pc.rows();
        if (n == 0)
            return;
        size_t nsc = config_.linearScales.size();
        bool fresh = st.n == 0;

        std::vector<const uint32_t *> colOf(ns);
        for (size_t s = 0; s < ns; ++s)
            colOf[s] = pc.column(slots_[s].id());

        // Snapshot constancy and difference evidence as of the
        // previous window boundary: the lazy linear seeding below
        // reconstructs the past from these.
        std::vector<uint8_t> prevConst(ns);
        std::vector<uint8_t> prevDiff(ns * nsc);
        for (size_t s = 0; s < ns; ++s) {
            prevConst[s] = st.slots[s].constant;
            for (size_t a = 0; a < nsc; ++a)
                prevDiff[s * nsc + a] = st.slots[s].diffAlive[a];
        }

        // --- per-slot folds: one cache-order sweep per column ---
        // (The residue and difference candidates are falsified with
        // the relational templates below, so both evaluation paths
        // share one windowAllFirst gate.)
        std::vector<uint8_t> windowAllFirst(ns);
        for (size_t s = 0; s < ns; ++s) {
            const uint32_t *col = colOf[s];
            auto &acc = st.slots[s];
            if (fresh) {
                acc.first = col[0];
                acc.min = acc.first;
                acc.max = acc.first;
            }
            uint32_t first = acc.first;

            uint32_t mn = acc.min, mx = acc.max;
            uint32_t allEq = acc.constant ? 1u : 0u;
            for (size_t k = 0; k < n; ++k) {
                uint32_t v = col[k];
                mn = std::min(mn, v);
                mx = std::max(mx, v);
                allEq &= v == first ? 1u : 0u;
            }
            acc.min = mn;
            acc.max = mx;
            bool wasConstant = acc.constant;
            acc.constant = allEq != 0;

            // Distinct values in first-seen order, capped one past
            // the membership-set limit (beyond that the slot can
            // never yield a one-of invariant).
            if (acc.trackDistinct) {
                for (size_t k = 0; k < n; ++k) {
                    uint32_t v = col[k];
                    if (std::find(acc.distinct.begin(),
                                  acc.distinct.end(),
                                  v) == acc.distinct.end()) {
                        acc.distinct.push_back(v);
                        if (acc.distinct.size() > config_.maxOneOf) {
                            acc.trackDistinct = false;
                            break;
                        }
                    }
                }
            }

            // A window whose rows all equal `first` cannot change the
            // residue or difference evidence.
            windowAllFirst[s] = wasConstant && acc.constant ? 1 : 0;
        }

        falsify(st, colOf, n, prevConst, prevDiff, windowAllFirst);

        st.n += n;
    }

    /**
     * Per-template falsification sweeps — one column traversal per
     * still-alive candidate, stopping at the first block that holds a
     * violating row.
     */
    void
    falsify(PointState &st, const std::vector<const uint32_t *> &colOf,
            size_t n, const std::vector<uint8_t> &prevConst,
            const std::vector<uint8_t> &prevDiff,
            const std::vector<uint8_t> &windowAllFirst) const
    {
        size_t ns = slots_.size();
        size_t nsc = config_.linearScales.size();

        // --- modular residues and scaled differences ---
        for (size_t s = 0; s < ns; ++s) {
            if (windowAllFirst[s])
                continue;
            const uint32_t *col = colOf[s];
            auto &acc = st.slots[s];
            uint32_t first = acc.first;
            for (size_t m = 0; m < config_.moduli.size(); ++m) {
                if (!acc.modAlive[m])
                    continue;
                uint32_t mod = config_.moduli[m];
                uint32_t r0 = first % mod;
                uint32_t bad = 0;
                size_t k = 0;
                while (k < n && !bad) {
                    size_t stop = std::min(n, k + sweepBlock);
                    for (; k < stop; ++k)
                        bad |= col[k] % mod != r0 ? 1u : 0u;
                }
                if (bad)
                    acc.modAlive[m] = 0;
            }
            for (size_t a = 0; a < nsc; ++a) {
                if (!acc.diffAlive[a])
                    continue;
                uint32_t scale = config_.linearScales[a];
                uint32_t bad = 0;
                size_t k = 0;
                while (k < n && !bad) {
                    size_t stop = std::min(n, k + sweepBlock);
                    for (; k < stop; ++k)
                        bad |= scale * (col[k] - first) != 0 ? 1u
                                                             : 0u;
                }
                if (bad)
                    acc.diffAlive[a] = 0;
            }
        }

        // --- pairwise relation evidence ---
        size_t pairIdx = 0;
        for (size_t i = 0; i < ns; ++i) {
            for (size_t j = i + 1; j < ns; ++j, ++pairIdx) {
                uint8_t &bits = st.pairBits[pairIdx];
                if (bits == pairDead)
                    continue;
                const auto &ai = st.slots[i];
                const auto &aj = st.slots[j];
                if (ai.constant && aj.constant) {
                    // Every row of this window is (first_i, first_j).
                    uint32_t l = ai.first, r = aj.first;
                    bits |= l < r ? sawLtBit
                                  : (l == r ? sawEqBit : sawGtBit);
                    continue;
                }
                const uint32_t *ci = colOf[i];
                const uint32_t *cj = colOf[j];
                uint32_t lt = 0, eq = 0, gt = 0;
                size_t k = 0;
                while (k < n) {
                    size_t stop = std::min(n, k + sweepBlock);
                    for (; k < stop; ++k) {
                        uint32_t l = ci[k], r = cj[k];
                        lt |= l < r ? 1u : 0u;
                        eq |= l == r ? 1u : 0u;
                        gt |= l > r ? 1u : 0u;
                    }
                    if ((bits | (lt ? sawLtBit : 0) |
                         (eq ? sawEqBit : 0) |
                         (gt ? sawGtBit : 0)) == pairDead)
                        break;
                }
                bits |= (lt ? sawLtBit : 0) | (eq ? sawEqBit : 0) |
                        (gt ? sawGtBit : 0);
            }
        }

        // --- linear candidates x_i == a * x_j + b ---
        // A candidate exists once both slots are non-constant; its
        // offset is pinned by the point's first record. Seeding is
        // lazy: when a pair first becomes jointly non-constant, the
        // records before this window either had x_i constant (then
        // the candidate held on them iff a*(x_j - first_j) was always
        // zero — the diffAlive fold) or had x_i non-constant while
        // x_j was constant (then some earlier record already broke
        // the relation). Both reconstructions use only the snapshots
        // above, so the outcome is window-partition independent.
        for (size_t i = 0; i < ns; ++i) {
            if (st.slots[i].constant)
                continue;
            for (size_t j = 0; j < ns; ++j) {
                if (i == j || st.slots[j].constant)
                    continue;
                for (size_t a = 0; a < nsc; ++a) {
                    uint8_t &state =
                        st.linear[(i * ns + j) * nsc + a];
                    if (state == linDead)
                        continue;
                    uint32_t scale = config_.linearScales[a];
                    uint32_t b = st.slots[i].first -
                                 scale * st.slots[j].first;
                    if (state == linUnseeded) {
                        if (scale == 1 && b == 0) {
                            state = linDead; // plain equality's job
                            continue;
                        }
                        bool pastOk = prevConst[i] != 0 &&
                                      prevDiff[j * nsc + a] != 0;
                        if (!pastOk) {
                            state = linDead;
                            continue;
                        }
                        state = linAlive;
                    }
                    const uint32_t *ci = colOf[i];
                    const uint32_t *cj = colOf[j];
                    uint32_t bad = 0;
                    size_t k = 0;
                    while (k < n && !bad) {
                        size_t stop = std::min(n, k + sweepBlock);
                        for (; k < stop; ++k) {
                            bad |= ci[k] != scale * cj[k] + b ? 1u
                                                              : 0u;
                        }
                    }
                    if (bad)
                        state = linDead;
                }
            }
        }

        // --- targeted ternary sums ---
        for (size_t t = 0; t < triples_.size(); ++t) {
            const auto &spec = triples_[t];
            if (spec.iv < 0 || spec.iw < 0 || spec.iu < 0)
                continue;
            const uint32_t *cv = colOf[size_t(spec.iv)];
            const uint32_t *cw = colOf[size_t(spec.iw)];
            const uint32_t *cu = colOf[size_t(spec.iu)];
            for (int sub = 0; sub < 2; ++sub) {
                if (!st.tripleAlive[t][sub])
                    continue;
                uint32_t bad = 0;
                size_t k = 0;
                while (k < n && !bad) {
                    size_t stop = std::min(n, k + sweepBlock);
                    for (; k < stop; ++k) {
                        uint32_t expect =
                            sub ? cw[k] - cu[k] : cw[k] + cu[k];
                        bad |= cv[k] != expect ? 1u : 0u;
                    }
                }
                if (bad)
                    st.tripleAlive[t][sub] = 0;
            }
        }
    }

    void
    emitPoint(const PointState &st, InvariantSet &out,
              uint64_t &candidates) const
    {
        trace::Point point = st.point;
        size_t ns = slots_.size();
        size_t nsc = config_.linearScales.size();
        uint64_t n = st.n;

        auto slotOperand = [&](size_t s) {
            return Operand::var(slots_[s].var, slots_[s].orig);
        };

        // --- unary invariants ---
        for (size_t s = 0; s < ns; ++s) {
            const auto &acc = st.slots[s];
            ++candidates;
            if (acc.constant &&
                justified(1.0 / double(std::max<size_t>(
                                    cardinality_[s], 2)),
                          n, config_.confidence)) {
                Invariant inv;
                inv.point = point;
                inv.op = CmpOp::Eq;
                inv.lhs = slotOperand(s);
                inv.rhs = Operand::imm(acc.first);
                out.add(inv);
            } else if (!acc.constant &&
                       acc.distinct.size() <= config_.maxOneOf &&
                       n >= config_.minSamples * acc.distinct.size() &&
                       justified(double(acc.distinct.size()) /
                                     double(std::max<size_t>(
                                         cardinality_[s],
                                         acc.distinct.size() + 1)),
                                 n, config_.confidence)) {
                Invariant inv;
                inv.point = point;
                inv.op = CmpOp::In;
                inv.lhs = slotOperand(s);
                inv.set = acc.distinct;
                out.add(inv);
            }

            // Modular residue: only for non-constant slots (constant
            // slots' residues are deducible).
            if (!acc.constant) {
                for (size_t m = 0; m < config_.moduli.size(); ++m) {
                    ++candidates;
                    if (!acc.modAlive[m])
                        continue;
                    uint32_t mod = config_.moduli[m];
                    if (!justified(1.0 / double(mod), n,
                                   config_.confidence)) {
                        continue;
                    }
                    Invariant inv;
                    inv.point = point;
                    inv.op = CmpOp::Eq;
                    inv.lhs = slotOperand(s);
                    inv.lhs.modImm = mod;
                    inv.rhs = Operand::imm(acc.first % mod);
                    out.add(inv);
                }
            }
        }

        // Ordering relations between variables whose observed ranges
        // at this point never interleave are implied by the ranges
        // themselves and carry no relational information; Daikon
        // suppresses them and so do we.
        auto rangesInterleave = [&st](size_t i, size_t j) {
            return st.slots[i].max >= st.slots[j].min &&
                   st.slots[j].max >= st.slots[i].min;
        };

        // --- pairwise relations ---
        // Pairs where both slots are constant are deducible from the
        // unary invariants; pairs that saw <, == and > carry no
        // relation. Neither counts as a candidate.
        size_t pairIdx = 0;
        for (size_t i = 0; i < ns; ++i) {
            for (size_t j = i + 1; j < ns; ++j, ++pairIdx) {
                if (st.slots[i].constant && st.slots[j].constant)
                    continue;
                uint8_t bits = st.pairBits[pairIdx];
                if (bits == pairDead)
                    continue;
                bool sawLt = bits & sawLtBit;
                bool sawEq = bits & sawEqBit;
                bool sawGt = bits & sawGtBit;
                ++candidates;
                Invariant inv;
                inv.point = point;
                inv.lhs = slotOperand(i);
                inv.rhs = slotOperand(j);
                if (sawEq && !sawLt && !sawGt) {
                    if (!justified(eqChance(i, j), n,
                                   config_.confidence)) {
                        continue;
                    }
                    inv.op = CmpOp::Eq;
                } else if (!sawEq && n >= config_.neMinSamples) {
                    // "Never equal" is only surprising when
                    // collisions would be expected from the value
                    // cardinalities.
                    if (!justified(neChance(i, j), n + 1,
                                   config_.confidence) ||
                        !rangesInterleave(i, j)) {
                        continue;
                    }
                    if (sawLt && !sawGt)
                        inv.op = CmpOp::Lt;
                    else if (sawGt && !sawLt)
                        inv.op = CmpOp::Gt;
                    else
                        inv.op = CmpOp::Ne;
                } else if (sawEq && sawLt && !sawGt) {
                    if (!justified(0.5, n + 1, config_.confidence) ||
                        !rangesInterleave(i, j)) {
                        continue;
                    }
                    inv.op = CmpOp::Le;
                } else if (sawEq && sawGt && !sawLt) {
                    if (!justified(0.5, n + 1, config_.confidence) ||
                        !rangesInterleave(i, j)) {
                        continue;
                    }
                    inv.op = CmpOp::Ge;
                } else {
                    continue;
                }
                out.add(inv);
            }
        }

        // --- linear relations ---
        for (size_t i = 0; i < ns; ++i) {
            if (st.slots[i].constant)
                continue;
            for (size_t j = 0; j < ns; ++j) {
                if (i == j || st.slots[j].constant)
                    continue;
                for (size_t a = 0; a < nsc; ++a) {
                    uint32_t scale = config_.linearScales[a];
                    uint32_t b = st.slots[i].first -
                                 scale * st.slots[j].first;
                    if (scale == 1 && b == 0)
                        continue; // plain equality handles this
                    if (st.linear[(i * ns + j) * nsc + a] != linAlive)
                        continue; // falsified: not a candidate
                    ++candidates;
                    if (!justified(eqChance(i, j), n,
                                   config_.confidence)) {
                        continue;
                    }
                    Invariant inv;
                    inv.point = point;
                    inv.op = CmpOp::Eq;
                    inv.lhs = slotOperand(i);
                    inv.rhs = slotOperand(j);
                    inv.rhs.mulImm = scale;
                    inv.rhs.addImm = b;
                    out.add(inv);
                }
            }
        }

        // --- targeted ternary sums ---
        for (size_t t = 0; t < triples_.size(); ++t) {
            const auto &spec = triples_[t];
            if (spec.iv < 0 || spec.iw < 0 || spec.iu < 0)
                continue;
            // All-constant triples are deducible.
            if (st.slots[size_t(spec.iv)].constant &&
                (st.slots[size_t(spec.iw)].constant ||
                 st.slots[size_t(spec.iu)].constant)) {
                continue;
            }
            for (int sub = 0; sub < 2; ++sub) {
                ++candidates;
                if (!st.tripleAlive[t][sub] ||
                    !justified(eqChance(size_t(spec.iv),
                                        size_t(spec.iw)),
                               n, config_.confidence)) {
                    continue;
                }
                Invariant inv;
                inv.point = point;
                inv.op = CmpOp::Eq;
                inv.lhs = Operand::var(spec.v.var, spec.v.orig);
                inv.rhs = Operand::pair(spec.w.ref(),
                                        sub ? Op2::Sub : Op2::Add,
                                        spec.u.ref());
                out.add(inv);
            }
        }
    }

    Config config_;

    std::vector<Slot> slots_;
    std::vector<uint16_t> slotIds_;
    std::vector<TripleSpec> triples_;

    std::vector<std::unordered_set<uint32_t>> seen_;
    std::vector<uint32_t> globalMin_;
    std::vector<uint32_t> globalMax_;
    std::vector<size_t> cardinality_;

    std::map<uint16_t, std::unique_ptr<PointState>> states_;
};

} // namespace

InvariantSet
generate(const std::vector<const trace::TraceBuffer *> &traces,
         const Config &config, GenStats *stats,
         support::ThreadPool *pool)
{
    Engine engine(config);
    // Transpose the whole trace set once; every falsification loop
    // is then a cache-order sweep down these columns.
    trace::ColumnSet cols =
        trace::ColumnSet::build(traces, engine.slotIds());
    engine.add(cols, pool);
    return engine.finish(stats, pool);
}

InvariantSet
generate(const trace::TraceBuffer &trace, const Config &config,
         GenStats *stats)
{
    std::vector<const trace::TraceBuffer *> traces = {&trace};
    return generate(traces, config, stats);
}

InvariantSet
generate(trace::ColumnSet cols, const Config &config, GenStats *stats,
         support::ThreadPool *pool)
{
    Engine engine(config);
    engine.add(cols, pool);
    return engine.finish(stats, pool);
}

InvariantSet
generateStreaming(const trace::TraceSetReader &reader,
                  const Config &config, GenStats *stats,
                  support::ThreadPool *pool)
{
    Engine engine(config);

    // Chunks in stream order, so per-point record order matches the
    // in-memory path exactly.
    struct Job
    {
        size_t stream;
        size_t chunk;
    };
    std::vector<Job> jobs;
    for (size_t s = 0; s < reader.streams().size(); ++s) {
        for (size_t c = 0; c < reader.streams()[s].chunks.size(); ++c)
            jobs.push_back({s, c});
    }

    size_t window =
        std::max<size_t>(1, pool ? pool->threadCount() : 1);
    support::ResidentTracker resident;
    for (size_t base = 0; base < jobs.size(); base += window) {
        size_t count = std::min(window, jobs.size() - base);
        std::vector<Job> batch(jobs.begin() + long(base),
                               jobs.begin() + long(base + count));
        auto buffers =
            support::parallelMap(pool, batch, [&](const Job &j) {
                trace::TraceBuffer b;
                reader.readChunk(j.stream, j.chunk, b);
                return b;
            });
        std::vector<const trace::TraceBuffer *> ptrs;
        uint64_t windowRecords = 0;
        ptrs.reserve(buffers.size());
        for (const auto &b : buffers) {
            ptrs.push_back(&b);
            windowRecords += b.size();
        }
        // Decoded records plus their columnar transpose are the only
        // trace bytes resident in this phase.
        resident.set(2 * windowRecords * sizeof(trace::Record));
        trace::ColumnSet cols =
            trace::ColumnSet::build(ptrs, engine.slotIds());
        engine.add(cols, pool);
    }
    return engine.finish(stats, pool);
}

} // namespace scif::invgen
