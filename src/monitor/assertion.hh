/**
 * @file
 * Runtime assertions (paper §2, §4.2).
 *
 * SCI are translated into OVL-style assertion templates and enforced
 * by a monitor that watches the processor's retirement stream — the
 * SPECS-like dynamic verification the paper evaluates. Invariants
 * with the same expression are synthesized into a single assertion
 * enforced at the union of their program points (the paper's 54
 * identified SCI become 14 assertions the same way).
 *
 * Template selection follows §4.2:
 *  - next:   the expression references orig() state, so the checker
 *            samples the instruction and tests one cycle later
 *            against registered previous values;
 *  - edge:   the expression is over post state and is tied to
 *            specific instructions;
 *  - always: the expression is over post state and holds at
 *            (almost) every program point;
 *  - delta:  bounded-update template, provided for completeness.
 */

#ifndef SCIFINDER_MONITOR_ASSERTION_HH
#define SCIFINDER_MONITOR_ASSERTION_HH

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "expr/compile.hh"
#include "invgen/invgen.hh"
#include "trace/record.hh"

namespace scif::monitor {

/** OVL assertion templates (§4.2). */
enum class Template { Always, Edge, Next, Delta };

/** @return printable template name. */
std::string_view templateName(Template t);

/** One synthesizable assertion. */
struct Assertion
{
    std::string name;        ///< e.g. "a12_sr_restore"
    Template kind;
    /** The enforced expression (representative member). */
    expr::Invariant representative;
    /** Every (point, expression) instance folded into it. */
    std::vector<expr::Invariant> members;

    /** Number of distinct program points covered. */
    size_t pointCount() const;
};

/**
 * Synthesize assertions from invariants: members sharing an
 * expression merge into one assertion over a point set.
 *
 * @param set the invariant model.
 * @param indices the SCI to enforce.
 */
std::vector<Assertion> synthesize(const invgen::InvariantSet &set,
                                  const std::vector<size_t> &indices);

/** One assertion firing. */
struct FiredEvent
{
    size_t assertion;       ///< index into assertions()
    uint64_t recordIndex;   ///< retirement index
    trace::Point point;     ///< where it fired
};

/**
 * An assertion set with every member expression compiled to its flat
 * register-machine program, plus the point-dispatch index derived
 * from the members. Immutable after construction, so one instance is
 * safely shared — without copies — between a sequential
 * AssertionMonitor and every worker shard of a monitor::CheckService.
 * Both check records through check(), so their firings agree by
 * construction.
 */
class CompiledAssertionSet
{
  public:
    explicit CompiledAssertionSet(std::vector<Assertion> assertions);

    const std::vector<Assertion> &assertions() const
    {
        return assertions_;
    }

    /**
     * Members enforced at a point, as (assertion, member) pairs in
     * ascending lexicographic order — the order the sequential
     * monitor fires them in. Null when nothing watches the point.
     */
    const std::vector<std::pair<size_t, size_t>> *
    membersAt(uint16_t pointId) const
    {
        auto it = index_.find(pointId);
        return it == index_.end() ? nullptr : &it->second;
    }

    /** Every watched point id. */
    const std::set<uint16_t> &points() const { return points_; }

    /**
     * Check one record: call @p fire with a FiredEvent for every
     * member enforced at the record's point that the record
     * violates, in membersAt() order.
     */
    template <typename Fire>
    void
    check(const trace::Record &rec, Fire &&fire) const
    {
        const auto *members = membersAt(rec.point.id());
        if (members == nullptr)
            return;
        for (const auto &[ai, mi] : *members) {
            if (!compiled_[ai][mi].holdsRecord(rec))
                fire(FiredEvent{ai, rec.index, rec.point});
        }
    }

  private:
    std::vector<Assertion> assertions_;
    /** Compiled member programs, parallel to assertions_[i].members. */
    std::vector<std::vector<expr::CompiledInvariant>> compiled_;
    /** point id -> list of (assertion index, member index). */
    std::map<uint16_t, std::vector<std::pair<size_t, size_t>>> index_;
    std::set<uint16_t> points_;
};

/**
 * The execution monitor: attach as a trace sink and it evaluates
 * every enforced assertion at each instruction boundary, recording
 * firings (it does not halt the processor; what a system does on a
 * firing is a design choice the paper leaves open).
 *
 * Member expressions are compiled once at construction; the per-
 * record check runs the flat register-machine program rather than
 * walking the Operand tree (the interpreted path remains the oracle
 * pinned by the differential tests).
 */
class AssertionMonitor : public trace::TraceSink
{
  public:
    explicit AssertionMonitor(std::vector<Assertion> assertions);
    /** Share an already-compiled set (no recompilation). */
    explicit AssertionMonitor(
        std::shared_ptr<const CompiledAssertionSet> set);

    void record(const trace::Record &rec) override;

    const std::vector<Assertion> &assertions() const
    {
        return set_->assertions();
    }
    const std::shared_ptr<const CompiledAssertionSet> &set() const
    {
        return set_;
    }
    const std::vector<FiredEvent> &fired() const { return fired_; }
    bool anyFired() const { return !fired_.empty(); }

    /** Distinct assertions that fired at least once. */
    std::vector<size_t> firedAssertions() const;

    /** Forget recorded firings (assertions stay armed). */
    void clearFirings();

  private:
    std::shared_ptr<const CompiledAssertionSet> set_;
    std::vector<FiredEvent> fired_;
};

} // namespace scif::monitor

#endif // SCIFINDER_MONITOR_ASSERTION_HH
