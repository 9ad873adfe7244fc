#include "assertion.hh"

#include <algorithm>
#include <set>

#include "lint.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace scif::monitor {

std::string_view
templateName(Template t)
{
    switch (t) {
      case Template::Always: return "always";
      case Template::Edge: return "edge";
      case Template::Next: return "next";
      case Template::Delta: return "delta";
    }
    return "?";
}

size_t
Assertion::pointCount() const
{
    std::set<uint16_t> points;
    for (const auto &m : members)
        points.insert(m.point.id());
    return points.size();
}

namespace {

/** Does the expression reference orig() state? */
bool
usesOrig(const expr::Invariant &inv)
{
    for (const auto &ref : inv.lhs.vars()) {
        if (ref.orig)
            return true;
    }
    if (inv.op != expr::CmpOp::In) {
        for (const auto &ref : inv.rhs.vars()) {
            if (ref.orig)
                return true;
        }
    }
    return false;
}

} // namespace

std::vector<Assertion>
synthesize(const invgen::InvariantSet &set,
           const std::vector<size_t> &indices)
{
    // Group members by exact expression (constants included: the
    // enforced proposition must be identical).
    std::map<std::string, std::vector<size_t>> groups;
    std::vector<expr::Invariant> lintees;
    for (size_t idx : indices) {
        groups[set.all()[idx].exprKey()].push_back(idx);
        lintees.push_back(set.all()[idx]);
    }
    reportLint(lintees);

    std::vector<Assertion> out;
    size_t counter = 0;
    for (const auto &[exprKey, members] : groups) {
        Assertion a;
        a.representative = set.all()[members.front()];
        for (size_t idx : members)
            a.members.push_back(set.all()[idx]);

        if (usesOrig(a.representative))
            a.kind = Template::Next;
        else if (a.pointCount() > 30)
            a.kind = Template::Always;
        else
            a.kind = Template::Edge;

        a.name = format("a%zu", counter++);
        out.push_back(std::move(a));
    }
    return out;
}

CompiledAssertionSet::CompiledAssertionSet(
    std::vector<Assertion> assertions)
    : assertions_(std::move(assertions))
{
    compiled_.resize(assertions_.size());
    for (size_t ai = 0; ai < assertions_.size(); ++ai) {
        const auto &members = assertions_[ai].members;
        compiled_[ai].reserve(members.size());
        for (size_t mi = 0; mi < members.size(); ++mi) {
            index_[members[mi].point.id()].push_back({ai, mi});
            points_.insert(members[mi].point.id());
            compiled_[ai].push_back(
                expr::CompiledInvariant::compile(members[mi]));
        }
    }
}

AssertionMonitor::AssertionMonitor(std::vector<Assertion> assertions)
    : set_(std::make_shared<const CompiledAssertionSet>(
          std::move(assertions)))
{}

AssertionMonitor::AssertionMonitor(
    std::shared_ptr<const CompiledAssertionSet> set)
    : set_(std::move(set))
{}

void
AssertionMonitor::record(const trace::Record &rec)
{
    set_->check(rec, [this](const FiredEvent &e) { fired_.push_back(e); });
}

std::vector<size_t>
AssertionMonitor::firedAssertions() const
{
    std::set<size_t> seen;
    for (const auto &e : fired_)
        seen.insert(e.assertion);
    return std::vector<size_t>(seen.begin(), seen.end());
}

void
AssertionMonitor::clearFirings()
{
    fired_.clear();
}

} // namespace scif::monitor
