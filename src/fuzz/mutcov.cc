#include "mutcov.hh"

#include <algorithm>

#include "bugs/registry.hh"
#include "cpu/cpu.hh"
#include "support/strings.hh"
#include "trace/record.hh"

namespace scif::fuzz {

namespace {

/** One complete execution: trace plus end-of-run summary. */
struct Execution
{
    trace::TraceBuffer trace;
    cpu::RunResult result;
    std::array<uint32_t, isa::numGprs> gpr{};
    uint32_t pc = 0;
    uint32_t sr = 0;
    uint32_t epcr = 0;
    uint32_t eear = 0;
};

/**
 * Run @p program on @p c under @p mutations into @p exec, reusing its
 * trace storage. loadProgram() resets the processor to the state a
 * fresh Cpu would have, so the runs of one program share one Cpu.
 */
void
execute(cpu::Cpu &c, const assembler::Program &program,
        const cpu::MutationSet &mutations, Execution &exec)
{
    exec.trace.clear();
    c.setMutations(mutations);
    c.loadProgram(program);
    exec.result = c.run(&exec.trace);
    for (unsigned n = 0; n < isa::numGprs; ++n)
        exec.gpr[n] = c.gpr(n);
    exec.pc = c.pc();
    exec.sr = c.readSpr(isa::spr::SR);
    exec.epcr = c.readSpr(isa::spr::EPCR0);
    exec.eear = c.readSpr(isa::spr::EEAR0);
}

bool
sameRecord(const trace::Record &a, const trace::Record &b)
{
    return a.point == b.point && a.fused == b.fused && a.pre == b.pre &&
           a.post == b.post;
}

/** @return true when the two executions are distinguishable. */
bool
distinguishable(const Execution &clean, const Execution &mutant)
{
    if (clean.result.reason != mutant.result.reason ||
        clean.result.instructions != mutant.result.instructions)
        return true;
    if (clean.pc != mutant.pc || clean.sr != mutant.sr ||
        clean.epcr != mutant.epcr || clean.eear != mutant.eear ||
        clean.gpr != mutant.gpr)
        return true;
    const auto &cr = clean.trace.records();
    const auto &mr = mutant.trace.records();
    if (cr.size() != mr.size())
        return true;
    for (size_t i = 0; i < cr.size(); ++i) {
        if (!sameRecord(cr[i], mr[i]))
            return true;
    }
    return false;
}

} // namespace

uint64_t
killMask(const assembler::Program &program, const MutCovConfig &config)
{
    cpu::CpuConfig cc;
    cc.memBytes = config.memBytes;
    cc.userBase = config.userBase;
    cc.maxInsns = config.maxInsns;
    cpu::Cpu c(cc);

    Execution clean, mutant;
    execute(c, program, {}, clean);

    // The mutant runs share one Cpu and one trace buffer, so only the
    // first of them pays for allocating and growing them.
    uint64_t mask = 0;
    for (size_t m = 0; m < cpu::numMutations; ++m) {
        execute(c, program, {cpu::Mutation(m)}, mutant);
        if (distinguishable(clean, mutant))
            mask |= uint64_t(1) << m;
    }
    return mask;
}

CoverageReport
tallyCoverage(const std::vector<uint64_t> &masks)
{
    CoverageReport report;
    report.scores.resize(cpu::numMutations);
    for (const bugs::Bug &bug : bugs::all()) {
        MutationScore &score = report.scores[size_t(bug.mutation)];
        score.mutation = bug.mutation;
        score.bugId = bug.id;
        score.synopsis = bug.synopsis;
        score.heldOut = bug.heldOut;
        score.programs = uint32_t(masks.size());
    }
    for (size_t i = 0; i < masks.size(); ++i) {
        for (size_t m = 0; m < cpu::numMutations; ++m) {
            if (!(masks[i] >> m & 1))
                continue;
            MutationScore &score = report.scores[m];
            ++score.kills;
            if (score.firstKiller < 0)
                score.firstKiller = int64_t(i);
        }
    }
    return report;
}

CoverageReport
runCoverage(const std::vector<assembler::Program> &corpus,
            const MutCovConfig &config, support::ThreadPool *pool)
{
    return tallyCoverage(support::parallelMap(
        pool, corpus, [&](const assembler::Program &program) {
            return killMask(program, config);
        }));
}

bool
CoverageReport::allTable1Killed() const
{
    return std::all_of(scores.begin(), scores.end(),
                       [](const MutationScore &s) {
                           return s.heldOut || s.killed();
                       });
}

std::vector<std::string>
CoverageReport::survivors() const
{
    std::vector<std::string> out;
    for (const MutationScore &s : scores) {
        if (!s.killed())
            out.push_back(s.bugId);
    }
    return out;
}

std::string
CoverageReport::render() const
{
    std::string out;
    out += "mutation coverage\n";
    out += "=================\n";
    out += format("%-5s %-9s %7s %9s  %s\n", "bug", "status", "kills",
                  "corpus", "synopsis");
    for (const MutationScore &s : scores) {
        out += format("%-5s %-9s %7u %9u  %s%s\n", s.bugId.c_str(),
                      s.killed() ? "killed" : "SURVIVED", s.kills,
                      s.programs, s.synopsis.c_str(),
                      s.heldOut ? " [held out]" : "");
    }
    uint32_t killedB = 0, totalB = 0, killedH = 0, totalH = 0;
    for (const MutationScore &s : scores) {
        (s.heldOut ? totalH : totalB) += 1;
        if (s.killed())
            (s.heldOut ? killedH : killedB) += 1;
    }
    out += format("table 1: %u/%u killed; held out: %u/%u killed\n",
                  killedB, totalB, killedH, totalH);
    out += format("gate (all table 1 killed): %s\n",
                  allTable1Killed() ? "PASS" : "FAIL");
    return out;
}

} // namespace scif::fuzz
