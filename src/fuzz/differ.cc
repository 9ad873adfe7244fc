#include "differ.hh"

#include <numeric>

#include "cpu/cpu.hh"
#include "fuzz/refsim.hh"
#include "support/strings.hh"

namespace scif::fuzz {

namespace {

/** SPRs diffed at every boundary. */
const uint16_t kSprs[] = {
    isa::spr::SR,    isa::spr::EPCR0, isa::spr::EEAR0, isa::spr::ESR0,
    isa::spr::MACLO, isa::spr::MACHI, isa::spr::PICMR, isa::spr::PICSR,
    isa::spr::TTMR,  isa::spr::TTCR,
};

const char *
statusName(cpu::StepStatus s)
{
    switch (s) {
      case cpu::StepStatus::Running: return "running";
      case cpu::StepStatus::Halted: return "halted";
      case cpu::StepStatus::Wedged: return "wedged";
      case cpu::StepStatus::Budget: return "budget";
    }
    return "?";
}

const char *
statusName(RefStatus s)
{
    switch (s) {
      case RefStatus::Running: return "running";
      case RefStatus::Halted: return "halted";
      case RefStatus::Budget: return "budget";
    }
    return "?";
}

/** Compare one boundary; fills @p what with the first mismatch. */
bool
compareState(const cpu::Cpu &c, const RefSim &r, std::string &what)
{
    if (c.pc() != r.pc()) {
        what = format("pc: cpu=%08x ref=%08x", c.pc(), r.pc());
        return false;
    }
    if (c.retired() != r.retired()) {
        what = format("retired: cpu=%llu ref=%llu",
                      (unsigned long long)c.retired(),
                      (unsigned long long)r.retired());
        return false;
    }
    for (unsigned n = 0; n < isa::numGprs; ++n) {
        if (c.gpr(n) != r.gpr(n)) {
            what = format("r%u: cpu=%08x ref=%08x", n, c.gpr(n),
                          r.gpr(n));
            return false;
        }
    }
    for (uint16_t spr : kSprs) {
        if (c.readSpr(spr) != r.readSpr(spr)) {
            what = format("%s: cpu=%08x ref=%08x",
                          isa::spr::name(spr).c_str(), c.readSpr(spr),
                          r.readSpr(spr));
            return false;
        }
    }
    for (uint32_t w : r.lastDirty()) {
        if (c.memory().debugReadWord(w) != r.word(w)) {
            what = format("mem[%08x]: cpu=%08x ref=%08x", w,
                          c.memory().debugReadWord(w), r.word(w));
            return false;
        }
    }
    return true;
}

} // namespace

Divergence
diffProgram(const assembler::Program &program, const DiffConfig &config)
{
    cpu::CpuConfig cc;
    cc.memBytes = config.memBytes;
    cc.userBase = config.userBase;
    cc.maxInsns = config.maxInsns;
    cc.mutations = config.mutations;
    cc.predecode = config.predecode;
    cpu::Cpu c(cc);
    c.loadProgram(program);

    RefConfig rc;
    rc.memBytes = config.memBytes;
    rc.userBase = config.userBase;
    rc.maxInsns = config.maxInsns;
    RefSim r(rc);
    r.loadProgram(program);

    Divergence d;
    for (uint64_t step = 0; step < config.maxSteps; ++step) {
        cpu::StepStatus cs = c.step(nullptr);
        RefStatus rs = r.step();

        bool statusMatch =
            (cs == cpu::StepStatus::Running &&
             rs == RefStatus::Running) ||
            (cs == cpu::StepStatus::Halted && rs == RefStatus::Halted) ||
            (cs == cpu::StepStatus::Budget && rs == RefStatus::Budget);
        if (!statusMatch) {
            d.diverged = true;
            d.step = step;
            d.what = format("status: cpu=%s ref=%s", statusName(cs),
                            statusName(rs));
            return d;
        }

        std::string what;
        if (!compareState(c, r, what)) {
            d.diverged = true;
            d.step = step;
            d.what = what;
            return d;
        }

        if (cs != cpu::StepStatus::Running)
            break;
    }

    // Final full-memory sweep: catches stores the per-step dirty
    // tracking would only see through the reference's own writes.
    for (uint32_t w = 0; w + 4 <= r.memBytes(); w += 4) {
        if (c.memory().debugReadWord(w) != r.word(w)) {
            d.diverged = true;
            d.step = config.maxSteps;
            d.what = format("final mem[%08x]: cpu=%08x ref=%08x", w,
                            c.memory().debugReadWord(w), r.word(w));
            return d;
        }
    }
    return d;
}

ShrinkResult
shrink(const GeneratedProgram &program, const DiffConfig &config)
{
    auto diverges = [&](const std::vector<size_t> &keep) {
        auto result = assembler::assemble(program.sourceSubset(keep));
        if (!result.ok)
            return Divergence{};
        return diffProgram(result.program, config);
    };

    std::vector<size_t> kept(program.gadgets.size());
    std::iota(kept.begin(), kept.end(), size_t(0));
    Divergence last = diverges(kept);

    // Remove contiguous chunks, halving the chunk size down to single
    // gadgets; restart a granularity level after any successful
    // removal so interactions re-settle.
    for (size_t chunk = std::max<size_t>(kept.size() / 2, 1);
         chunk >= 1; chunk /= 2) {
        bool removed = true;
        while (removed && kept.size() > 1) {
            removed = false;
            for (size_t at = 0; at + chunk <= kept.size();
                 at += chunk) {
                std::vector<size_t> trial = kept;
                trial.erase(trial.begin() + long(at),
                            trial.begin() + long(at + chunk));
                Divergence d = diverges(trial);
                if (d) {
                    kept = std::move(trial);
                    last = d;
                    removed = true;
                    break;
                }
            }
        }
        if (chunk == 1)
            break;
    }

    ShrinkResult result;
    result.kept = kept;
    result.source = program.sourceSubset(kept);
    result.divergence = last;
    return result;
}

} // namespace scif::fuzz
