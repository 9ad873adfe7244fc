/**
 * @file
 * Differential co-simulation: run the OR1200-model Cpu and the naive
 * reference interpreter in lockstep and diff the software-visible
 * architectural state at every instruction boundary — GPRs, PC, the
 * exception/status SPRs, the MAC accumulator, and every memory word
 * the reference dirtied on that boundary — plus a full-memory sweep
 * when the run ends. A ddmin-style shrinker reduces a mismatching
 * program to a minimal gadget subset that still diverges.
 */

#ifndef SCIFINDER_FUZZ_DIFFER_HH
#define SCIFINDER_FUZZ_DIFFER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "cpu/mutation.hh"
#include "fuzz/progen.hh"

namespace scif::fuzz {

/** Co-simulation parameters. */
struct DiffConfig
{
    /** Mutations injected into the Cpu side only (empty = clean CPU
     *  vs reference; non-empty turns the differ into a mutant
     *  detector, which is how the shrinker minimizes mutation
     *  repros). */
    cpu::MutationSet mutations;
    uint32_t memBytes = 1 << 18;
    uint32_t userBase = 0x2000;
    uint64_t maxInsns = 20000;  ///< retirement budget per side
    uint64_t maxSteps = 40000;  ///< lockstep boundary limit

    /** Cpu-side front end: predecoded block cache (the default) or
     *  the interpreted fetch-decode loop. The reference interpreter
     *  is independent of both, so the differ doubles as the oracle
     *  for the front ends themselves. */
    bool predecode = true;
};

/** First mismatch found by a co-simulation run. */
struct Divergence
{
    bool diverged = false;
    uint64_t step = 0;   ///< boundary index of the first mismatch
    std::string what;    ///< human-readable mismatch description

    explicit operator bool() const { return diverged; }
};

/** Run both implementations on @p program and report the first
 *  mismatch (if any). */
Divergence diffProgram(const assembler::Program &program,
                       const DiffConfig &config);

/** Result of shrinking a diverging generated program. */
struct ShrinkResult
{
    std::vector<size_t> kept;  ///< surviving gadget indices
    std::string source;        ///< reassembled minimal program
    Divergence divergence;     ///< mismatch of the minimal program
};

/**
 * Minimize a diverging program by removing gadgets (halving chunk
 * sizes down to single gadgets) while the divergence persists.
 * @p program must diverge under @p config to begin with.
 */
ShrinkResult shrink(const GeneratedProgram &program,
                    const DiffConfig &config);

} // namespace scif::fuzz

#endif // SCIFINDER_FUZZ_DIFFER_HH
