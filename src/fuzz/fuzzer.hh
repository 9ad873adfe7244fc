/**
 * @file
 * Top-level fuzzing driver: generates (or replays) a corpus, runs the
 * differential co-simulation on every program, shrinks any mismatch
 * to a minimal repro, optionally scores mutation coverage, and writes
 * the corpus/report artifacts. Drives `scifinder fuzz`.
 *
 * Determinism contract: for a fixed (seed, count, generator config)
 * the corpus, every report, and every artifact byte are identical
 * across runs and across --jobs values. One pool task per program
 * generates it from its own (seed, index)-derived Rng stream (or
 * reads its replay file) and runs it to an outcome; outcomes are
 * collected in index order.
 */

#ifndef SCIFINDER_FUZZ_FUZZER_HH
#define SCIFINDER_FUZZ_FUZZER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/mutation.hh"
#include "fuzz/differ.hh"
#include "fuzz/mutcov.hh"
#include "fuzz/progen.hh"
#include "support/threadpool.hh"

namespace scif::fuzz {

/** One fuzzing campaign's parameters. */
struct FuzzConfig
{
    uint64_t seed = 1;          ///< corpus master seed
    uint32_t count = 256;       ///< programs to generate
    bool mutationCoverage = false; ///< also score mutation kills
    std::string artifactDir;    ///< save corpus + reports here ("" = no)
    std::string replayDir;      ///< replay *.s from here instead of
                                ///< generating ("" = generate)
    GenConfig gen;              ///< program-shape knobs
    uint64_t maxInsns = 20000;  ///< per-program retirement budget

    /** Mutations injected into the Cpu side of every co-simulation
     *  (empty = clean CPU vs reference). There is no CLI flag for
     *  it: tests set it to force divergences. */
    cpu::MutationSet mutations;
};

/** One diverging program, minimized. */
struct Repro
{
    uint32_t index = 0;     ///< corpus index
    std::string name;       ///< program name
    Divergence divergence;  ///< mismatch of the minimized program
    std::string source;     ///< minimal diverging source
};

/** Results of one fuzzing campaign. */
struct FuzzResult
{
    uint32_t programs = 0;
    std::vector<Repro> repros;   ///< divergences, minimized
    bool coverageRan = false;
    CoverageReport coverage;

    /** Campaign verdict: no divergence and (when run) a full Table 1
     *  mutation kill. */
    bool ok() const;

    /** Deterministic human-readable campaign report. */
    std::string render() const;
};

/**
 * Run one campaign. @p pool may be null (serial).
 *
 * @throw support::IoError when the replay directory or a replay file
 *        cannot be read, a replay program does not assemble, or an
 *        artifact cannot be written (the lowest-index failure).
 */
FuzzResult runFuzz(const FuzzConfig &config, support::ThreadPool *pool);

} // namespace scif::fuzz

#endif // SCIFINDER_FUZZ_FUZZER_HH
