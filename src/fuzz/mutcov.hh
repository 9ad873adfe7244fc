/**
 * @file
 * Mutation-coverage harness: runs every fuzz-corpus program on the
 * clean CPU and on each single-mutation CPU, and scores a mutation as
 * *killed* by a program when the two executions diverge — in the
 * emitted trace records (program point, fused flag, or any pre/post
 * state variable), in the final architectural state, or in how the
 * run ended (halt reason, retired count).
 *
 * The resulting report is the corpus-quality gate: every Table 1
 * (b-series) mutation must be killed by at least one program, or the
 * downstream SCI identification would be exercising bugs the corpus
 * cannot even observe. Held-out h-series survivors are reported but
 * not gated (some are ISA-invisible or need external interrupts by
 * design).
 */

#ifndef SCIFINDER_FUZZ_MUTCOV_HH
#define SCIFINDER_FUZZ_MUTCOV_HH

#include <cstdint>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "cpu/mutation.hh"
#include "support/threadpool.hh"

namespace scif::fuzz {

/** Mutation-coverage run parameters. */
struct MutCovConfig
{
    uint32_t memBytes = 1 << 18;
    uint32_t userBase = 0x2000;
    uint64_t maxInsns = 20000;
};

/** Kill statistics for one mutation across the corpus. */
struct MutationScore
{
    cpu::Mutation mutation;
    std::string bugId;      ///< registry id ("b1".."h14")
    std::string synopsis;   ///< registry synopsis
    bool heldOut = false;
    uint32_t kills = 0;     ///< programs that killed this mutation
    uint32_t programs = 0;  ///< corpus size
    int64_t firstKiller = -1; ///< lowest killing program index

    bool killed() const { return kills > 0; }
};

/** Corpus-wide coverage results. */
struct CoverageReport
{
    std::vector<MutationScore> scores; ///< in Mutation enum order

    /** @return true when every Table 1 (b-series) mutation is killed. */
    bool allTable1Killed() const;

    /** Mutations (bug ids) no program killed. */
    std::vector<std::string> survivors() const;

    /** Deterministic text report (kill rates per mutation). */
    std::string render() const;
};

/**
 * @return the kill bitmask of one program: bit i set when the program
 * distinguishes Mutation(i) from the clean CPU.
 */
uint64_t killMask(const assembler::Program &program,
                  const MutCovConfig &config);

/**
 * Tally per-program kill masks, in corpus order, into the corpus-wide
 * report: kills per mutation and the lowest killing index.
 */
CoverageReport tallyCoverage(const std::vector<uint64_t> &masks);

/**
 * Score the whole corpus; programs fan out over @p pool (results are
 * independent of the job count).
 */
CoverageReport runCoverage(const std::vector<assembler::Program> &corpus,
                           const MutCovConfig &config,
                           support::ThreadPool *pool);

} // namespace scif::fuzz

#endif // SCIFINDER_FUZZ_MUTCOV_HH
