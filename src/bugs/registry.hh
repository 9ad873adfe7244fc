/**
 * @file
 * The security-critical bug registry (paper Table 1 and §5.6).
 *
 * Each entry pairs a reproduced erratum (a simulator mutation, see
 * cpu/mutation.hh) with the trigger program that makes it manifest —
 * the paper's "program written in a mixture of C and assembly that
 * attacks the buggy processor". The b-series are the 17 security
 * errata of Table 1 used to *identify* SCI; the h-series are the 14
 * held-out bugs used only to *test* the final assertion set (§5.6,
 * standing in for the SPECS AMD-errata reproductions).
 */

#ifndef SCIFINDER_BUGS_REGISTRY_HH
#define SCIFINDER_BUGS_REGISTRY_HH

#include <string>
#include <vector>

#include "cpu/cpu.hh"
#include "trace/record.hh"

namespace scif::bugs {

/** One reproduced erratum plus its trigger. */
struct Bug
{
    std::string id;          ///< "b1".."b17", "h1".."h14"
    std::string synopsis;    ///< Table 1 wording
    std::string source;      ///< erratum provenance
    cpu::Mutation mutation;  ///< the injected defect
    bool heldOut;            ///< h-series (never used to identify SCI)
    std::string trigger;     ///< OR1K assembly of the attack program
    cpu::CpuConfig config;   ///< trigger run configuration
};

/** @return all 31 bugs, b-series then h-series. */
const std::vector<Bug> &all();

/** @return bug by id; aborts if unknown. */
const Bug &byId(const std::string &id);

/** @return the 17 identification bugs of Table 1. */
std::vector<const Bug *> table1();

/** @return the bugs @p ids names, in order, or table1() when it
 *  names none; aborts on an unknown id. */
std::vector<const Bug *>
resolve(const std::vector<std::string> &ids);

/** @return the 14 held-out bugs of §5.6. */
std::vector<const Bug *> heldOut();

/**
 * Run a bug's trigger program.
 *
 * @param bug the bug.
 * @param buggy true to run on the processor with the defect
 *              injected, false for the clean processor.
 * @return the execution trace.
 */
trace::TraceBuffer runTrigger(const Bug &bug, bool buggy);

/** The buggy/clean trigger trace pair identification diffs. */
struct TriggerTraces
{
    trace::TraceBuffer buggy;
    trace::TraceBuffer clean;
};

/**
 * Run a bug's trigger on the buggy and the clean processor using a
 * single Cpu: the defect is toggled with setMutations() between the
 * runs, so the predecoded block cache keeps both variants resident
 * under their mutation keys. The program is reloaded between runs
 * only if the buggy run dirtied memory. Traces are identical to two
 * runTrigger() calls.
 */
TriggerTraces runTriggers(const Bug &bug);

} // namespace scif::bugs

#endif // SCIFINDER_BUGS_REGISTRY_HH
