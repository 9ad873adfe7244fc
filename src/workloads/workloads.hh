/**
 * @file
 * The training workload suite (paper §5.1).
 *
 * The paper generates traces from 17 programs — a Linux boot, SPEC
 * benchmarks, and small numeric kernels. We provide 17 synthetic
 * OR1K assembly programs with the same coverage intent: the "boot"
 * workload exercises the privileged architecture (every exception
 * class, interrupts, user/supervisor transitions, SPR traffic), and
 * the remaining workloads mirror the instruction mix their namesakes
 * are known for (pointer chasing for mcf, bit twiddling for gzip,
 * MAC-heavy loops for quake, ...). Together they cover every
 * implemented instruction.
 *
 * A constrained-random program generator is also provided for
 * property tests and coverage experiments.
 */

#ifndef SCIFINDER_WORKLOADS_WORKLOADS_HH
#define SCIFINDER_WORKLOADS_WORKLOADS_HH

#include <string>
#include <vector>

#include "cpu/cpu.hh"
#include "support/random.hh"
#include "trace/capture.hh"
#include "trace/record.hh"

namespace scif::support {
class ThreadPool;
} // namespace scif::support

namespace scif::workloads {

/** One training program. */
struct Workload
{
    std::string name;
    std::string source;       ///< OR1K assembly text
    cpu::CpuConfig config;    ///< memory size, IRQ schedule, budget
};

/** @return the 17 training workloads, in the paper's Figure 3 order. */
const std::vector<Workload> &all();

/** @return the workload with the given name; aborts if unknown. */
const Workload &byName(const std::string &name);

/**
 * Run a workload on a processor with the given mutations and return
 * its trace.
 *
 * @param w the workload.
 * @param mutations injected errata (empty = clean processor).
 * @param interpreted force the interpreted (non-predecoded) front
 *        end; the record stream is byte-identical either way.
 */
trace::TraceBuffer run(const Workload &w,
                       const cpu::MutationSet &mutations = {},
                       bool interpreted = false);

/**
 * Run a workload, emitting trace records into an arbitrary sink —
 * the out-of-core path: with a trace::TraceSetWriter stream as the
 * sink, records are sealed into compressed chunks as the simulation
 * produces them and never accumulate in memory.
 */
void runInto(const Workload &w, const cpu::MutationSet &mutations,
             bool interpreted, trace::TraceSink *sink);

/**
 * Run a workload, capturing straight into per-point columns (no AoS
 * intermediate). The capture reconstructs the exact run() record
 * stream via toRecords() and seals into the ColumnSet::build
 * geometry.
 */
trace::ColumnarCapture
runColumnar(const Workload &w, const cpu::MutationSet &mutations = {});

/**
 * Generate a constrained-random program: data operations over a wide
 * register pool, masked word-aligned memory accesses, forward and
 * backward function calls, syscalls, and benign SPR traffic, ending
 * in the halt idiom. Never hangs or dies on a clean processor.
 *
 * Random programs serve two roles: property-test stimulus, and the
 * *validation corpus* standing in for the paper's human expert, who
 * spent five hours marking identified SCI that are "clearly
 * non-invariant as determined by the ISA" (§5.7) — an invariant
 * violated by some clean random program is exactly that.
 *
 * @param rng random source.
 * @param length approximate number of instructions to emit.
 */
std::string randomProgram(Rng &rng, size_t length);

/**
 * @return a deterministic validation corpus: @p count random
 * programs executed on the clean processor. Program *generation*
 * consumes one sequential random stream and always runs serially;
 * only the executions fan out over @p pool, so the corpus does not
 * depend on the thread count.
 */
std::vector<trace::TraceBuffer>
validationCorpus(size_t count = 24, uint64_t seed = 0x5eed,
                 support::ThreadPool *pool = nullptr,
                 bool interpreted = false);

/**
 * @return the validation-corpus programs themselves (the same pure
 * function of (count, seed) validationCorpus() executes), without
 * running them.
 */
std::vector<Workload> validationPrograms(size_t count = 24,
                                         uint64_t seed = 0x5eed);

/**
 * Generate the validation corpus straight into a chunked
 * trace-set artifact at @p path — the streaming counterpart of
 * validationCorpus(): the record streams and therefore the artifact
 * bytes are identical for any @p pool, and writer memory stays
 * bounded by the chunk size. @return per-stream record counts, in
 * corpus order.
 */
std::vector<uint64_t>
validationCorpusToStore(const std::string &path, size_t count = 24,
                        uint64_t seed = 0x5eed,
                        support::ThreadPool *pool = nullptr,
                        bool interpreted = false,
                        uint32_t chunkRecords = 4096);

} // namespace scif::workloads

#endif // SCIFINDER_WORKLOADS_WORKLOADS_HH
