/**
 * @file
 * The workload interface of the SCIFinder benchmark.
 *
 * The runner (main.cc) owns the clock: it times setup() plus one
 * warm-up operate() for setup_s, calls reference() untimed, then times
 * one operate() per operation and calls check() after the clock has
 * stopped. A workload reports
 * what its last operation consumed and, in the traced run, the layer
 * counters and probes the per-layer metrics need.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/** Worker threads for every pool the benchmark creates. */
constexpr size_t kJobs = 4;

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the inputs and the system under test (timed: setup_s).
     *  Called several times; each call rebuilds the same state, so the
     *  oracle from the first call stays valid. */
    virtual void setup() = 0;

    /** Compute the oracle the operations are checked against. */
    virtual void reference() = 0;

    /**
     * One operation. @p traced selects the call sequence that brackets
     * each layer call with a span; it must compute the same outputs.
     */
    virtual void operate(bool traced) = 0;

    /** Compare the last operation's outputs with the oracle; on a
     *  mismatch return false and say why. */
    virtual bool check(std::string &why) = 0;

    /** Retirement events the last operation processed. */
    virtual uint64_t events() const = 0;

    /** Latency of each session of the last operation, in ms. Empty
     *  when the operation itself is the one session. */
    virtual std::vector<double> sessionsMs() const { return {}; }

    /** Extra layer timings, run after a traced operation and outside
     *  its span. */
    virtual void probe() {}

    /** Layer counters of the last traced operation and its probe. */
    virtual void counters(std::map<std::string, double> &) const {}

    /** Name of the spans whose children are the layer calls, and how
     *  many of them run concurrently during one operation. */
    virtual const char *callerSpan() const { return "bench.op"; }
    virtual size_t callers() const { return 1; }
};

/** Where a workload may write its files; removed when the run ends. */
struct Options
{
    uint64_t seed = 0;
    std::string workDir;
};

std::unique_ptr<Workload> makePipeline(const Options &options);
std::unique_ptr<Workload> makeIdentifyStore(const Options &options);
std::unique_ptr<Workload> makeServeReplay(const Options &options);

/** Mix a benchmark seed into a well-spread 64-bit generator seed. */
uint64_t deriveSeed(uint64_t seed, uint64_t stream);

/** FNV-1a 64 over @p bytes, continuing from @p h. */
uint64_t fnv1a(const std::string &bytes,
               uint64_t h = 1469598103934665603ull);

/** The whole contents of a file (empty if it cannot be read). */
std::string readFile(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
