/**
 * @file
 * The staged-execution substrate of the pipeline.
 *
 * The tool chain is four independent phases (paper Fig. 1); each is
 * expressed as a Stage: a named, typed transformation In -> Out that
 * runs inside a StageContext carrying the shared worker pool and
 * collecting per-stage wall-clock timing and item counters. Stages
 * fan their internal work out over the pool (per workload, per
 * program point, per bug) but every fan-out merges deterministically,
 * so a stage's output is a pure function of its input regardless of
 * the thread count — which is what makes the inter-stage artifacts
 * (see core/artifacts.hh) stable, cacheable phase boundaries.
 */

#ifndef SCIFINDER_CORE_STAGE_HH
#define SCIFINDER_CORE_STAGE_HH

#include <chrono>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "support/memstats.hh"
#include "support/threadpool.hh"

namespace scif::core {

/** Completed-stage accounting: one entry per executed stage. */
struct StageStats
{
    std::string name;
    double seconds = 0;
    uint64_t itemsIn = 0;
    uint64_t itemsOut = 0;
    /** Process peak RSS (KiB) sampled when the stage finished —
     *  monotone across stages, so the first stage to print a given
     *  value is the one that grew the process. */
    uint64_t maxRssKb = 0;
    /** High-water mark (bytes) of decoded trace data resident in
     *  this stage's streaming readers/writers. Zero for stages that
     *  never touch the trace store. */
    uint64_t traceResidentPeak = 0;
};

/** Execution environment shared by the stages of one pipeline run. */
class StageContext
{
  public:
    /**
     * @param pool worker pool for intra-stage fan-out; null runs
     *        every stage serially.
     * @param sink destination for per-stage statistics (may be null).
     */
    explicit StageContext(support::ThreadPool *pool,
                          std::vector<StageStats> *sink = nullptr)
        : pool_(pool), sink_(sink)
    {}

    /** @return the worker pool (null = serial execution). */
    support::ThreadPool *pool() const { return pool_; }

    /** Record one completed stage. */
    void
    record(StageStats stats)
    {
        if (sink_)
            sink_->push_back(std::move(stats));
    }

    /** @return total recorded seconds of the named stage. */
    double
    seconds(const std::string &name) const
    {
        double total = 0;
        if (sink_) {
            for (const auto &s : *sink_) {
                if (s.name == name)
                    total += s.seconds;
            }
        }
        return total;
    }

  private:
    support::ThreadPool *pool_;
    std::vector<StageStats> *sink_;
};

namespace detail {

/** Item count of a stage input/output: its size if it has one. */
template <typename T>
uint64_t
countItems(const T &value)
{
    if constexpr (requires { value.size(); })
        return uint64_t(value.size());
    else
        return 1;
}

} // namespace detail

/**
 * One pipeline stage: a named transformation In -> Out. Running it
 * times the transformation and reports (seconds, |In|, |Out|) to the
 * context. The input is taken by mutable reference so a stage may
 * transform in place (the optimizer rewrites the invariant model);
 * pure stages simply read it.
 */
template <typename In, typename Out>
class Stage
{
  public:
    using Fn = std::function<Out(StageContext &, In &)>;
    /** The items a stage produced, given its input after the run and
     *  its output. */
    using Count = std::function<uint64_t(const In &, const Out &)>;

    /**
     * @param count items produced, for stages whose output is not a
     *        container of them (an in-place rewrite, or a result
     *        struct); by default the output's size().
     */
    Stage(std::string name, Fn fn, Count count = {})
        : name_(std::move(name)), fn_(std::move(fn)),
          count_(std::move(count))
    {}

    const std::string &name() const { return name_; }

    /** Execute the stage under the context's pool and accounting. */
    Out
    run(StageContext &ctx, In &in) const
    {
        StageStats stats;
        stats.name = name_;
        stats.itemsIn = detail::countItems(in);
        support::ResidentGauge::resetHighWater();
        auto start = std::chrono::steady_clock::now();
        Out out = fn_(ctx, in);
        auto end = std::chrono::steady_clock::now();
        stats.seconds =
            std::chrono::duration<double>(end - start).count();
        stats.itemsOut =
            count_ ? count_(in, out) : detail::countItems(out);
        stats.maxRssKb = support::peakRssKb();
        stats.traceResidentPeak = support::ResidentGauge::highWater();
        ctx.record(std::move(stats));
        return out;
    }

  private:
    std::string name_;
    Fn fn_;
    Count count_;
};

} // namespace scif::core

#endif // SCIFINDER_CORE_STAGE_HH
