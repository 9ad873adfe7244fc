/**
 * @file
 * Spans for the traced benchmark run.
 *
 * The benchmark times the calls it makes into each layer's public
 * functions, so every span lives in the benchmark's own code: a Span
 * object brackets one call. Spans are kept in memory while a Tracer is
 * installed and cost one predictable branch otherwise, so the
 * untraced run executes the same code with tracing off.
 *
 * A span's parent is the innermost open span on the same thread;
 * spans opened on pool or client threads start their own tree there.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** One closed span. Times are seconds since the tracer's epoch. */
struct SpanRecord
{
    std::string name;
    uint32_t tid = 0;     ///< small per-thread number, main thread 0
    int64_t parent = -1;  ///< index of the enclosing span, -1 at a root
    double start = 0;
    double end = 0;

    double seconds() const { return end - start; }
};

/** Collects spans from every thread while installed. */
class Tracer
{
  public:
    Tracer();

    /** Make this the tracer Span objects record into (null: none). */
    static void install(Tracer *tracer);
    static Tracer *active();

    size_t begin(const char *name);
    void end(size_t index);

    /** Hand over and forget every span recorded so far. */
    std::vector<SpanRecord> take();

  private:
    Clock::time_point epoch_;
    std::mutex mutex_;
    std::vector<SpanRecord> spans_; // guarded by mutex_
};

/** RAII span around one call; a no-op when no tracer is installed. */
class Span
{
  public:
    explicit Span(const char *name)
        : tracer_(Tracer::active()),
          index_(tracer_ ? tracer_->begin(name) : 0)
    {}
    ~Span()
    {
        if (tracer_)
            tracer_->end(index_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer_;
    size_t index_;
};

/** Per-name accumulation for the flat layer table. */
struct LayerRow
{
    uint64_t calls = 0;
    double total = 0; ///< summed span durations
    double self = 0;  ///< total minus time covered by same-thread children
};

/** Per-name summed durations of @p spans. */
std::map<std::string, double> totalsByName(
    const std::vector<SpanRecord> &spans);

/** Fold @p spans into per-name totals and self times. */
void accumulateLayers(const std::vector<SpanRecord> &spans,
                      std::map<std::string, LayerRow> &rows);

/**
 * Share of @p callers x @p wall seconds covered by the direct children
 * of the spans named @p caller: how much of the caller threads' time
 * went into timed layer calls.
 */
double coverage(const std::vector<SpanRecord> &spans,
                const std::string &caller, size_t callers, double wall);

/**
 * Write @p spans as Chrome trace-event JSON (Perfetto and
 * chrome://tracing load it), with @p metadata as "otherData".
 */
void writeChromeTrace(const std::string &path,
                      const std::vector<SpanRecord> &spans,
                      const std::map<std::string, std::string> &metadata);

/** Write the flat per-layer table, sorted by self time. */
void writeLayerTable(const std::string &path, const std::string &header,
                     const std::map<std::string, LayerRow> &rows);

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
