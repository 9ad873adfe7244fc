/**
 * @file
 * The checking service: concurrent multi-session SCI enforcement.
 *
 * The sequential AssertionMonitor checks one finished trace in one
 * thread. A CheckService is the always-on deployment shape of the
 * same checker (SPECS-style dynamic verification, paper §2, §4.2):
 * many client *sessions* — one per workload replay, fuzz seed, or
 * stored trace stream — feed retirement events concurrently, and the
 * service enforces the full deployed assertion set on every stream.
 *
 * Architecture (DESIGN.md §13):
 *  - every session is pinned to one of N worker *shards*
 *    (`session id % shards`), each shard owning a bounded MPSC
 *    ingestion queue of micro-batches; a full queue blocks the
 *    producer (backpressure), so memory stays bounded;
 *  - clients stage records into per-session micro-batches of
 *    `batchRecords` events, so queue traffic is thousands of
 *    operations per second, not millions;
 *  - the shard worker checks each micro-batch record by record with
 *    CompiledAssertionSet::check — the loop AssertionMonitor::record
 *    runs — over the compiled register-machine kernels
 *    (expr/compile).
 *
 * Determinism: a session's events are checked in stream order by
 * exactly one worker (queues are FIFO, one consumer per shard) with
 * the sequential monitor's own per-record check, so a SessionReport
 * is byte-identical to the sequential AssertionMonitor on the same
 * stream, for any shard count and batch size. tests/service_test.cc
 * pins this.
 */

#ifndef SCIFINDER_MONITOR_SERVICE_HH
#define SCIFINDER_MONITOR_SERVICE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/stage.hh"
#include "monitor/assertion.hh"
#include "support/mpscqueue.hh"
#include "trace/record.hh"

namespace scif::monitor {

/** Tuning knobs of a CheckService. */
struct ServiceConfig
{
    /** Worker shards; 0 = one per hardware thread. */
    size_t shards = 1;
    /** Per-shard ingestion queue bound, in micro-batches. */
    size_t queueBatches = 64;
    /** Micro-batch size, in records. */
    size_t batchRecords = 256;
};

/**
 * A session call the service cannot honour: the session id is
 * unknown or already closed, or the service has shut down. The
 * message names the session id.
 */
class SessionError : public std::runtime_error
{
  public:
    SessionError(uint64_t session, const std::string &why);

    /** The session id the failed call named. */
    uint64_t session() const { return session_; }

  private:
    uint64_t session_;
};

/**
 * What one session observed: per-assertion firing counts plus the
 * first violation in stream order. Produced identically by the
 * service and by sequentialReport() over an AssertionMonitor.
 */
struct SessionReport
{
    std::string session;
    uint64_t events = 0;
    uint64_t firings = 0;
    /** Firing count per deployed assertion (parallel to the set). */
    std::vector<uint64_t> perAssertion;
    bool hasFirst = false;
    FiredEvent first{}; ///< valid only when hasFirst

    /** Canonical text form — the byte-identical artifact tests pin. */
    std::string render(const std::vector<Assertion> &assertions) const;
};

/** Build the report the sequential monitor implies for a stream. */
SessionReport sequentialReport(std::string session,
                               const AssertionMonitor &monitor,
                               uint64_t events);

/** Telemetry of one worker shard. */
struct ShardTelemetry
{
    uint64_t batches = 0;
    uint64_t events = 0;
    uint64_t maxBatchRecords = 0;
    uint64_t queueHighWater = 0; ///< deepest queue depth, in batches
    double busySeconds = 0;      ///< time spent checking batches
};

/** Aggregate service telemetry. */
struct ServiceTelemetry
{
    uint64_t sessionsOpened = 0;
    uint64_t sessionsClosed = 0;
    uint64_t events = 0;
    uint64_t batches = 0;
    uint64_t firings = 0;
    double elapsedSeconds = 0; ///< wall clock since construction
    double eventsPerSecond = 0;
    std::vector<ShardTelemetry> shards;
};

/**
 * The long-running checking engine. Thread-safety contract: open(),
 * close() and post() on *different* sessions may run concurrently
 * from any threads; a single session is fed by one client thread at
 * a time (its staging buffer is not locked). All sessions must be
 * closed before the service is destroyed. open(), post() and close()
 * throw SessionError for an unknown or closed session and once the
 * service has shut down.
 */
class CheckService
{
  public:
    using SessionId = uint64_t;

    CheckService(std::shared_ptr<const CompiledAssertionSet> set,
                 ServiceConfig config = {});
    explicit CheckService(std::vector<Assertion> assertions,
                          ServiceConfig config = {});
    ~CheckService();

    CheckService(const CheckService &) = delete;
    CheckService &operator=(const CheckService &) = delete;

    const CompiledAssertionSet &set() const { return *set_; }
    size_t shards() const { return shards_.size(); }
    const ServiceConfig &config() const { return config_; }

    /** Start a session; the name keys its report. Throws
     *  SessionError after shutdown(), naming the id it would have
     *  had. */
    SessionId open(std::string name);

    /** Feed one event into a session (staged, batched internally). */
    void post(SessionId id, const trace::Record &rec);

    /** Feed a run of events into a session. */
    void post(SessionId id, const trace::Record *recs, size_t n);

    /**
     * Finish a session: flush its staging batch, wait until the
     * owning shard has checked everything, and return the report.
     */
    SessionReport close(SessionId id);

    /** Convenience: run one whole trace as a session. */
    SessionReport check(const std::string &name,
                        const trace::TraceBuffer &trace);

    ServiceTelemetry telemetry() const;

    /** Telemetry rendered as pipeline stage counters. */
    std::vector<core::StageStats> stageStats() const;

    /** Stop the workers (idempotent; implied by destruction). */
    void shutdown();

  private:
    struct Session;
    struct Batch
    {
        Session *session = nullptr;
        trace::TraceBuffer recs;
        bool last = false;
    };
    struct Shard;

    /** The open session @p id; throws SessionError otherwise. */
    Session *find(SessionId id) const;
    void flush(Session &s, bool last);
    void workerLoop(size_t shardIndex);
    void processBatch(Session &s, const trace::TraceBuffer &batch);

    std::shared_ptr<const CompiledAssertionSet> set_;
    const ServiceConfig config_;
    std::vector<std::unique_ptr<Shard>> shards_;

    mutable std::mutex sessionsMutex_;
    std::map<SessionId, std::unique_ptr<Session>> sessions_;
    SessionId nextId_ = 0;

    std::atomic<uint64_t> opened_{0};
    std::atomic<uint64_t> closed_{0};
    std::atomic<uint64_t> firings_{0};
    std::chrono::steady_clock::time_point start_;
    std::atomic<bool> stopped_{false};
};

/**
 * TraceSink adapter: attach a service session directly to a live
 * simulation so retirement events stream into the checker as the
 * processor runs.
 */
class SessionSink : public trace::TraceSink
{
  public:
    SessionSink(CheckService &service, std::string name)
        : service_(service), id_(service.open(std::move(name)))
    {}

    void record(const trace::Record &rec) override
    {
        service_.post(id_, rec);
    }

    /** Finish the session and fetch its report. */
    SessionReport close() { return service_.close(id_); }

  private:
    CheckService &service_;
    CheckService::SessionId id_;
};

} // namespace scif::monitor

#endif // SCIFINDER_MONITOR_SERVICE_HH
