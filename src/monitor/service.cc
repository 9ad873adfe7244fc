#include "service.hh"

#include <algorithm>

#include "support/strings.hh"

namespace scif::monitor {

SessionError::SessionError(uint64_t session, const std::string &why)
    : std::runtime_error(format("session %llu: %s",
                                (unsigned long long)session,
                                why.c_str())),
      session_(session)
{}

std::string
SessionReport::render(const std::vector<Assertion> &assertions) const
{
    std::string out =
        format("session %s: %llu events, ", session.c_str(),
               (unsigned long long)events);
    if (firings == 0)
        return out + "clean\n";
    out += format("%llu firings\n", (unsigned long long)firings);
    if (hasFirst) {
        const Assertion &a = assertions[first.assertion];
        out += format("  first: %s (%s) at record %llu point %s\n",
                      a.name.c_str(),
                      std::string(templateName(a.kind)).c_str(),
                      (unsigned long long)first.recordIndex,
                      first.point.name().c_str());
    }
    for (size_t ai = 0; ai < perAssertion.size(); ++ai) {
        if (perAssertion[ai]) {
            out += format("  %s: %llu\n", assertions[ai].name.c_str(),
                          (unsigned long long)perAssertion[ai]);
        }
    }
    return out;
}

SessionReport
sequentialReport(std::string session, const AssertionMonitor &monitor,
                 uint64_t events)
{
    SessionReport r;
    r.session = std::move(session);
    r.events = events;
    r.perAssertion.assign(monitor.assertions().size(), 0);
    for (const auto &e : monitor.fired()) {
        ++r.perAssertion[e.assertion];
        ++r.firings;
        if (!r.hasFirst) {
            r.first = e;
            r.hasFirst = true;
        }
    }
    return r;
}

/**
 * One client session. The staging buffer belongs to the client
 * thread; report and firstKey belong to the owning shard worker
 * until the final batch completes and done is fulfilled.
 */
struct CheckService::Session
{
    SessionId id = 0;
    size_t shard = 0;
    trace::TraceBuffer staging;
    SessionReport report;
    std::promise<void> done;
    std::future<void> doneFuture;
};

struct CheckService::Shard
{
    explicit Shard(size_t queueBatches) : queue(queueBatches) {}

    support::BoundedMpscQueue<Batch> queue;
    std::thread worker;
    std::atomic<uint64_t> batches{0};
    std::atomic<uint64_t> events{0};
    std::atomic<uint64_t> maxBatchRecords{0};
    std::atomic<uint64_t> busyNanos{0};
};

CheckService::CheckService(
    std::shared_ptr<const CompiledAssertionSet> set,
    ServiceConfig config)
    : set_(std::move(set)), config_(config),
      start_(std::chrono::steady_clock::now())
{
    size_t n = config_.shards;
    if (n == 0)
        n = std::max(1u, std::thread::hardware_concurrency());
    shards_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        shards_.push_back(
            std::make_unique<Shard>(std::max<size_t>(1,
                                        config_.queueBatches)));
    }
    for (size_t i = 0; i < n; ++i)
        shards_[i]->worker = std::thread([this, i] { workerLoop(i); });
}

CheckService::CheckService(std::vector<Assertion> assertions,
                           ServiceConfig config)
    : CheckService(std::make_shared<const CompiledAssertionSet>(
                       std::move(assertions)),
                   config)
{}

CheckService::~CheckService()
{
    shutdown();
}

void
CheckService::shutdown()
{
    if (stopped_.exchange(true))
        return;
    for (auto &sh : shards_)
        sh->queue.close();
    for (auto &sh : shards_) {
        if (sh->worker.joinable())
            sh->worker.join();
    }
}

CheckService::SessionId
CheckService::open(std::string name)
{
    auto s = std::make_unique<Session>();
    s->report.session = std::move(name);
    s->report.perAssertion.assign(set_->assertions().size(), 0);
    s->staging.reserve(config_.batchRecords);
    s->doneFuture = s->done.get_future();
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    s->id = nextId_++;
    if (stopped_) {
        throw SessionError(s->id, "cannot open '" + s->report.session +
                                      "': the service is shut down");
    }
    s->shard = s->id % shards_.size();
    SessionId id = s->id;
    sessions_.emplace(id, std::move(s));
    opened_.fetch_add(1, std::memory_order_relaxed);
    return id;
}

CheckService::Session *
CheckService::find(SessionId id) const
{
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end())
        throw SessionError(id, id < nextId_ ? "already closed"
                                            : "never opened");
    if (stopped_)
        throw SessionError(id, "the service is shut down");
    return it->second.get();
}

void
CheckService::flush(Session &s, bool last)
{
    if (s.staging.size() == 0 && !last)
        return;
    Batch b;
    b.session = &s;
    b.recs = std::move(s.staging);
    b.last = last;
    s.staging.clear();
    s.staging.reserve(config_.batchRecords);
    // A shutdown() racing this call closes the queue under us; the
    // batch is then dropped and its session can never complete.
    if (!shards_[s.shard]->queue.push(std::move(b)))
        throw SessionError(s.id, "the service is shut down");
}

void
CheckService::post(SessionId id, const trace::Record &rec)
{
    Session *s = find(id);
    s->staging.record(rec);
    if (s->staging.size() >= config_.batchRecords)
        flush(*s, false);
}

void
CheckService::post(SessionId id, const trace::Record *recs, size_t n)
{
    Session *s = find(id);
    for (size_t i = 0; i < n; ++i) {
        s->staging.record(recs[i]);
        if (s->staging.size() >= config_.batchRecords)
            flush(*s, false);
    }
}

SessionReport
CheckService::close(SessionId id)
{
    Session *s = find(id);
    flush(*s, true);
    s->doneFuture.wait();
    SessionReport report = std::move(s->report);
    {
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        sessions_.erase(id);
    }
    closed_.fetch_add(1, std::memory_order_relaxed);
    return report;
}

SessionReport
CheckService::check(const std::string &name,
                    const trace::TraceBuffer &trace)
{
    SessionId id = open(name);
    const auto &recs = trace.records();
    if (!recs.empty())
        post(id, recs.data(), recs.size());
    return close(id);
}

void
CheckService::workerLoop(size_t shardIndex)
{
    Shard &sh = *shards_[shardIndex];
    Batch b;
    while (sh.queue.pop(b)) {
        auto t0 = std::chrono::steady_clock::now();
        processBatch(*b.session, b.recs);
        auto t1 = std::chrono::steady_clock::now();
        sh.busyNanos.fetch_add(
            uint64_t(std::chrono::duration_cast<
                         std::chrono::nanoseconds>(t1 - t0)
                         .count()),
            std::memory_order_relaxed);
        sh.batches.fetch_add(1, std::memory_order_relaxed);
        sh.events.fetch_add(b.recs.size(), std::memory_order_relaxed);
        uint64_t prev =
            sh.maxBatchRecords.load(std::memory_order_relaxed);
        while (prev < b.recs.size() &&
               !sh.maxBatchRecords.compare_exchange_weak(
                   prev, b.recs.size(), std::memory_order_relaxed)) {
        }
        if (b.last)
            b.session->done.set_value();
        b = Batch{};
    }
}

void
CheckService::processBatch(Session &s, const trace::TraceBuffer &batch)
{
    SessionReport &r = s.report;
    r.events += batch.size();
    uint64_t before = r.firings;
    for (const trace::Record &rec : batch.records()) {
        set_->check(rec, [&r](const FiredEvent &e) {
            ++r.perAssertion[e.assertion];
            ++r.firings;
            if (!r.hasFirst) {
                r.hasFirst = true;
                r.first = e;
            }
        });
    }
    firings_.fetch_add(r.firings - before, std::memory_order_relaxed);
}

ServiceTelemetry
CheckService::telemetry() const
{
    ServiceTelemetry t;
    t.sessionsOpened = opened_.load(std::memory_order_relaxed);
    t.sessionsClosed = closed_.load(std::memory_order_relaxed);
    t.firings = firings_.load(std::memory_order_relaxed);
    for (const auto &sh : shards_) {
        ShardTelemetry st;
        st.batches = sh->batches.load(std::memory_order_relaxed);
        st.events = sh->events.load(std::memory_order_relaxed);
        st.maxBatchRecords =
            sh->maxBatchRecords.load(std::memory_order_relaxed);
        st.queueHighWater = sh->queue.highWater();
        st.busySeconds =
            double(sh->busyNanos.load(std::memory_order_relaxed)) *
            1e-9;
        t.events += st.events;
        t.batches += st.batches;
        t.shards.push_back(st);
    }
    t.elapsedSeconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start_)
                           .count();
    if (t.elapsedSeconds > 0)
        t.eventsPerSecond = double(t.events) / t.elapsedSeconds;
    return t;
}

std::vector<core::StageStats>
CheckService::stageStats() const
{
    ServiceTelemetry t = telemetry();
    std::vector<core::StageStats> out;
    core::StageStats total;
    total.name = "monitor.serve";
    total.seconds = t.elapsedSeconds;
    total.itemsIn = t.events;
    total.itemsOut = t.firings;
    total.maxRssKb = support::peakRssKb();
    out.push_back(total);
    for (size_t i = 0; i < t.shards.size(); ++i) {
        core::StageStats s;
        s.name = format("monitor.shard%zu", i);
        s.seconds = t.shards[i].busySeconds;
        s.itemsIn = t.shards[i].events;
        s.itemsOut = t.shards[i].batches;
        out.push_back(s);
    }
    return out;
}

} // namespace scif::monitor
