/**
 * @file
 * Bounded multi-producer single-consumer ingestion queue.
 *
 * The checking service (monitor/service.hh) shards its sessions over
 * worker threads; every shard owns one of these queues and many client
 * threads push micro-batches into it concurrently. The queue is
 * bounded: a full queue blocks the producer, which is the service's
 * backpressure mechanism — a client can never run ahead of checking
 * by more than capacity() batches, so service memory stays bounded no
 * matter how fast the producers are.
 *
 * The implementation is a mutex + two condition variables rather than
 * a lock-free ring: items are whole micro-batches (hundreds of
 * records), so queue operations happen thousands of times per second,
 * not millions, and the simple form is trivially TSan-clean.
 */

#ifndef SCIFINDER_SUPPORT_MPSCQUEUE_HH
#define SCIFINDER_SUPPORT_MPSCQUEUE_HH

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>

namespace scif::support {

template <typename T>
class BoundedMpscQueue
{
  public:
    explicit BoundedMpscQueue(size_t capacity)
        : capacity_(std::max<size_t>(1, capacity))
    {}

    BoundedMpscQueue(const BoundedMpscQueue &) = delete;
    BoundedMpscQueue &operator=(const BoundedMpscQueue &) = delete;

    /** @return the bound, in items. */
    size_t capacity() const { return capacity_; }

    /**
     * Enqueue one item, blocking while the queue is full
     * (backpressure).
     *
     * @return false, with the item dropped, once close() has run.
     */
    bool
    push(T item)
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            notFull_.wait(lock, [&] {
                return items_.size() < capacity_ || closed_;
            });
            if (closed_)
                return false;
            items_.push_back(std::move(item));
            highWater_ = std::max(highWater_, items_.size());
        }
        notEmpty_.notify_one();
        return true;
    }

    /**
     * Dequeue one item, blocking until one arrives or the queue is
     * closed and drained.
     *
     * @return false when closed and empty (the consumer's exit
     *         signal).
     */
    bool
    pop(T &out)
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            notEmpty_.wait(lock,
                           [&] { return !items_.empty() || closed_; });
            if (items_.empty())
                return false;
            out = std::move(items_.front());
            items_.pop_front();
        }
        notFull_.notify_one();
        return true;
    }

    /** Unblock everyone; the consumer drains what was queued. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        notFull_.notify_all();
        notEmpty_.notify_all();
    }

    /** @return current queue depth, in items. */
    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return items_.size();
    }

    /** @return the deepest the queue has ever been, in items. */
    size_t
    highWater() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return highWater_;
    }

  private:
    mutable std::mutex mutex_;
    std::condition_variable notFull_;
    std::condition_variable notEmpty_;
    std::deque<T> items_;
    const size_t capacity_;
    size_t highWater_ = 0;
    bool closed_ = false;
};

} // namespace scif::support

#endif // SCIFINDER_SUPPORT_MPSCQUEUE_HH
