// A bounded multi-producer/single-consumer blocking queue: the edge
// primitive of the pipelined executor. Producers block when the queue
// is full (backpressure propagates source-ward through the plan tree),
// the consumer blocks when it is empty, and Close() releases everyone:
// blocked producers give up (Push returns false) while the consumer
// drains the remaining items before seeing end-of-stream.
//
// Capacity bounds the queued *weight*: each Push names how much its
// item carries (the parallel executor pushes a shard buffer at its
// row-and-punctuation count, a lone punctuation or marker at 1). A
// producer waits while the queued weight has reached capacity, so the
// weight in flight stays below capacity + one item's weight; an item
// heavier than capacity still enters an empty queue, so nothing
// deadlocks on an oversized item.
//
// Mutex + condition variables rather than a lock-free ring: producers
// push one item per lock acquisition and the consumer swaps every
// queued item out per acquisition (PopAll) into a vector it owns, so
// both sides keep their storage and a steady pop allocates nothing.
// The simple implementation is trivially TSan-clean
// (tests/bounded_queue_test.cc runs it under -DPUNCTSAFE_SANITIZE=thread).
//
// consumer_idle() is a lock-free hint for producers that stage work:
// it reads true while the consumer is parked in PopAll on an empty
// queue, so a producer can hand a partial batch over at once instead
// of holding it for a consumer that has nothing to do.

#ifndef PUNCTSAFE_EXEC_BOUNDED_QUEUE_H_
#define PUNCTSAFE_EXEC_BOUNDED_QUEUE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace punctsafe {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// \brief Enqueues `value` carrying `weight`, blocking while the
  /// queued weight has reached capacity. Returns false (dropping the
  /// value) iff the queue was closed.
  bool Push(T value, size_t weight = 1) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [this] { return closed_ || weight_ < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(value));
    weight_ += weight;
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// \brief Blocks while empty, then swaps *all* queued items into
  /// `*out` (cleared first) under one lock, in FIFO order. The queue
  /// takes `*out`'s old storage in exchange, so a consumer that keeps
  /// passing the same vector ping-pongs two buffers and allocates
  /// nothing once both have grown. False means closed AND drained.
  bool PopAll(std::vector<T>* out) {
    out->clear();
    std::unique_lock<std::mutex> lock(mu_);
    if (items_.empty() && !closed_) {
      idle_.store(true, std::memory_order_relaxed);
      not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
      idle_.store(false, std::memory_order_relaxed);
    }
    if (items_.empty()) return false;
    out->swap(items_);
    weight_ = 0;
    lock.unlock();
    not_full_.notify_all();
    return true;
  }

  /// \brief Marks end-of-stream and wakes all waiters. Queued items
  /// remain poppable; further pushes fail. Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }
  /// \brief Queued items (not their weight).
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  /// \brief Summed weight of the queued items; Push blocks while it is
  /// at least capacity().
  size_t weight() const {
    std::lock_guard<std::mutex> lock(mu_);
    return weight_;
  }
  size_t capacity() const { return capacity_; }
  /// \brief True while the consumer waits in PopAll on an empty queue
  /// (relaxed read, no lock: a stale answer only moves a hand-off by
  /// one call, never loses or reorders an item).
  bool consumer_idle() const {
    return idle_.load(std::memory_order_relaxed);
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<T> items_;
  size_t weight_ = 0;
  bool closed_ = false;
  std::atomic<bool> idle_{false};
};

}  // namespace punctsafe

#endif  // PUNCTSAFE_EXEC_BOUNDED_QUEUE_H_
