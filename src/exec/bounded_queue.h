// A bounded multi-producer/single-consumer blocking queue: the edge
// primitive of the pipelined executor. Producers block when the queue
// is full (backpressure propagates source-ward through the plan tree),
// the consumer blocks when it is empty, and Close() releases everyone:
// blocked producers give up (Push returns false) while the consumer
// drains the remaining items before seeing end-of-stream.
//
// Mutex + condition variables rather than a lock-free ring: producers
// push one message per lock acquisition, the consumer moves out every
// queued message per acquisition (PopAll), and the parallel executor's
// messages carry whole TupleBatches (up to ExecutorConfig::batch_size
// rows), so the lock cost amortizes over a batch and is never the
// bottleneck. Capacity counts messages. The simple implementation is
// trivially TSan-clean (tests/bounded_queue_test.cc runs it under
// -DPUNCTSAFE_SANITIZE=thread).
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
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace punctsafe {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// \brief Enqueues `value`, blocking while the queue is full.
  /// Returns false (dropping the value) iff the queue was closed.
  bool Push(T value) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(value));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// \brief Enqueues without blocking; false if full or closed.
  bool TryPush(T value) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(value));
    }
    not_empty_.notify_one();
    return true;
  }

  /// \brief Batched Pop: blocks while empty, then moves out *all*
  /// queued items under one lock — the consumer-side fast path (the
  /// parallel executor's workers drain whole bursts per acquisition
  /// instead of paying the lock per tuple). nullopt means closed AND
  /// drained. FIFO order is preserved within the returned batch.
  std::optional<std::deque<T>> PopAll() {
    std::unique_lock<std::mutex> lock(mu_);
    if (items_.empty() && !closed_) {
      idle_.store(true, std::memory_order_relaxed);
      not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
      idle_.store(false, std::memory_order_relaxed);
    }
    if (items_.empty()) return std::nullopt;
    std::deque<T> out;
    out.swap(items_);
    lock.unlock();
    not_full_.notify_all();
    return out;
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
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
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
  std::deque<T> items_;
  bool closed_ = false;
  std::atomic<bool> idle_{false};
};

}  // namespace punctsafe

#endif  // PUNCTSAFE_EXEC_BOUNDED_QUEUE_H_
