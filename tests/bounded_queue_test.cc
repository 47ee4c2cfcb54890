// BoundedQueue contract tests, written to be meaningful under TSan
// (tools/ci.sh runs this suite with -DPUNCTSAFE_SANITIZE=thread):
// per-producer FIFO under multi-producer contention, capacity-1
// backpressure, weighted capacity, the consumer-idle hint, and
// shutdown while producers or the consumer are blocked.

#include "exec/bounded_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace punctsafe {
namespace {

// The next PopAll burst; empty means closed and drained.
template <typename T>
std::vector<T> NextBurst(BoundedQueue<T>& q) {
  std::vector<T> burst;
  if (!q.PopAll(&burst)) return {};
  return burst;
}

// True iff PopAll reports closed-and-drained.
template <typename T>
bool AtEndOfStream(BoundedQueue<T>& q) {
  std::vector<T> burst;
  return !q.PopAll(&burst) && burst.empty();
}

TEST(BoundedQueueTest, FifoSingleThread) {
  BoundedQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_TRUE(q.Push(3));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(NextBurst(q), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueueTest, ZeroCapacityIsClampedToOne) {
  BoundedQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_TRUE(q.Push(7));
  // Full after one item: the next Push would wait for a pop.
  EXPECT_EQ(q.weight(), q.capacity());
}

// Capacity-1 queue: every push must wait for the matching pop, so the
// queue observably never holds more than one element and the full
// sequence arrives in order.
TEST(BoundedQueueTest, CapacityOneBackpressure) {
  BoundedQueue<int> q(1);
  constexpr int kCount = 2000;
  std::thread producer([&] {
    for (int i = 0; i < kCount; ++i) ASSERT_TRUE(q.Push(i));
  });
  for (int i = 0; i < kCount; ++i) {
    ASSERT_LE(q.size(), 1u);
    EXPECT_EQ(NextBurst(q), (std::vector<int>{i}));
  }
  producer.join();
  EXPECT_EQ(q.size(), 0u);
}

// Multi-producer / single-consumer (the executor's edge shape):
// producers interleave arbitrarily but each producer's own sequence
// must arrive in order and nothing may be lost or duplicated.
TEST(BoundedQueueTest, MultiProducerPerProducerFifo) {
  constexpr size_t kProducers = 4;
  constexpr int kPerProducer = 3000;
  struct Item {
    size_t producer;
    int seq;
  };
  BoundedQueue<Item> q(16);
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(Item{p, i}));
      }
    });
  }
  std::vector<int> next_seq(kProducers, 0);
  size_t received = 0;
  while (received < kProducers * kPerProducer) {
    std::vector<Item> burst = NextBurst(q);
    ASSERT_FALSE(burst.empty());
    for (const Item& item : burst) {
      EXPECT_EQ(item.seq, next_seq[item.producer])
          << "producer " << item.producer << " reordered";
      ++next_seq[item.producer];
      ++received;
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(q.size(), 0u);
}

// Multi-producer + multi-consumer smoke: totals must balance.
TEST(BoundedQueueTest, MultiProducerMultiConsumerConservesItems) {
  BoundedQueue<int> q(8);
  constexpr int kPerProducer = 4000;
  std::atomic<long long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      while (true) {
        std::vector<int> burst = NextBurst(q);
        if (burst.empty()) return;  // closed and drained
        for (int v : burst) {
          sum.fetch_add(v);
          popped.fetch_add(1);
        }
      }
    });
  }
  threads[0].join();
  threads[1].join();
  q.Close();
  threads[2].join();
  threads[3].join();
  EXPECT_EQ(popped.load(), 2 * kPerProducer);
  long long n = 2LL * kPerProducer;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(BoundedQueueTest, PopAllDrainsWholeBurstInOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.Push(i));
  EXPECT_EQ(NextBurst(q), (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(q.size(), 0u);
  // Drained + closed => end-of-stream.
  q.Close();
  EXPECT_TRUE(AtEndOfStream(q));
}

TEST(BoundedQueueTest, PopAllBlocksUntilDataOrClose) {
  BoundedQueue<int> q(4);
  std::atomic<bool> got_batch{false};
  std::thread consumer([&] {
    std::vector<int> batch;
    ASSERT_TRUE(q.PopAll(&batch));
    EXPECT_FALSE(batch.empty());
    got_batch = true;
    // Next PopAll sees end-of-stream after Close.
    EXPECT_TRUE(AtEndOfStream(q));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got_batch.load());
  ASSERT_TRUE(q.Push(42));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  consumer.join();
  EXPECT_TRUE(got_batch.load());
}

TEST(BoundedQueueTest, PopAllReleasesBlockedProducers) {
  BoundedQueue<int> q(2);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));
  std::thread producer([&] {
    ASSERT_TRUE(q.Push(3));  // blocks until PopAll frees capacity
    ASSERT_TRUE(q.Push(4));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::vector<int> all;
  ASSERT_TRUE(q.PopAll(&all));
  producer.join();
  if (all.size() < 4) {
    std::vector<int> rest;
    ASSERT_TRUE(q.PopAll(&rest));
    all.insert(all.end(), rest.begin(), rest.end());
  }
  EXPECT_EQ(all, (std::vector<int>{1, 2, 3, 4}));
}

TEST(BoundedQueueTest, CloseUnblocksBlockedProducer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));  // now full
  std::atomic<bool> push_returned{false};
  std::atomic<bool> push_result{true};
  std::thread producer([&] {
    push_result = q.Push(2);  // blocks: queue full
    push_returned = true;
  });
  // Let the producer reach the blocking wait, then close.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(push_returned.load());
  q.Close();
  producer.join();
  EXPECT_TRUE(push_returned.load());
  EXPECT_FALSE(push_result.load()) << "Push must fail after Close";
  // The element queued before Close stays poppable.
  EXPECT_EQ(NextBurst(q), (std::vector<int>{1}));
  EXPECT_TRUE(AtEndOfStream(q));
}

TEST(BoundedQueueTest, CloseUnblocksBlockedConsumer) {
  BoundedQueue<int> q(4);
  std::atomic<bool> pop_returned{false};
  std::thread consumer([&] {
    EXPECT_TRUE(AtEndOfStream(q));  // blocks: queue empty
    pop_returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pop_returned.load());
  q.Close();
  consumer.join();
  EXPECT_TRUE(pop_returned.load());
  EXPECT_FALSE(q.Push(9)) << "Push after Close must fail";
}

TEST(BoundedQueueTest, CloseIsIdempotentAndDrainsRemainder) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));
  q.Close();
  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(NextBurst(q), (std::vector<int>{1, 2}));
  EXPECT_TRUE(AtEndOfStream(q));
}

// The idle hint reads true only while the consumer is parked on an
// empty queue: not before it waits, not while items are queued, and
// not once a push has woken it.
TEST(BoundedQueueTest, ConsumerIdleOnlyWhileParkedOnEmptyQueue) {
  BoundedQueue<int> q(4);
  EXPECT_FALSE(q.consumer_idle());
  std::atomic<int> bursts{0};
  std::thread consumer([&] {
    while (!NextBurst(q).empty()) bursts.fetch_add(1);
  });
  while (!q.consumer_idle()) std::this_thread::yield();
  ASSERT_TRUE(q.Push(1));
  while (bursts.load() == 0) std::this_thread::yield();
  // Back in PopAll on the drained queue: idle again.
  while (!q.consumer_idle()) std::this_thread::yield();
  EXPECT_EQ(q.size(), 0u);
  q.Close();
  consumer.join();
  EXPECT_FALSE(q.consumer_idle());
  EXPECT_EQ(bursts.load(), 1);
}

// Capacity bounds the queued weight, not the item count: a producer
// blocks once the weight reaches capacity and resumes when a pop frees
// it.
TEST(BoundedQueueTest, PushBlocksOnceQueuedWeightReachesCapacity) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.Push(1, 3));
  EXPECT_EQ(q.weight(), 3u);
  ASSERT_TRUE(q.Push(2, 1));  // 3 < 4: admitted, weight now 4
  EXPECT_EQ(q.weight(), 4u);
  EXPECT_EQ(q.size(), 2u);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(q.Push(3, 1));  // blocks: weight 4 >= capacity 4
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(NextBurst(q), (std::vector<int>{1, 2}));
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.weight(), 1u);
  EXPECT_EQ(NextBurst(q), (std::vector<int>{3}));
  EXPECT_EQ(q.weight(), 0u);
}

// An item heavier than the whole capacity still enters an empty queue
// at once (else its producer could never proceed), and then holds the
// queue full until it is popped.
TEST(BoundedQueueTest, OverweightPushEntersAnEmptyQueue) {
  BoundedQueue<int> q(2);
  ASSERT_TRUE(q.Push(7, 5));
  EXPECT_EQ(q.weight(), 5u);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(q.Push(8, 9));  // blocks: weight 5 >= capacity 2
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(NextBurst(q), (std::vector<int>{7}));
  producer.join();
  EXPECT_EQ(q.weight(), 9u);
  EXPECT_EQ(NextBurst(q), (std::vector<int>{8}));
}

// PopAll into a vector the consumer keeps: every queued item comes
// back in FIFO order, whatever the vector held before, burst after
// burst.
TEST(BoundedQueueTest, PopAllIntoVectorHandsBackEveryItemInFifoOrder) {
  BoundedQueue<int> q(64);
  std::vector<int> burst = {-1, -2};  // stale contents are dropped
  int next = 0;
  for (int round = 0; round < 3; ++round) {
    std::vector<int> expected;
    for (int i = 0; i < 10 + round * 7; ++i) {
      ASSERT_TRUE(q.Push(next));
      expected.push_back(next++);
    }
    ASSERT_TRUE(q.PopAll(&burst));
    EXPECT_EQ(burst, expected) << "round " << round;
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.weight(), 0u);
  }
  q.Close();
  EXPECT_FALSE(q.PopAll(&burst));
  EXPECT_TRUE(burst.empty());
}

}  // namespace
}  // namespace punctsafe
