// Batched execution primitives and their equivalence contracts:
//  * TupleBatch — the unit of batched hand-off (selection vector,
//    storage recycling);
//  * simd helpers — MatchTags16 / HashRunLength against their scalar
//    definitions;
//  * FlatKeyIndex — find/insert/growth over int and string keys;
//  * TupleStore::InsertBatch — selection vectors respected;
//  * JoinOperator::PushBatch — result-identical to per-tuple pushes;
//  * ScatterBatch — per-shard sub-batches agree with ShardOf and keep
//    arrival order;
//  * PlanExecutor ingest batching — buffering is invisible at flush
//    points, and the batch-boundary ordering guarantee holds: results
//    produced from a batch are emitted before any punctuation that
//    arrived after the batch is forwarded.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/plan_safety.h"
#include "exec/flat_index.h"
#include "exec/mjoin.h"
#include "exec/plan_executor.h"
#include "exec/partition_router.h"
#include "exec/simd.h"
#include "exec/tuple_batch.h"
#include "exec/tuple_store.h"
#include "test_util.h"
#include "util/logging.h"

namespace punctsafe {
namespace {

using testing_util::Fig5Schemes;
using testing_util::PaperCatalog;
using testing_util::TriangleQuery;

TEST(TupleBatchTest, AppendSelectClearRecycles) {
  TupleBatch batch(4);
  EXPECT_EQ(batch.capacity(), 4u);
  EXPECT_TRUE(batch.empty());
  EXPECT_FALSE(batch.full());

  batch.Append(Tuple({Value(1), Value(10)}), 5);
  batch.Append(Tuple({Value(2), Value(20)}), 3);
  batch.Append(Tuple({Value(3), Value(30)}), 9);
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.first_timestamp(), 5);
  EXPECT_EQ(batch.max_timestamp(), 9);
  EXPECT_EQ(batch.tuple(1), Tuple({Value(2), Value(20)}));
  EXPECT_EQ(batch.timestamp(2), 9);

  batch.Append(Tuple({Value(4), Value(40)}), 1);
  EXPECT_TRUE(batch.full());

  batch.SelectAll();
  ASSERT_EQ(batch.selection().size(), 4u);
  EXPECT_EQ(batch.selection()[0], 0u);
  EXPECT_EQ(batch.selection()[3], 3u);

  batch.Clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.capacity(), 4u);
  EXPECT_TRUE(batch.selection().empty());
}

TEST(TupleBatchTest, ZeroCapacityNormalizesToOne) {
  TupleBatch batch(0);
  EXPECT_EQ(batch.capacity(), 1u);
  batch.Append(Tuple({Value(1)}), 1);
  EXPECT_TRUE(batch.full());
}

TEST(SimdTest, MatchTags16AgainstScalar) {
  uint8_t tags[16];
  for (int i = 0; i < 16; ++i) tags[i] = static_cast<uint8_t>(i % 5);
  for (uint8_t needle = 0; needle < 6; ++needle) {
    uint32_t want = 0;
    for (int i = 0; i < 16; ++i) {
      if (tags[i] == needle) want |= 1u << i;
    }
    EXPECT_EQ(simd::MatchTags16(tags, needle), want)
        << "needle=" << int{needle};
  }
}

TEST(SimdTest, HashRunLengthAgainstScalar) {
  // Runs of every length 0..n at every alignment, plus a 64-bit
  // pattern whose low 32 bits match the head but whose high bits do
  // not (the SSE2 path compares 32-bit lanes, so this catches a lane
  // stitched together incorrectly).
  auto naive = [](const std::vector<uint64_t>& h) {
    if (h.empty()) return size_t{0};
    size_t i = 1;
    while (i < h.size() && h[i] == h[0]) ++i;
    return i;
  };
  const uint64_t head = 0xDEADBEEF12345678ull;
  const uint64_t low_match = head & 0xFFFFFFFFull;  // differs in high bits
  for (size_t run = 0; run <= 9; ++run) {
    for (size_t tail = 0; tail <= 3; ++tail) {
      std::vector<uint64_t> hashes;
      for (size_t i = 0; i < run; ++i) hashes.push_back(head);
      for (size_t i = 0; i < tail; ++i) {
        hashes.push_back(i % 2 == 0 ? low_match : head + 1 + i);
      }
      if (hashes.empty()) {
        EXPECT_EQ(simd::HashRunLength(nullptr, 0), 0u);
        continue;
      }
      EXPECT_EQ(simd::HashRunLength(hashes.data(), hashes.size()),
                naive(hashes))
          << "run=" << run << " tail=" << tail;
    }
  }
}

TEST(FlatKeyIndexTest, EmptyFindReturnsNull) {
  FlatKeyIndex index;
  EXPECT_TRUE(index.empty());
  Value key(42);
  EXPECT_EQ(index.Find(key.Hash(), key), nullptr);
}

TEST(FlatKeyIndexTest, InsertGrowFindIntAndStringKeys) {
  FlatKeyIndex index;
  // Sequential ints stress the spread (Value keeps them nearly
  // sequential); long strings exercise heap-backed keys across the
  // growth rehashes.
  const size_t kKeys = 500;
  for (size_t i = 0; i < kKeys; ++i) {
    index.FindOrCreate(Value(static_cast<int64_t>(i)))->push_back(i);
    index
        .FindOrCreate(
            Value("key-with-some-longer-payload-" + std::to_string(i)))
        ->push_back(1000 + i);
  }
  EXPECT_EQ(index.size(), 2 * kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    Value ik(static_cast<int64_t>(i));
    const FlatKeyIndex::Bucket* ib = index.Find(ik.Hash(), ik);
    ASSERT_NE(ib, nullptr) << "int key " << i;
    ASSERT_EQ(ib->size(), 1u);
    EXPECT_EQ((*ib)[0], i);
    Value sk("key-with-some-longer-payload-" + std::to_string(i));
    const FlatKeyIndex::Bucket* sb = index.Find(sk.Hash(), sk);
    ASSERT_NE(sb, nullptr) << "string key " << i;
    ASSERT_EQ(sb->size(), 1u);
    EXPECT_EQ((*sb)[0], 1000 + i);
  }
  Value missing(static_cast<int64_t>(kKeys + 7));
  EXPECT_EQ(index.Find(missing.Hash(), missing), nullptr);

  size_t visited = 0;
  index.ForEachEntry(
      [&](const Value&, const FlatKeyIndex::Bucket&) { ++visited; });
  EXPECT_EQ(visited, 2 * kKeys);
}

TEST(FlatKeyIndexTest, FindOrCreateAppendsToSameBucket) {
  FlatKeyIndex index;
  index.Reserve(64);
  for (size_t i = 0; i < 10; ++i) {
    index.FindOrCreate(Value(7))->push_back(i);
  }
  EXPECT_EQ(index.size(), 1u);
  Value key(7);
  const FlatKeyIndex::Bucket* bucket = index.Find(key.Hash(), key);
  ASSERT_NE(bucket, nullptr);
  ASSERT_EQ(bucket->size(), 10u);
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ((*bucket)[i], i);
}

TEST(TupleStoreBatchTest, InsertBatchRespectsSelection) {
  TupleStore store({0});
  TupleBatch batch(8);
  for (int64_t i = 0; i < 8; ++i) batch.Append(Tuple({Value(i)}), i);
  *batch.mutable_selection() = {0, 3, 7};
  EXPECT_EQ(store.InsertBatch(batch), 3u);
  EXPECT_EQ(store.live_count(), 3u);
  std::vector<int64_t> stored;
  store.ForEachLive([&](size_t, const Tuple& t) {
    stored.push_back(t.at(0).AsInt64());
  });
  std::sort(stored.begin(), stored.end());
  EXPECT_EQ(stored, (std::vector<int64_t>{0, 3, 7}));
}

std::vector<LocalInput> RawInputs(const ContinuousJoinQuery& q,
                                  const SchemeSet& schemes) {
  std::vector<LocalInput> inputs;
  for (size_t s = 0; s < q.num_streams(); ++s) {
    inputs.push_back({{s}, RawAvailableSchemes(q, schemes, s)});
  }
  return inputs;
}

// PushBatch is specified as result-identical to per-tuple pushes:
// drive one MJoin per path with the same interleaving and compare the
// emitted elements and the live state.
TEST(OperatorBatchTest, MJoinPushBatchMatchesPushTuple) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  SchemeSet schemes = Fig5Schemes(catalog);

  auto per_tuple = MJoinOperator::Create(q, RawInputs(q, schemes), {});
  auto batched = MJoinOperator::Create(q, RawInputs(q, schemes), {});
  ASSERT_TRUE(per_tuple.ok() && batched.ok());

  std::vector<Tuple> results_per_tuple;
  std::vector<Tuple> results_batched;
  (*per_tuple)->SetEmitter([&](const StreamElement& e) {
    if (e.is_tuple()) results_per_tuple.push_back(e.tuple);
  });
  (*batched)->SetEmitter([&](const StreamElement& e) {
    if (e.is_tuple()) results_batched.push_back(e.tuple);
  });

  // Per input: a run of tuples with repeated join keys, pushed as one
  // batch on the batched operator and one-at-a-time on the reference.
  auto feed = [&](size_t input, const std::vector<Tuple>& tuples,
                  int64_t base_ts) {
    TupleBatch batch(tuples.size());
    for (size_t i = 0; i < tuples.size(); ++i) {
      (*per_tuple)->PushTuple(input, tuples[i],
                              base_ts + static_cast<int64_t>(i));
      batch.Append(tuples[i], base_ts + static_cast<int64_t>(i));
    }
    (*batched)->PushBatch(input, batch);
  };
  // S1(A,B), S2(B,C), S3(C,A): repeated B and C values so batches
  // contain equal-key runs, plus non-matching rows.
  feed(0, {Tuple({Value(7), Value(1)}), Tuple({Value(8), Value(1)}),
           Tuple({Value(9), Value(2)})},
       0);
  feed(1, {Tuple({Value(1), Value(5)}), Tuple({Value(1), Value(5)}),
           Tuple({Value(2), Value(6)}), Tuple({Value(3), Value(6)})},
       10);
  feed(2, {Tuple({Value(5), Value(7)}), Tuple({Value(5), Value(8)}),
           Tuple({Value(6), Value(9)}), Tuple({Value(5), Value(99)})},
       20);

  EXPECT_GT(results_per_tuple.size(), 0u);
  EXPECT_EQ(results_batched, results_per_tuple);
  EXPECT_EQ((*batched)->TotalLiveTuples(), (*per_tuple)->TotalLiveTuples());

  // Punctuations between batches purge identically.
  (*per_tuple)->PushPunctuation(
      0, Punctuation::OfConstants(2, {{1, Value(1)}}), 30);
  (*batched)->PushPunctuation(
      0, Punctuation::OfConstants(2, {{1, Value(1)}}), 30);
  EXPECT_EQ((*batched)->TotalLiveTuples(), (*per_tuple)->TotalLiveTuples());
  EXPECT_EQ((*batched)->TotalLivePunctuations(),
            (*per_tuple)->TotalLivePunctuations());
}

TEST(ScatterBatchTest, SubBatchesAgreeWithShardOfAndKeepOrder) {
  PartitionSpec spec;
  spec.partitionable = true;
  spec.hash_offsets = {0, 1};  // input 0 keys on offset 0, input 1 on 1

  // 3 is not a power of two: the modulus then uses every bit of the
  // mixed hash, not just its low bits.
  for (size_t kShards : {3u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "shards=" << kShards);
    TupleBatch batch(16);
    for (int64_t i = 0; i < 16; ++i) {
      batch.Append(Tuple({Value(i % 6), Value(i)}), 100 + i);
    }
    std::vector<TupleBatch> shards;
    ScatterBatch(spec, /*input=*/0, batch, kShards, &shards);
    ASSERT_EQ(shards.size(), kShards);

    size_t total = 0;
    std::vector<int64_t> seen_ts;
    for (size_t s = 0; s < kShards; ++s) {
      for (size_t i = 0; i < shards[s].size(); ++i) {
        EXPECT_EQ(spec.ShardOf(0, shards[s].tuple(i), kShards), s);
        seen_ts.push_back(shards[s].timestamp(i));
        // Arrival order within a shard is preserved (timestamps were
        // appended in increasing order).
        if (i > 0) {
          EXPECT_LT(shards[s].timestamp(i - 1), shards[s].timestamp(i));
        }
      }
      total += shards[s].size();
    }
    EXPECT_EQ(total, batch.size());

    // Storage is recycled: scattering a smaller batch clears
    // sub-batches.
    TupleBatch small(2);
    small.Append(Tuple({Value(1), Value(1)}), 0);
    ScatterBatch(spec, 0, small, kShards, &shards);
    size_t total_small = 0;
    for (const TupleBatch& sub : shards) total_small += sub.size();
    EXPECT_EQ(total_small, 1u);
  }
}

// The ingest buffer is invisible at flush points: tuples buffer until
// the batch fills, the stream changes, a punctuation arrives, or
// FlushIngest is called — and the batch's results are emitted before
// any punctuation that arrived after the batch is forwarded.
TEST(IngestBatchingTest, BatchFlushedBeforeLaterPunctuation) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  SchemeSet schemes = Fig5Schemes(catalog);

  auto run = [&](size_t batch_size) {
    ExecutorConfig config;
    config.keep_results = true;
    config.batch_size = batch_size;
    auto exec = PlanExecutor::Create(q, schemes, PlanShape::SingleMJoin(3),
                                     config);
    PUNCTSAFE_CHECK(exec.ok()) << exec.status().ToString();
    // Partner state first: S2(B=2, C=3); S3(C=3, A=a) for a in 0..3.
    (*exec)->PushTuple(1, Tuple({Value(2), Value(3)}), 1);
    for (int64_t a = 0; a < 4; ++a) {
      (*exec)->PushTuple(2, Tuple({Value(3), Value(a)}), 2 + a);
    }
    (*exec)->FlushIngest();
    // The S1 run: (a, 2) completes a triangle for every a.
    for (int64_t a = 0; a < 4; ++a) {
      (*exec)->PushTuple(0, Tuple({Value(a), Value(2)}), 10 + a);
    }
    if (batch_size > 4) {
      // Still buffered: nothing delivered, no results yet.
      EXPECT_EQ((*exec)->num_results(), 0u);
    }
    // A punctuation arriving *after* the S1 run closes S1.B = 2. The
    // open batch must be flushed (and its 4 results emitted) before
    // the punctuation is processed — a punctuation-first order would
    // let the purge drop the matching partner state and lose results.
    (*exec)->PushPunctuation(
        0, Punctuation::OfConstants(2, {{1, Value(2)}}), 20);
    std::vector<Tuple> results = (*exec)->kept_results();
    std::sort(results.begin(), results.end());
    return std::make_pair((*exec)->num_results(), results);
  };

  auto [ref_count, ref_results] = run(1);
  EXPECT_EQ(ref_count, 4u);
  for (size_t batch_size : {2u, 64u, 1024u}) {
    SCOPED_TRACE(::testing::Message() << "batch_size=" << batch_size);
    auto [count, results] = run(batch_size);
    EXPECT_EQ(count, ref_count);
    EXPECT_EQ(results, ref_results);
  }
}

TEST(IngestBatchingTest, ExplicitFlushDeliversBufferedTuples) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  ExecutorConfig config;
  config.batch_size = 64;
  auto exec = PlanExecutor::Create(q, Fig5Schemes(catalog),
                                   PlanShape::SingleMJoin(3), config);
  ASSERT_TRUE(exec.ok());

  for (int64_t i = 0; i < 5; ++i) {
    (*exec)->PushTuple(0, Tuple({Value(i), Value(i)}), i);
  }
  EXPECT_EQ((*exec)->TotalLiveTuples(), 0u);  // buffered
  (*exec)->FlushIngest();
  EXPECT_EQ((*exec)->TotalLiveTuples(), 5u);
  (*exec)->FlushIngest();  // no-op on empty
  EXPECT_EQ((*exec)->TotalLiveTuples(), 5u);

  // A stream change flushes the open batch by itself.
  (*exec)->PushTuple(1, Tuple({Value(9), Value(9)}), 10);
  (*exec)->PushTuple(0, Tuple({Value(8), Value(8)}), 11);
  EXPECT_EQ((*exec)->TotalLiveTuples(), 6u);  // S2 row delivered
  (*exec)->FlushIngest();
  EXPECT_EQ((*exec)->TotalLiveTuples(), 7u);
}

}  // namespace
}  // namespace punctsafe
