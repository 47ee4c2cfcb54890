// Partitioned execution regression tests, pinning the two claims the
// shard design rests on (see exec/partition_router.h):
//  1. ComputePartitionSpec only admits partitionings that are exact —
//     every joinable assignment lands on one shard — and falls back to
//     a single shard otherwise;
//  2. a broadcast punctuation purges across the shards exactly the
//     tuples the unpartitioned operator would purge: no double purge
//     (each tuple lives on exactly one shard) and no stranded state (a
//     shard holding a key's tuples always receives every punctuation);
//  3. between two sharded operators keyed on different equivalence
//     classes, the inter-operator re-hash repartitions every result
//     onto the parent's key, so the answers match the serial executor.
//
// The differential test covers the same ground statistically; these
// tests pin the mechanisms directly on hand-built queries.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "exec/parallel_executor.h"
#include "exec/partition_router.h"
#include "exec/plan_executor.h"
#include "test_util.h"
#include "util/logging.h"
#include "workload/random_query.h"

namespace punctsafe {
namespace {

using testing_util::Fig3Query;
using testing_util::Fig5Schemes;
using testing_util::PaperCatalog;
using testing_util::SchemeOn;
using testing_util::TriangleQuery;

// Three streams joined on one shared key attribute: T0.k = T1.k = T2.k
// (the single equivalence class the partitioner wants).
struct SharedKeyFixture {
  StreamCatalog catalog;
  ContinuousJoinQuery query;
  SchemeSet schemes;

  static SharedKeyFixture Make() {
    StreamCatalog catalog;
    PUNCTSAFE_CHECK_OK(catalog.Register("T0", Schema::OfInts({"k", "a"})));
    PUNCTSAFE_CHECK_OK(catalog.Register("T1", Schema::OfInts({"k", "b"})));
    PUNCTSAFE_CHECK_OK(catalog.Register("T2", Schema::OfInts({"k", "c"})));
    auto q = ContinuousJoinQuery::Create(
        catalog, {"T0", "T1", "T2"},
        {Eq({"T0", "k"}, {"T1", "k"}), Eq({"T1", "k"}, {"T2", "k"})});
    PUNCTSAFE_CHECK(q.ok()) << q.status().ToString();
    SchemeSet schemes;
    PUNCTSAFE_CHECK_OK(schemes.Add(SchemeOn(catalog, "T0", {"k"})));
    PUNCTSAFE_CHECK_OK(schemes.Add(SchemeOn(catalog, "T1", {"k"})));
    PUNCTSAFE_CHECK_OK(schemes.Add(SchemeOn(catalog, "T2", {"k"})));
    return {catalog, *q, schemes};
  }
};

std::vector<LocalInput> RawInputs(size_t n) {
  std::vector<LocalInput> inputs;
  for (size_t s = 0; s < n; ++s) inputs.push_back({{s}, {}});
  return inputs;
}

TEST(ComputePartitionSpecTest, BinaryEquiJoinPartitionable) {
  StreamCatalog catalog;
  PUNCTSAFE_CHECK_OK(catalog.Register("L", Schema::OfInts({"a", "k"})));
  PUNCTSAFE_CHECK_OK(catalog.Register("R", Schema::OfInts({"k", "b"})));
  auto q = ContinuousJoinQuery::Create(catalog, {"L", "R"},
                                       {Eq({"L", "k"}, {"R", "k"})});
  ASSERT_TRUE(q.ok());
  PartitionSpec spec = ComputePartitionSpec(*q, RawInputs(2));
  ASSERT_TRUE(spec.partitionable) << spec.detail;
  // L's key is its attribute 1, R's its attribute 0.
  EXPECT_EQ(spec.hash_offsets, (std::vector<size_t>{1, 0}));
}

TEST(ComputePartitionSpecTest, ThreeWaySharedKeyPartitionable) {
  SharedKeyFixture fx = SharedKeyFixture::Make();
  PartitionSpec spec = ComputePartitionSpec(fx.query, RawInputs(3));
  ASSERT_TRUE(spec.partitionable) << spec.detail;
  EXPECT_EQ(spec.hash_offsets, (std::vector<size_t>{0, 0, 0}));
}

TEST(ComputePartitionSpecTest, TwoClassChainNotPartitionable) {
  // Figure 3 chain: S1.B=S2.B and S2.C=S3.C form two disjoint classes,
  // neither covering all three inputs.
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = Fig3Query(catalog);
  PartitionSpec spec = ComputePartitionSpec(q, RawInputs(3));
  EXPECT_FALSE(spec.partitionable);
  EXPECT_NE(spec.detail.find("not partitionable"), std::string::npos);
}

TEST(ComputePartitionSpecTest, TriangleNotPartitionableAsSingleMJoin) {
  // The triangle's three predicates form three classes ({A}, {B},
  // {C}), each spanning only two of the three inputs.
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  PartitionSpec spec = ComputePartitionSpec(q, RawInputs(3));
  EXPECT_FALSE(spec.partitionable);
}

TEST(ComputePartitionSpecTest, TriangleBinaryTopPartitionable) {
  // The same triangle as a binary top operator over inputs
  // {S1,S2} and {S3}: binary operators verify every predicate on
  // expansion, so any class covering both inputs is exact.
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  std::vector<LocalInput> inputs = {{{0, 1}, {}}, {{2}, {}}};
  PartitionSpec spec = ComputePartitionSpec(q, inputs);
  ASSERT_TRUE(spec.partitionable) << spec.detail;
  ASSERT_EQ(spec.hash_offsets.size(), 2u);
  // The chosen class is either {S1.A, S3.A} (composite offsets 0/1) or
  // {S2.C, S3.C} (offsets 3/0) — both exact; the deterministic scan
  // picks the C class here, so pin it to catch accidental reshuffles.
  EXPECT_EQ(spec.hash_offsets, (std::vector<size_t>{3, 0}));
}

TEST(ComputePartitionSpecTest, OutOfClassPredicateRejectedForMultiway) {
  // T0.k=T1.k=T2.k covers all inputs, but the extra T0.a=T2.c sits
  // outside the class: a 3-way operator must reject (a shard-local
  // expansion could miss tuples co-partitioned by k but matched on a).
  StreamCatalog catalog;
  PUNCTSAFE_CHECK_OK(catalog.Register("T0", Schema::OfInts({"k", "a"})));
  PUNCTSAFE_CHECK_OK(catalog.Register("T1", Schema::OfInts({"k", "b"})));
  PUNCTSAFE_CHECK_OK(catalog.Register("T2", Schema::OfInts({"k", "c"})));
  auto q = ContinuousJoinQuery::Create(
      catalog, {"T0", "T1", "T2"},
      {Eq({"T0", "k"}, {"T1", "k"}), Eq({"T1", "k"}, {"T2", "k"}),
       Eq({"T0", "a"}, {"T2", "c"})});
  ASSERT_TRUE(q.ok());
  PartitionSpec spec = ComputePartitionSpec(*q, RawInputs(3));
  EXPECT_FALSE(spec.partitionable);

  // The same shape as a binary operator is fine.
  std::vector<LocalInput> binary = {{{0, 1}, {}}, {{2}, {}}};
  EXPECT_TRUE(ComputePartitionSpec(*q, binary).partitionable);
}

TEST(ComputePartitionSpecTest, NoCrossInputPredicateNotPartitionable) {
  // A hypothetical operator joining T0 and T2 directly: the chain's
  // predicates both touch T1, which is outside this operator, so no
  // localized predicate remains and the operator cannot partition (it
  // is a cross product at this level).
  SharedKeyFixture fx = SharedKeyFixture::Make();
  std::vector<LocalInput> inputs = {{{0}, {}}, {{2}, {}}};
  PartitionSpec spec = ComputePartitionSpec(fx.query, inputs);
  EXPECT_FALSE(spec.partitionable);
  EXPECT_NE(spec.detail.find("no cross-input"), std::string::npos);
}

TEST(ComputePartitionSpecTest, ShardOfIsStableAndInRange) {
  SharedKeyFixture fx = SharedKeyFixture::Make();
  PartitionSpec spec = ComputePartitionSpec(fx.query, RawInputs(3));
  ASSERT_TRUE(spec.partitionable);
  for (int64_t k = 0; k < 100; ++k) {
    Tuple t0({Value(k), Value(7)});
    Tuple t1({Value(k), Value(9)});
    size_t shard = spec.ShardOf(0, t0, 4);
    EXPECT_LT(shard, 4u);
    // Same key => same shard, on every input (that is the exactness
    // invariant the router provides).
    EXPECT_EQ(spec.ShardOf(1, t1, 4), shard);
    EXPECT_EQ(spec.ShardOf(2, t1, 4), shard);
    EXPECT_EQ(spec.ShardOf(0, t0, 1), 0u);
  }
}

constexpr size_t kAll = PartitionSpec::kAllShards;

TEST(PunctuationAlignerTest, ForwardsOnceAllShardsArrive) {
  PunctuationAligner aligner(3);
  Punctuation p = Punctuation::OfConstants(2, {{0, Value(5)}});
  int64_t ts = 0;
  EXPECT_FALSE(aligner.Arrive(0, p, 10, kAll, &ts));
  EXPECT_FALSE(aligner.Arrive(2, p, 12, kAll, &ts));
  EXPECT_EQ(aligner.pending(), 1u);
  EXPECT_TRUE(aligner.Arrive(1, p, 11, kAll, &ts));
  EXPECT_EQ(ts, 12);  // max over the contributing emissions
  EXPECT_EQ(aligner.pending(), 0u);
}

TEST(PunctuationAlignerTest, ReEmissionDoesNotCoverForMissingShard) {
  // Shard 0 emitting the same punctuation twice (e.g. its input
  // punctuation arrived twice while it held no matching tuples) must
  // not complete the barrier while shard 1 still holds matchers.
  PunctuationAligner aligner(2);
  Punctuation p = Punctuation::OfConstants(1, {{0, Value(1)}});
  int64_t ts = 0;
  EXPECT_FALSE(aligner.Arrive(0, p, 1, kAll, &ts));
  EXPECT_FALSE(aligner.Arrive(0, p, 2, kAll, &ts));
  EXPECT_FALSE(aligner.Arrive(0, p, 3, kAll, &ts));
  EXPECT_TRUE(aligner.Arrive(1, p, 2, kAll, &ts));
  EXPECT_EQ(ts, 3);
}

TEST(PunctuationAlignerTest, EntryResetsForLaterRounds) {
  PunctuationAligner aligner(2);
  Punctuation p = Punctuation::OfConstants(1, {{0, Value(1)}});
  int64_t ts = 0;
  EXPECT_FALSE(aligner.Arrive(0, p, 1, kAll, &ts));
  EXPECT_TRUE(aligner.Arrive(1, p, 1, kAll, &ts));
  // Second round re-aligns from scratch.
  EXPECT_FALSE(aligner.Arrive(1, p, 5, kAll, &ts));
  EXPECT_TRUE(aligner.Arrive(0, p, 6, kAll, &ts));
  EXPECT_EQ(ts, 6);
}

TEST(PunctuationAlignerTest, DistinctPunctuationsAlignIndependently) {
  PunctuationAligner aligner(2);
  Punctuation p1 = Punctuation::OfConstants(1, {{0, Value(1)}});
  Punctuation p2 = Punctuation::OfConstants(1, {{0, Value(2)}});
  int64_t ts = 0;
  EXPECT_FALSE(aligner.Arrive(0, p1, 1, kAll, &ts));
  EXPECT_FALSE(aligner.Arrive(1, p2, 1, kAll, &ts));
  EXPECT_EQ(aligner.pending(), 2u);
  EXPECT_TRUE(aligner.Arrive(1, p1, 1, kAll, &ts));
  EXPECT_TRUE(aligner.Arrive(0, p2, 1, kAll, &ts));
}

TEST(PunctuationAlignerTest, OneVoterRoundCompletesOnItsVoteAlone) {
  // A key-pinned output punctuation names one voter: its vote forwards
  // at once, other shards' votes are ignored and leave nothing pending.
  PunctuationAligner aligner(4);
  Punctuation p = Punctuation::OfConstants(2, {{0, Value(7)}});
  int64_t ts = 0;
  EXPECT_FALSE(aligner.Arrive(0, p, 3, /*expected=*/2, &ts));
  EXPECT_FALSE(aligner.Arrive(3, p, 4, /*expected=*/2, &ts));
  EXPECT_EQ(aligner.pending(), 0u);
  EXPECT_TRUE(aligner.Arrive(2, p, 5, /*expected=*/2, &ts));
  EXPECT_EQ(ts, 5);
  EXPECT_EQ(aligner.pending(), 0u);
  EXPECT_EQ(aligner.pending_high_water(), 0u);
}

TEST(ComputePartitionSpecTest, PunctuationRoutingFollowsTheKey) {
  SharedKeyFixture fx = SharedKeyFixture::Make();
  PartitionSpec spec = ComputePartitionSpec(fx.query, RawInputs(3));
  ASSERT_TRUE(spec.routes_punctuations) << spec.detail;
  // The output row is T0(k,a) T1(k,b) T2(k,c): k sits at 0, 2 and 4.
  EXPECT_EQ(spec.output_key_offsets, (std::vector<size_t>{0, 2, 4}));
  for (int64_t k = 0; k < 50; ++k) {
    const size_t owner = spec.ShardOf(1, Tuple({Value(k), Value(0)}), 4);
    EXPECT_EQ(spec.PunctuationShard(
                  1, Punctuation::OfConstants(2, {{0, Value(k)}}), 4),
              owner);
    EXPECT_EQ(spec.OutputPunctuationShard(
                  Punctuation::OfConstants(6, {{4, Value(k)}}), 4),
              owner);
  }
  // A punctuation leaving the key open goes everywhere; one shard
  // takes everything.
  Punctuation open = Punctuation::OfConstants(2, {{1, Value(3)}});
  EXPECT_EQ(spec.PunctuationShard(0, open, 4), kAll);
  EXPECT_EQ(spec.OutputPunctuationShard(
                Punctuation::OfConstants(6, {{1, Value(3)}}), 4),
            kAll);
  EXPECT_EQ(spec.PunctuationShard(0, open, 1), 0u);

  // Two members of the key class on one input (T0.k = T1.k and
  // T0.a = T1.k): the spec still partitions the binary join but
  // broadcasts punctuations.
  auto q = ContinuousJoinQuery::Create(
      fx.catalog, {"T0", "T1"},
      {Eq({"T0", "k"}, {"T1", "k"}), Eq({"T0", "a"}, {"T1", "k"})});
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  PartitionSpec two = ComputePartitionSpec(*q, RawInputs(2));
  ASSERT_TRUE(two.partitionable) << two.detail;
  EXPECT_FALSE(two.routes_punctuations);
  EXPECT_EQ(two.PunctuationShard(
                1, Punctuation::OfConstants(2, {{0, Value(1)}}), 4),
            kAll);
}

// The purge-equivalence regression: a broadcast punctuation purges
// across the shards exactly what the unpartitioned operator purges.
TEST(PartitionPurgeTest, BroadcastPunctuationPurgesExactlyLikeSerial) {
  SharedKeyFixture fx = SharedKeyFixture::Make();
  PlanShape shape = PlanShape::SingleMJoin(3);

  // 24 keys spread over the shards; every key gets one tuple per
  // stream (so full results exist), then k-punctuations close a prefix
  // of the keys on every stream.
  Trace trace;
  const int64_t kKeys = 24, kClosed = 16;
  int64_t ts = 0;
  for (int64_t k = 0; k < kKeys; ++k) {
    trace.push_back({"T0", StreamElement::OfTuple(
                               Tuple({Value(k), Value(100 + k)}), ++ts)});
    trace.push_back({"T1", StreamElement::OfTuple(
                               Tuple({Value(k), Value(200 + k)}), ++ts)});
    trace.push_back({"T2", StreamElement::OfTuple(
                               Tuple({Value(k), Value(300 + k)}), ++ts)});
  }
  for (int64_t k = 0; k < kClosed; ++k) {
    for (const char* s : {"T0", "T1", "T2"}) {
      trace.push_back({s, StreamElement::OfPunctuation(
                              Punctuation::OfConstants(2, {{0, Value(k)}}),
                              ++ts)});
    }
  }

  ExecutorConfig config;
  config.keep_results = true;

  auto serial = PlanExecutor::Create(fx.query, fx.schemes, shape, config);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  PUNCTSAFE_CHECK_OK(FeedTrace(serial->get(), trace));
  (*serial)->SweepAll(ts + 1);

  uint64_t serial_purged = 0, serial_dropped = 0;
  for (const auto& op : (*serial)->operators()) {
    for (size_t i = 0; i < op->num_inputs(); ++i) {
      StateMetricsSnapshot m = op->state_metrics(i).Snapshot();
      serial_purged += m.purged;
      serial_dropped += m.dropped_on_arrival;
    }
  }
  // Sanity: the trace really exercises the purge path and leaves the
  // open keys live.
  ASSERT_GT(serial_purged + serial_dropped, 0u);
  ASSERT_EQ((*serial)->TotalLiveTuples(), 3u * (kKeys - kClosed));

  for (size_t shards : {2u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "shards=" << shards);
    config.shards = shards;
    auto parallel =
        ParallelExecutor::Create(fx.query, fx.schemes, shape, config);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ASSERT_EQ((*parallel)->num_operator_groups(), 1u);
    PUNCTSAFE_CHECK_OK(FeedTraceParallel(parallel->get(), trace));

    // Result multiset identical.
    std::vector<Tuple> serial_results = (*serial)->kept_results();
    std::vector<Tuple> parallel_results = (*parallel)->kept_results();
    std::sort(serial_results.begin(), serial_results.end());
    std::sort(parallel_results.begin(), parallel_results.end());
    EXPECT_EQ(parallel_results, serial_results);

    // No stranded state: closed keys are gone from every shard, open
    // keys all survive.
    EXPECT_EQ((*parallel)->TotalLiveTuples(), 3u * (kKeys - kClosed));

    // No double purge: total removals across all shards equal the
    // unpartitioned operator's (each tuple lives on exactly one shard,
    // so it can only be removed once).
    uint64_t parallel_purged = 0, parallel_dropped = 0;
    for (const auto& op : (*parallel)->operators()) {
      for (size_t i = 0; i < op->num_inputs(); ++i) {
        StateMetricsSnapshot m = op->state_metrics(i).Snapshot();
        parallel_purged += m.purged;
        parallel_dropped += m.dropped_on_arrival;
      }
    }
    EXPECT_EQ(parallel_purged + parallel_dropped,
              serial_purged + serial_dropped);

    // Punctuations are replicated per shard; the logical count must
    // still match the serial executor.
    EXPECT_EQ((*parallel)->TotalLivePunctuations(),
              (*serial)->TotalLivePunctuations());

    (*parallel)->Stop();
  }
}

// Shard layout surface: partitionable operators fan out to K shards,
// non-partitionable ones fall back to one, and the per-group metrics
// roll up consistently.
TEST(PartitionPurgeTest, GroupSnapshotsReflectShardLayout) {
  SharedKeyFixture fx = SharedKeyFixture::Make();
  ExecutorConfig config;
  config.shards = 4;

  auto exec = ParallelExecutor::Create(fx.query, fx.schemes,
                                       PlanShape::SingleMJoin(3), config);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();

  int64_t ts = 0;
  for (int64_t k = 0; k < 32; ++k) {
    (*exec)->PushTuple(0, Tuple({Value(k), Value(k)}), ++ts);
    (*exec)->PushTuple(1, Tuple({Value(k), Value(k)}), ++ts);
  }
  PUNCTSAFE_CHECK_OK((*exec)->Drain(ts + 1));

  auto snaps = (*exec)->GroupSnapshots();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_TRUE(snaps[0].partitioned);
  EXPECT_EQ(snaps[0].num_shards, 4u);
  ASSERT_EQ(snaps[0].shard_live.size(), 4u);
  EXPECT_NE(snaps[0].partition_detail.find("partition key"),
            std::string::npos);
  // 4 shard instances of the one logical operator.
  EXPECT_EQ((*exec)->operators().size(), 4u);
  EXPECT_EQ((*exec)->num_operator_groups(), 1u);
  // Shard live counts partition the logical total, and with 32 keys
  // over 4 shards the hash should not send everything to one shard.
  size_t sum = std::accumulate(snaps[0].shard_live.begin(),
                               snaps[0].shard_live.end(), size_t{0});
  EXPECT_EQ(sum, (*exec)->TotalLiveTuples());
  EXPECT_EQ(sum, snaps[0].aggregate.live);
  EXPECT_GT(*std::min_element(snaps[0].shard_live.begin(),
                              snaps[0].shard_live.end()),
            0u);
  (*exec)->Stop();

  // The triangle as a single MJoin is not partitionable: requesting 4
  // shards silently falls back to 1 (and says why).
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery tq = TriangleQuery(catalog);
  auto tri = ParallelExecutor::Create(tq, Fig5Schemes(catalog),
                                      PlanShape::SingleMJoin(3), config);
  ASSERT_TRUE(tri.ok()) << tri.status().ToString();
  auto tri_snaps = (*tri)->GroupSnapshots();
  ASSERT_EQ(tri_snaps.size(), 1u);
  EXPECT_FALSE(tri_snaps[0].partitioned);
  EXPECT_EQ(tri_snaps[0].num_shards, 1u);
  EXPECT_NE(tri_snaps[0].partition_detail.find("not partitionable"),
            std::string::npos);
  EXPECT_EQ((*tri)->operators().size(), 1u);
  (*tri)->Stop();
}

// The multi-class chain T0.k = T1.k AND T1.v = T2.v has two
// equivalence classes ({T0.k, T1.k} and {T1.v, T2.v}), so the 3-way
// MJoin cannot shard, while every hop of a binary chain seeded on T1
// can: the lower operator shards on k, the upper one on v, and each
// lower-shard result is re-hashed onto v on its way up.
struct MultiClassChain {
  StreamCatalog catalog;
  ContinuousJoinQuery query;
  SchemeSet schemes;

  static MultiClassChain Make() {
    StreamCatalog catalog;
    SchemeSet schemes;
    for (const char* name : {"T0", "T1", "T2"}) {
      PUNCTSAFE_CHECK_OK(catalog.Register(name, Schema::OfInts({"k", "v"})));
      PUNCTSAFE_CHECK_OK(schemes.Add(SchemeOn(catalog, name, {"k"})));
      PUNCTSAFE_CHECK_OK(schemes.Add(SchemeOn(catalog, name, {"v"})));
    }
    auto q = ContinuousJoinQuery::Create(
        catalog, {"T0", "T1", "T2"},
        {Eq({"T0", "k"}, {"T1", "k"}), Eq({"T1", "v"}, {"T2", "v"})});
    PUNCTSAFE_CHECK(q.ok()) << q.status().ToString();
    return {catalog, *q, schemes};
  }
};

// Runs `trace` serially on the single MJoin and in parallel on the
// binary chain ((T1 JOIN T0) JOIN T2) with 4 shards per operator, and
// expects both groups sharded and the sorted answers equal.
void ExpectShardedChainMatchesSerial(const MultiClassChain& fx,
                                     const Trace& trace) {
  ExecutorConfig serial_config;
  serial_config.keep_results = true;
  auto serial = PlanExecutor::Create(fx.query, fx.schemes,
                                     PlanShape::SingleMJoin(3), serial_config);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(FeedTrace(serial.ValueOrDie().get(), trace).ok());
  std::vector<Tuple> want = (*serial)->kept_results();
  std::sort(want.begin(), want.end());
  ASSERT_GT(want.size(), 0u);

  ExecutorConfig config;
  config.keep_results = true;
  config.shards = 4;
  const PlanShape chain = PlanShape::LeftDeepBinary({1, 0, 2});
  auto exec = ParallelExecutor::Create(fx.query, fx.schemes, chain, config);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_TRUE((*exec)->shape() == chain);
  auto snaps = (*exec)->GroupSnapshots();
  ASSERT_EQ(snaps.size(), 2u);
  for (const auto& snap : snaps) {
    EXPECT_TRUE(snap.partitioned) << snap.partition_detail;
    EXPECT_EQ(snap.num_shards, 4u);
  }
  ASSERT_TRUE(FeedTraceParallel(exec.ValueOrDie().get(), trace).ok());
  std::vector<Tuple> got = (*exec)->kept_results();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
  (*exec)->Stop();
}

TEST(PartitionPurgeTest, MultiClassChainShardsOnlyAsBinaryChain) {
  MultiClassChain fx = MultiClassChain::Make();

  // As a single MJoin the chain cannot shard: 4 shards fall back to 1.
  ExecutorConfig config;
  config.shards = 4;
  auto mjoin = ParallelExecutor::Create(fx.query, fx.schemes,
                                        PlanShape::SingleMJoin(3), config);
  ASSERT_TRUE(mjoin.ok()) << mjoin.status().ToString();
  auto snaps = (*mjoin)->GroupSnapshots();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].num_shards, 1u) << snaps[0].partition_detail;
  (*mjoin)->Stop();

  CoveringTraceConfig tconfig;
  tconfig.num_generations = 12;
  tconfig.values_per_generation = 5;
  tconfig.tuples_per_generation = 36;
  tconfig.seed = 23;
  {
    SCOPED_TRACE("uniform trace");
    ExpectShardedChainMatchesSerial(
        fx, MakeCoveringTrace(fx.query, fx.schemes, tconfig));
  }
  // A zipf-skewed trace concentrates each generation on a few hot keys,
  // so the re-hash between the two groups routes unevenly.
  tconfig.zipf_s = 1.4;
  tconfig.seed = 29;
  {
    SCOPED_TRACE("zipf 1.4 trace");
    ExpectShardedChainMatchesSerial(
        fx, MakeCoveringTrace(fx.query, fx.schemes, tconfig));
  }
}

// Key routing: every punctuation below pins k, so each lives on
// ShardOf(k) alone. T2 never promises, so no value finishes and every
// punctuation stays stored: the per-shard stores partition the serial
// store exactly.
TEST(PartitionPurgeTest, KeyPinnedPunctuationIsStoredOnItsShardOnly) {
  SharedKeyFixture fx = SharedKeyFixture::Make();
  PlanShape shape = PlanShape::SingleMJoin(3);
  constexpr int64_t kKeys = 40;
  Trace trace;
  int64_t ts = 0;
  for (int64_t k = 0; k < kKeys; ++k) {
    for (const char* s : {"T0", "T1", "T2"}) {
      trace.push_back(
          {s, StreamElement::OfTuple(Tuple({Value(k), Value(k)}), ++ts)});
    }
    for (const char* s : {"T0", "T1"}) {
      trace.push_back({s, StreamElement::OfPunctuation(
                              Punctuation::OfConstants(2, {{0, Value(k)}}),
                              ++ts)});
    }
  }
  ExecutorConfig config;
  config.keep_results = true;
  auto serial = PlanExecutor::Create(fx.query, fx.schemes, shape, config);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  PUNCTSAFE_CHECK_OK(FeedTrace(serial->get(), trace));
  (*serial)->SweepAll(ts + 1);
  ASSERT_EQ((*serial)->TotalLivePunctuations(), 2u * kKeys);

  for (size_t shards : {2u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "shards=" << shards);
    config.shards = shards;
    auto exec = ParallelExecutor::Create(fx.query, fx.schemes, shape, config);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    PUNCTSAFE_CHECK_OK(FeedTraceParallel(exec->get(), trace));
    const PartitionSpec spec = ComputePartitionSpec(
        fx.query, {{{0}, {}}, {{1}, {}}, {{2}, {}}});
    size_t summed = 0;
    for (size_t s = 0; s < shards; ++s) {
      const MJoinOperator& op = *(*exec)->operators()[s];
      summed += op.TotalLivePunctuations();
      OperatorStateSnapshot snap = op.CaptureState();
      for (size_t input = 0; input < snap.inputs.size(); ++input) {
        for (const PunctuationEntry& e : snap.inputs[input].punctuations) {
          EXPECT_EQ(spec.PunctuationShard(input, e.punctuation, shards), s)
              << e.punctuation.ToString() << " stored on shard " << s;
        }
      }
    }
    EXPECT_EQ(summed, (*serial)->TotalLivePunctuations());
    EXPECT_EQ((*exec)->TotalLivePunctuations(),
              (*serial)->TotalLivePunctuations());
    std::vector<Tuple> got = (*exec)->kept_results();
    std::vector<Tuple> want = (*serial)->kept_results();
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
    (*exec)->Stop();
  }
}

// The shared key through a binary chain ((T0 JOIN T1) JOIN T2): the
// child shards on k, and each of its output punctuations pins a k
// member, so its owner's vote alone forwards it (the aligner's pending
// table stays empty). The parent routes the T1.k ones (and T2's own)
// to one shard and broadcasts the T0.k ones, and still purges to
// nothing.
TEST(PartitionPurgeTest, LeftDeepSharedKeyAlignsOnOneVote) {
  SharedKeyFixture fx = SharedKeyFixture::Make();
  const PlanShape shape = PlanShape::LeftDeepBinary({0, 1, 2});
  CoveringTraceConfig tconfig;
  tconfig.num_generations = 10;
  tconfig.values_per_generation = 6;
  tconfig.tuples_per_generation = 30;
  tconfig.seed = 7;
  const Trace trace = MakeCoveringTrace(fx.query, fx.schemes, tconfig);
  size_t t0_punctuations = 0, t1_punctuations = 0, t2_punctuations = 0;
  for (const TraceEvent& e : trace) {
    if (e.element.is_tuple()) continue;
    t0_punctuations += e.stream == "T0";
    t1_punctuations += e.stream == "T1";
    t2_punctuations += e.stream == "T2";
  }
  ASSERT_GT(t0_punctuations + t1_punctuations, 0u);

  ExecutorConfig config;
  config.keep_results = true;
  auto serial = PlanExecutor::Create(fx.query, fx.schemes, shape, config);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  PUNCTSAFE_CHECK_OK(FeedTrace(serial->get(), trace));
  std::vector<Tuple> want = (*serial)->kept_results();
  std::sort(want.begin(), want.end());
  ASSERT_GT(want.size(), 0u);

  for (size_t shards : {2u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "shards=" << shards);
    config.shards = shards;
    config.observe = true;
    auto exec = ParallelExecutor::Create(fx.query, fx.schemes, shape, config);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    PUNCTSAFE_CHECK_OK(FeedTraceParallel(exec->get(), trace));
    std::vector<Tuple> got = (*exec)->kept_results();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want);

    auto groups = (*exec)->GroupSnapshots();
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0].num_shards, shards);
    EXPECT_EQ(groups[1].num_shards, shards);
    EXPECT_EQ(groups[1].aggregate.live, 0u) << "parent kept tuples";
    EXPECT_EQ((*exec)->TotalLiveTuples(), (*serial)->TotalLiveTuples());

    uint64_t parent_unicast = 0;
    for (const obs::OperatorObsEntry& e :
         (*exec)->ObservabilitySnapshot().operators) {
      if (e.op == 0) {
        EXPECT_EQ(e.aligner_pending_high_water, 0u)
            << "a child output punctuation waited for a second vote";
      } else {
        parent_unicast += e.punct_unicast;
        EXPECT_EQ(e.punct_broadcast, t0_punctuations);
      }
    }
    // Every T1 punctuation was forwarded once, to one parent shard,
    // and every T2 punctuation went to one.
    EXPECT_EQ(parent_unicast, t1_punctuations + t2_punctuations);
    (*exec)->Stop();
  }
}

// The driver ships a staged tuple as soon as its shard's worker is
// parked on an empty queue: the last tuple of a join joins without a
// further push and without Drain, although batch_size is 128.
TEST(ParallelExecutorTest, IdleShardJoinsWithoutALaterCall) {
  SharedKeyFixture fx = SharedKeyFixture::Make();
  ExecutorConfig config;
  config.keep_results = true;
  config.shards = 2;
  config.batch_size = 128;
  auto exec = ParallelExecutor::Create(fx.query, fx.schemes,
                                       PlanShape::SingleMJoin(3), config);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  auto wait_live = [&](size_t n) {
    while ((*exec)->TotalLiveTuples() < n && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  for (size_t stream = 0; stream < 3; ++stream) {
    // The pause lets the shard finish the previous tuple and park.
    wait_live(stream);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    (*exec)->PushTuple(stream, Tuple({Value(int64_t{7}), Value(int64_t{1})}),
                       static_cast<int64_t>(stream + 1));
  }
  std::vector<Tuple> results;
  while (results.empty() && Clock::now() < deadline) {
    results = (*exec)->TakeResults();
    if (results.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(results.size(), 1u)
      << "the last tuple waited in the driver for a later call";
  (*exec)->Stop();
}

}  // namespace
}  // namespace punctsafe
