// Adaptive shard rebalancing: the ShardMap routing table, the greedy
// LPT assignment planner, and the punctuation-aligned migration
// protocol (kMigrate barrier -> capture + merge -> re-split under the
// new map -> kRecheck). The migration scenarios check the executor
// against the serial oracle around forced RebalanceNow / ResizeShards
// calls, including growing into pre-allocated headroom and shrinking
// back — answers and final state must be identical to a run that
// never migrated. tests/rebalance_differential_test.cc drives the
// same protocol over randomized queries and migration points.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "exec/parallel_executor.h"
#include "exec/plan_executor.h"
#include "exec/shard_map.h"
#include "obs/exporter.h"
#include "test_util.h"
#include "util/logging.h"
#include "workload/random_query.h"

namespace punctsafe {
namespace {

using testing_util::SchemeOn;

// ----------------------------------------------------------- ShardMap

TEST(ShardMapTest, BalancedAssignmentMatchesModuloForPow2Shards) {
  // For power-of-two shard counts <= kNumSlots the initial balanced
  // map routes exactly like the old `hash % K` scheme — static
  // sharding's shard assignment is unchanged by the indirection.
  for (size_t k : {1u, 2u, 4u, 8u}) {
    ShardMap map(k);
    EXPECT_EQ(map.num_shards(), k);
    EXPECT_EQ(map.version(), 0u);
    for (uint64_t h : {0ull, 1ull, 63ull, 64ull, 0x9E3779B97F4A7C15ull,
                       0xFFFFFFFFFFFFFFFFull}) {
      EXPECT_EQ(map.ShardOf(h), (h & (ShardMap::kNumSlots - 1)) % k);
      EXPECT_EQ(map.ShardOf(h), ShardMap::SlotOf(h) % k);
    }
  }
}

TEST(ShardMapTest, ApplyValidatesAndBumpsVersion) {
  ShardMap map(2);
  // Wrong length.
  EXPECT_TRUE(map.Apply({0, 1, 0}, 2).IsInvalidArgument());
  // Out-of-range shard id.
  std::vector<uint32_t> bad(ShardMap::kNumSlots, 0);
  bad[7] = 2;
  EXPECT_TRUE(map.Apply(bad, 2).IsInvalidArgument());
  EXPECT_TRUE(map.Apply(ShardMap::BalancedAssignment(2), 0)
                  .IsInvalidArgument());
  // Failed applies leave the map untouched.
  EXPECT_EQ(map.version(), 0u);
  EXPECT_EQ(map.num_shards(), 2u);

  std::vector<uint32_t> all_one(ShardMap::kNumSlots, 1);
  PUNCTSAFE_CHECK_OK(map.Apply(all_one, 3));
  EXPECT_EQ(map.version(), 1u);
  EXPECT_EQ(map.num_shards(), 3u);
  for (size_t slot = 0; slot < ShardMap::kNumSlots; ++slot) {
    EXPECT_EQ(map.shard_of_slot(slot), 1u);
  }
}

TEST(ShardMapTest, ComputeShardAssignmentBalancesSkewedLoad) {
  // One scorching slot plus uniform background: LPT must isolate the
  // hot slot and spread the rest, landing within one background slot
  // of the ideal split.
  std::vector<uint64_t> loads(ShardMap::kNumSlots, 10);
  loads[5] = 10 * (ShardMap::kNumSlots - 1);  // half the total load
  std::vector<uint32_t> assignment = ComputeShardAssignment(loads, 2);
  ASSERT_EQ(assignment.size(), ShardMap::kNumSlots);

  std::vector<uint64_t> shard_load(2, 0);
  std::vector<size_t> shard_slots(2, 0);
  for (size_t slot = 0; slot < loads.size(); ++slot) {
    ASSERT_LT(assignment[slot], 2u);
    shard_load[assignment[slot]] += loads[slot];
    ++shard_slots[assignment[slot]];
  }
  // The hot slot sits alone on its shard; everything else went to the
  // other one.
  EXPECT_EQ(shard_slots[assignment[5]], 1u);
  EXPECT_LE(LoadSkew(shard_load), 1.01);

  // Determinism: same loads, same plan.
  EXPECT_EQ(ComputeShardAssignment(loads, 2), assignment);
}

TEST(ShardMapTest, ComputeShardAssignmentZeroLoadIsRoundishRobin) {
  // No signal: every shard still gets slots (no all-to-shard-0
  // degeneracy), evenly.
  std::vector<uint64_t> loads(ShardMap::kNumSlots, 0);
  std::vector<uint32_t> assignment = ComputeShardAssignment(loads, 4);
  std::vector<size_t> per_shard(4, 0);
  for (uint32_t s : assignment) ++per_shard[s];
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(per_shard[s], ShardMap::kNumSlots / 4);
  }
}

TEST(ShardMapTest, LoadSkew) {
  EXPECT_DOUBLE_EQ(LoadSkew({}), 1.0);
  EXPECT_DOUBLE_EQ(LoadSkew({0, 0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(LoadSkew({5, 5, 5, 5}), 1.0);
  EXPECT_DOUBLE_EQ(LoadSkew({30, 10, 10, 10}), 2.0);
  EXPECT_GE(LoadSkew({1, 0, 0, 0}), 3.99);
}

// ------------------------------------------------- migration scenarios

// 3-way chain on a shared key (every predicate in one equivalence
// class -> the single MJoin partitions).
struct ChainFixture {
  StreamCatalog catalog;
  ContinuousJoinQuery query = ContinuousJoinQuery();
  SchemeSet schemes;
};

ChainFixture MakeChain3() {
  ChainFixture fx;
  for (const char* name : {"T0", "T1", "T2"}) {
    PUNCTSAFE_CHECK_OK(fx.catalog.Register(name, Schema::OfInts({"k", "v"})));
    PUNCTSAFE_CHECK_OK(fx.schemes.Add(SchemeOn(fx.catalog, name, {"k"})));
  }
  auto q = ContinuousJoinQuery::Create(
      fx.catalog, {"T0", "T1", "T2"},
      {Eq({"T0", "k"}, {"T1", "k"}), Eq({"T1", "k"}, {"T2", "k"})});
  PUNCTSAFE_CHECK(q.ok()) << q.status().ToString();
  fx.query = std::move(q).ValueOrDie();
  return fx;
}

// Zipf-skewed covering trace over the chain: a stable hot key per
// generation, so routing skew is guaranteed.
Trace SkewedTrace(const ChainFixture& fx, size_t generations) {
  CoveringTraceConfig tconfig;
  tconfig.num_generations = generations;
  tconfig.values_per_generation = 6;
  tconfig.tuples_per_generation = 45;
  tconfig.zipf_s = 1.4;
  tconfig.seed = 11;
  return MakeCoveringTrace(fx.query, fx.schemes, tconfig);
}

struct Observation {
  std::vector<Tuple> results;  // sorted
  size_t live_tuples = 0;
  size_t live_punctuations = 0;
};

Observation SerialOracle(const ChainFixture& fx, const PlanShape& shape,
                         const Trace& trace) {
  ExecutorConfig config;
  config.keep_results = true;
  auto exec = PlanExecutor::Create(fx.query, fx.schemes, shape, config);
  PUNCTSAFE_CHECK(exec.ok()) << exec.status().ToString();
  PUNCTSAFE_CHECK_OK(FeedTrace(exec.ValueOrDie().get(), trace));
  Observation obs;
  obs.results = (*exec)->kept_results();
  std::sort(obs.results.begin(), obs.results.end());
  obs.live_tuples = (*exec)->TotalLiveTuples();
  obs.live_punctuations = (*exec)->TotalLivePunctuations();
  return obs;
}

int64_t MaxTimestamp(const Trace& trace) {
  int64_t max_ts = 0;
  for (const TraceEvent& e : trace) {
    max_ts = std::max(max_ts, e.element.timestamp);
  }
  return max_ts;
}

TEST(RebalanceTest, AutomaticMigrationPreservesAnswersOnSkewedTrace) {
  ChainFixture fx = MakeChain3();
  PlanShape shape = PlanShape::SingleMJoin(3);
  Trace trace = SkewedTrace(fx, 30);
  Observation want = SerialOracle(fx, shape, trace);

  ExecutorConfig config;
  config.keep_results = true;
  config.shards = 4;
  config.batch_size = 32;
  config.rebalance.enabled = true;
  config.rebalance.interval_punctuations = 8;
  config.rebalance.skew_threshold = 1.2;
  config.rebalance.min_routed = 64;
  auto exec = ParallelExecutor::Create(fx.query, fx.schemes, shape, config);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_TRUE(FeedTraceParallel(exec.ValueOrDie().get(), trace).ok());

  // The zipf trace must actually have tripped the controller.
  EXPECT_GT((*exec)->rebalance_migrations(), 0u);
  EXPECT_GT((*exec)->rebalance_tuples_moved(), 0u);

  std::vector<Tuple> results = (*exec)->kept_results();
  std::sort(results.begin(), results.end());
  EXPECT_EQ(results, want.results);
  EXPECT_EQ((*exec)->TotalLiveTuples(), want.live_tuples);
  EXPECT_EQ((*exec)->TotalLivePunctuations(), want.live_punctuations);

  // The installed map diverged from the balanced initial assignment
  // and the group reports its version.
  auto snaps = (*exec)->GroupSnapshots();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_GT(snaps[0].shard_map_version, 0u);
  EXPECT_EQ(snaps[0].active_shards, 4u);
  ASSERT_EQ(snaps[0].shard_routed.size(), 4u);
  const uint64_t routed_total =
      std::accumulate(snaps[0].shard_routed.begin(),
                      snaps[0].shard_routed.end(), uint64_t{0});
  EXPECT_GT(routed_total, 0u);
  (*exec)->Stop();
}

TEST(RebalanceTest, RebalanceNowRequiresTracking) {
  ChainFixture fx = MakeChain3();
  ExecutorConfig config;
  config.shards = 2;
  auto exec = ParallelExecutor::Create(fx.query, fx.schemes,
                                       PlanShape::SingleMJoin(3), config);
  ASSERT_TRUE(exec.ok());
  EXPECT_TRUE((*exec)->RebalanceNow(0).IsFailedPrecondition());
  EXPECT_TRUE((*exec)->ResizeShards(2, 0).IsFailedPrecondition());
  (*exec)->Stop();
}

TEST(RebalanceTest, MidStreamForcedMigrationMatchesOracle) {
  ChainFixture fx = MakeChain3();
  PlanShape shape = PlanShape::SingleMJoin(3);
  Trace trace = SkewedTrace(fx, 20);
  Observation want = SerialOracle(fx, shape, trace);

  ExecutorConfig config;
  config.keep_results = true;
  config.shards = 4;
  config.rebalance.enabled = true;
  config.rebalance.interval_punctuations = 0;  // explicit control only
  auto exec = ParallelExecutor::Create(fx.query, fx.schemes, shape, config);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ParallelExecutor& pe = **exec;

  // Force a migration at several arbitrary mid-stream points.
  const size_t third = trace.size() / 3;
  for (size_t i = 0; i < trace.size(); ++i) {
    ASSERT_TRUE(pe.Push(trace[i]).ok());
    if (i == third || i == 2 * third) {
      ASSERT_TRUE(pe.RebalanceNow(trace[i].element.timestamp).ok());
    }
  }
  ASSERT_TRUE(pe.Drain(MaxTimestamp(trace) + 1).ok());
  EXPECT_GT(pe.rebalance_migrations(), 0u);

  std::vector<Tuple> results = pe.kept_results();
  std::sort(results.begin(), results.end());
  EXPECT_EQ(results, want.results);
  EXPECT_EQ(pe.TotalLiveTuples(), want.live_tuples);
  EXPECT_EQ(pe.TotalLivePunctuations(), want.live_punctuations);
  pe.Stop();
}

TEST(RebalanceTest, GrowAndShrinkActiveShardSetMidStream) {
  ChainFixture fx = MakeChain3();
  PlanShape shape = PlanShape::SingleMJoin(3);
  Trace trace = SkewedTrace(fx, 20);
  Observation want = SerialOracle(fx, shape, trace);

  ExecutorConfig config;
  config.keep_results = true;
  config.shards = 2;  // start on 2 of 5 allocated workers
  config.rebalance.enabled = true;
  config.rebalance.interval_punctuations = 0;
  config.rebalance.max_shards = 5;
  auto exec = ParallelExecutor::Create(fx.query, fx.schemes, shape, config);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ParallelExecutor& pe = **exec;

  {
    auto snaps = pe.GroupSnapshots();
    ASSERT_EQ(snaps.size(), 1u);
    EXPECT_EQ(snaps[0].num_shards, 5u);    // allocated
    EXPECT_EQ(snaps[0].active_shards, 2u);  // routed-to
  }

  const size_t quarter = trace.size() / 4;
  for (size_t i = 0; i < trace.size(); ++i) {
    ASSERT_TRUE(pe.Push(trace[i]).ok());
    const int64_t ts = trace[i].element.timestamp;
    if (i == quarter) {
      ASSERT_TRUE(pe.ResizeShards(5, ts).ok());  // grow 2 -> 5
      EXPECT_EQ(pe.GroupSnapshots()[0].active_shards, 5u);
    } else if (i == 3 * quarter) {
      ASSERT_TRUE(pe.ResizeShards(3, ts).ok());  // shrink 5 -> 3
      EXPECT_EQ(pe.GroupSnapshots()[0].active_shards, 3u);
    }
  }
  ASSERT_TRUE(pe.Drain(MaxTimestamp(trace) + 1).ok());
  EXPECT_GE(pe.rebalance_migrations(), 2u);

  std::vector<Tuple> results = pe.kept_results();
  std::sort(results.begin(), results.end());
  EXPECT_EQ(results, want.results);
  EXPECT_EQ(pe.TotalLiveTuples(), want.live_tuples);
  EXPECT_EQ(pe.TotalLivePunctuations(), want.live_punctuations);

  // After the shrink, no tuple may live on the deactivated shards.
  auto snaps = pe.GroupSnapshots();
  ASSERT_EQ(snaps[0].shard_live.size(), 5u);
  EXPECT_EQ(snaps[0].shard_live[3], 0u);
  EXPECT_EQ(snaps[0].shard_live[4], 0u);
  pe.Stop();
}

TEST(RebalanceTest, ResizeToCurrentSizeStillRebalancesSlots) {
  // ResizeShards to the current active count is a forced rebalance:
  // it may move slots (force=true ignores the skew threshold) but
  // never changes the active set.
  ChainFixture fx = MakeChain3();
  PlanShape shape = PlanShape::SingleMJoin(3);
  Trace trace = SkewedTrace(fx, 10);

  ExecutorConfig config;
  config.shards = 4;
  config.rebalance.enabled = true;
  config.rebalance.interval_punctuations = 0;
  auto exec = ParallelExecutor::Create(fx.query, fx.schemes, shape, config);
  ASSERT_TRUE(exec.ok());
  ParallelExecutor& pe = **exec;
  for (size_t i = 0; i < trace.size() / 2; ++i) {
    ASSERT_TRUE(pe.Push(trace[i]).ok());
  }
  ASSERT_TRUE(pe.ResizeShards(4, MaxTimestamp(trace)).ok());
  EXPECT_EQ(pe.GroupSnapshots()[0].active_shards, 4u);
  pe.Stop();
}

TEST(RebalanceTest, ObservabilityCarriesRebalanceMetrics) {
  ChainFixture fx = MakeChain3();
  PlanShape shape = PlanShape::SingleMJoin(3);
  Trace trace = SkewedTrace(fx, 20);

  ExecutorConfig config;
  config.shards = 4;
  config.batch_size = 32;
  config.observe.enabled = true;
  config.rebalance.enabled = true;
  config.rebalance.interval_punctuations = 8;
  config.rebalance.skew_threshold = 1.2;
  config.rebalance.min_routed = 64;
  auto exec = ParallelExecutor::Create(fx.query, fx.schemes, shape, config);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_TRUE(FeedTraceParallel(exec.ValueOrDie().get(), trace).ok());

  obs::ObsSnapshot snap = (*exec)->ObservabilitySnapshot();
  EXPECT_EQ(snap.rebalance_migrations, (*exec)->rebalance_migrations());
  EXPECT_GT(snap.rebalance_migrations, 0u);
  ASSERT_FALSE(snap.operators.empty());
  bool saw_versioned = false;
  for (const obs::OperatorObsEntry& e : snap.operators) {
    saw_versioned |= e.shard_map_version > 0;
    EXPECT_GE(e.skew, 1.0);
  }
  EXPECT_TRUE(saw_versioned);

  std::string line = obs::RenderJsonLine(snap);
  EXPECT_NE(line.find("\"rebalance_migrations\":"), std::string::npos);
  EXPECT_NE(line.find("\"shard_map_version\":"), std::string::npos);
  EXPECT_NE(line.find("\"skew\":"), std::string::npos);
  (*exec)->Stop();
}

}  // namespace
}  // namespace punctsafe
