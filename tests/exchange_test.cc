// Exchange/repartition planning (exec/exchange.h): multi-class MJoin
// chains — which ComputePartitionSpec cannot shard as a single
// operator — are rewritten into left-deep binary chains whose hops
// each carry a covering equivalence class, and the inter-operator
// emit re-hash then acts as the repartitioning exchange. The
// differential scenarios pin the acceptance criterion: a previously
// unshardable multi-class chain runs sharded (every group > 1 shard)
// and produces results identical to the serial executor on the
// ORIGINAL shape.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "exec/exchange.h"
#include "exec/parallel_executor.h"
#include "exec/partition_router.h"
#include "exec/plan_executor.h"
#include "test_util.h"
#include "util/logging.h"
#include "workload/random_query.h"

namespace punctsafe {
namespace {

using testing_util::SchemeOn;

// The canonical multi-class chain: T0.k = T1.k AND T1.v = T2.v. Two
// equivalence classes ({T0.k, T1.k} and {T1.v, T2.v}), so the 3-way
// MJoin is NOT partitionable, while each binary hop is.
struct MultiClassFixture {
  StreamCatalog catalog;
  ContinuousJoinQuery query = ContinuousJoinQuery();
  SchemeSet schemes;
};

MultiClassFixture MakeMultiClassChain() {
  MultiClassFixture fx;
  for (const char* name : {"T0", "T1", "T2"}) {
    PUNCTSAFE_CHECK_OK(fx.catalog.Register(name, Schema::OfInts({"k", "v"})));
    PUNCTSAFE_CHECK_OK(
        fx.schemes.Add(SchemeOn(fx.catalog, name, {"k"})));
    PUNCTSAFE_CHECK_OK(
        fx.schemes.Add(SchemeOn(fx.catalog, name, {"v"})));
  }
  auto q = ContinuousJoinQuery::Create(
      fx.catalog, {"T0", "T1", "T2"},
      {Eq({"T0", "k"}, {"T1", "k"}), Eq({"T1", "v"}, {"T2", "v"})});
  PUNCTSAFE_CHECK(q.ok()) << q.status().ToString();
  fx.query = std::move(q).ValueOrDie();
  return fx;
}

TEST(ExchangeTest, MultiClassSingleMJoinDecomposesToBinaryChain) {
  MultiClassFixture fx = MakeMultiClassChain();
  PlanShape original = PlanShape::SingleMJoin(3);
  PlanShape decomposed = DecomposeForExchange(fx.query, original);

  EXPECT_FALSE(decomposed == original);
  EXPECT_TRUE(decomposed.IsBinaryTree());
  EXPECT_EQ(decomposed.NumOperators(), 2u);
  EXPECT_EQ(decomposed.Leaves(), original.Leaves());

  // T1 touches both predicates, so the greedy order seeds on it and
  // every hop carries a predicate (and thus a covering class): both
  // operators of the decomposed plan are partitionable.
  for (const PlanShape* node = &decomposed; !node->IsLeaf();
       node = &node->children()[0]) {
    std::vector<LocalInput> inputs;
    for (const PlanShape& child : node->children()) {
      LocalInput input;
      input.streams = child.Leaves();
      inputs.push_back(std::move(input));
    }
    EXPECT_TRUE(ComputePartitionSpec(fx.query, inputs).partitionable);
    if (node->children()[0].IsLeaf()) break;
  }
}

TEST(ExchangeTest, PartitionableAndBinaryShapesAreUntouched) {
  // Single-class chain: the 3-way MJoin partitions as-is and must not
  // be rewritten.
  StreamCatalog catalog;
  SchemeSet schemes;
  for (const char* name : {"T0", "T1", "T2"}) {
    PUNCTSAFE_CHECK_OK(catalog.Register(name, Schema::OfInts({"k", "v"})));
    PUNCTSAFE_CHECK_OK(schemes.Add(SchemeOn(catalog, name, {"k"})));
  }
  auto q = ContinuousJoinQuery::Create(
      catalog, {"T0", "T1", "T2"},
      {Eq({"T0", "k"}, {"T1", "k"}), Eq({"T1", "k"}, {"T2", "k"})});
  ASSERT_TRUE(q.ok());
  PlanShape mjoin = PlanShape::SingleMJoin(3);
  EXPECT_TRUE(DecomposeForExchange(*q, mjoin) == mjoin);

  // Binary shapes are never rewritten, multi-class or not.
  MultiClassFixture fx = MakeMultiClassChain();
  PlanShape binary = PlanShape::LeftDeepBinary({0, 1, 2});
  EXPECT_TRUE(DecomposeForExchange(fx.query, binary) == binary);
}

TEST(ExchangeTest, UnshardableChainRunsShardedWithIdenticalResults) {
  // The acceptance scenario: without the exchange the multi-class
  // single MJoin falls back to one shard; with ExecutorConfig::exchange
  // the decomposed plan shards every operator, and the answers match
  // the serial executor running the ORIGINAL shape.
  MultiClassFixture fx = MakeMultiClassChain();
  PlanShape shape = PlanShape::SingleMJoin(3);

  CoveringTraceConfig tconfig;
  tconfig.num_generations = 12;
  tconfig.values_per_generation = 5;
  tconfig.tuples_per_generation = 36;
  tconfig.seed = 23;
  Trace trace = MakeCoveringTrace(fx.query, fx.schemes, tconfig);

  ExecutorConfig serial_config;
  serial_config.keep_results = true;
  auto serial =
      PlanExecutor::Create(fx.query, fx.schemes, shape, serial_config);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(FeedTrace(serial.ValueOrDie().get(), trace).ok());
  std::vector<Tuple> want = (*serial)->kept_results();
  std::sort(want.begin(), want.end());
  ASSERT_GT(want.size(), 0u);

  // Without exchange: the single group cannot shard.
  {
    ExecutorConfig config;
    config.shards = 4;
    auto exec =
        ParallelExecutor::Create(fx.query, fx.schemes, shape, config);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    auto snaps = (*exec)->GroupSnapshots();
    ASSERT_EQ(snaps.size(), 1u);
    EXPECT_EQ(snaps[0].num_shards, 1u) << snaps[0].partition_detail;
    (*exec)->Stop();
  }

  // With exchange: two binary groups, each sharded 4 ways, identical
  // answers.
  ExecutorConfig config;
  config.keep_results = true;
  config.shards = 4;
  config.exchange = true;
  auto exec = ParallelExecutor::Create(fx.query, fx.schemes, shape, config);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_TRUE((*exec)->shape().IsBinaryTree());
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

TEST(ExchangeTest, ExchangeComposesWithRebalancing) {
  // The exchanged plan's groups are ordinary partitioned groups: the
  // rebalancer can migrate them like any other.
  MultiClassFixture fx = MakeMultiClassChain();
  PlanShape shape = PlanShape::SingleMJoin(3);

  CoveringTraceConfig tconfig;
  tconfig.num_generations = 12;
  tconfig.values_per_generation = 5;
  tconfig.tuples_per_generation = 36;
  tconfig.zipf_s = 1.4;
  tconfig.seed = 29;
  Trace trace = MakeCoveringTrace(fx.query, fx.schemes, tconfig);

  ExecutorConfig serial_config;
  serial_config.keep_results = true;
  auto serial =
      PlanExecutor::Create(fx.query, fx.schemes, shape, serial_config);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(FeedTrace(serial.ValueOrDie().get(), trace).ok());
  std::vector<Tuple> want = (*serial)->kept_results();
  std::sort(want.begin(), want.end());

  ExecutorConfig config;
  config.keep_results = true;
  config.shards = 4;
  config.exchange = true;
  config.rebalance.enabled = true;
  config.rebalance.interval_punctuations = 8;
  config.rebalance.skew_threshold = 1.2;
  config.rebalance.min_routed = 64;
  auto exec = ParallelExecutor::Create(fx.query, fx.schemes, shape, config);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_TRUE(FeedTraceParallel(exec.ValueOrDie().get(), trace).ok());
  EXPECT_GT((*exec)->rebalance_migrations(), 0u);
  std::vector<Tuple> got = (*exec)->kept_results();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
  (*exec)->Stop();
}

// Random multi-stream queries: decomposition must always preserve the
// leaf set, produce at-most-binary nodes where it rewrites, and keep
// the result multiset of the parallel executor equal to the serial
// original-shape oracle.
TEST(ExchangeTest, RandomQueriesDifferentialUnderExchange) {
  const uint64_t base_seed = testing_util::TestBaseSeed(0);
  for (uint64_t trial = 0; trial < 20; ++trial) {
    const uint64_t seed = base_seed + trial;
    RandomQueryConfig qconfig;
    qconfig.num_streams = 3 + seed % 3;
    qconfig.attrs_per_stream = 2;
    qconfig.extra_predicates = seed % 3;
    qconfig.schemeless_prob = 0.15;
    qconfig.seed = seed * 67 + 9;
    auto inst = MakeRandomQuery(qconfig);
    ASSERT_TRUE(inst.ok());

    PlanShape shape = PlanShape::SingleMJoin(inst->query.num_streams());
    PlanShape decomposed = DecomposeForExchange(inst->query, shape);
    EXPECT_EQ(decomposed.Leaves(), shape.Leaves());

    CoveringTraceConfig tconfig;
    tconfig.num_generations = 4;
    tconfig.values_per_generation = 3;
    tconfig.tuples_per_generation = 12;
    tconfig.seed = seed;
    Trace trace = MakeCoveringTrace(inst->query, inst->schemes, tconfig);

    SCOPED_TRACE(::testing::Message()
                 << "seed=" << seed << " query=" << inst->query.ToString()
                 << " decomposed="
                 << decomposed.ToString(inst->query));

    ExecutorConfig serial_config;
    serial_config.keep_results = true;
    auto serial = PlanExecutor::Create(inst->query, inst->schemes, shape,
                                       serial_config);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(FeedTrace(serial.ValueOrDie().get(), trace).ok());
    std::vector<Tuple> want = (*serial)->kept_results();
    std::sort(want.begin(), want.end());

    ExecutorConfig config;
    config.keep_results = true;
    config.shards = 2;
    config.exchange = true;
    auto exec = ParallelExecutor::Create(inst->query, inst->schemes, shape,
                                         config);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    ASSERT_TRUE(FeedTraceParallel(exec.ValueOrDie().get(), trace).ok());
    std::vector<Tuple> got = (*exec)->kept_results();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want);
    (*exec)->Stop();
  }
}

}  // namespace
}  // namespace punctsafe
