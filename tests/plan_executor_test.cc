#include "exec/plan_executor.h"

#include <gtest/gtest.h>

#include "exec/parallel_executor.h"
#include "test_util.h"

namespace punctsafe {
namespace {

using testing_util::Fig5Schemes;
using testing_util::Fig8Schemes;
using testing_util::PaperCatalog;
using testing_util::SchemeOn;
using testing_util::TriangleQuery;

TEST(PlanExecutorTest, SingleMJoinEndToEnd) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  ExecutorConfig config;
  config.keep_results = true;
  auto exec = PlanExecutor::Create(q, Fig5Schemes(catalog),
                                   PlanShape::SingleMJoin(3), config);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_TRUE((*exec)->safety().safe);

  (*exec)->PushTuple(0, Tuple({Value(1), Value(2)}), 1);
  (*exec)->PushTuple(1, Tuple({Value(2), Value(3)}), 2);
  (*exec)->PushTuple(2, Tuple({Value(3), Value(1)}), 3);
  EXPECT_EQ((*exec)->num_results(), 1u);
  ASSERT_EQ((*exec)->kept_results().size(), 1u);
  EXPECT_EQ((*exec)->kept_results()[0],
            Tuple({Value(1), Value(2), Value(2), Value(3), Value(3),
                   Value(1)}));
  EXPECT_EQ((*exec)->TotalLiveTuples(), 3u);
  EXPECT_EQ((*exec)->tuple_high_water(), 3u);
}

TEST(PlanExecutorTest, PushRoutesByStreamName) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  auto exec = PlanExecutor::Create(q, Fig5Schemes(catalog),
                                   PlanShape::SingleMJoin(3));
  ASSERT_TRUE(exec.ok());
  TraceEvent good{"S2", StreamElement::OfTuple(Tuple({Value(1), Value(2)}),
                                               1)};
  EXPECT_TRUE((*exec)->Push(good).ok());
  EXPECT_EQ((*exec)->TotalLiveTuples(), 1u);

  TraceEvent bad{"nope", StreamElement::OfTuple(Tuple({Value(1)}), 2)};
  EXPECT_TRUE((*exec)->Push(bad).IsNotFound());
}

// Figure 7 at runtime: the unsafe left-deep plan executes but its
// lower join state never shrinks, even under the full punctuation
// load that keeps the MJoin plan bounded. The single MJoin over all
// three inputs is the paper's plan-independent purge model (Sec 2.4):
// fed the same trace, it releases every S1 tuple from whole-query
// punctuation knowledge.
TEST(PlanExecutorTest, UnsafeShapeRunsButLeaks) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  SchemeSet schemes = Fig5Schemes(catalog);
  auto feed = [](PlanExecutor* exec) {
    for (int i = 0; i < 20; ++i) {
      exec->PushTuple(0, Tuple({Value(i), Value(i)}), i);
      // Every punctuation the schemes allow.
      exec->PushPunctuation(0, Punctuation::OfConstants(2, {{1, Value(i)}}),
                            i);
      exec->PushPunctuation(1, Punctuation::OfConstants(2, {{1, Value(i)}}),
                            i);
      exec->PushPunctuation(2, Punctuation::OfConstants(2, {{1, Value(i)}}),
                            i);
    }
  };

  auto exec = PlanExecutor::Create(q, schemes,
                                   PlanShape::LeftDeepBinary({0, 1, 2}));
  ASSERT_TRUE(exec.ok());
  EXPECT_FALSE((*exec)->safety().safe);
  feed(exec->get());
  // The S1 tuples are stuck in the lower operator forever.
  EXPECT_GE((*exec)->TotalLiveTuples(), 20u);

  auto mjoin = PlanExecutor::Create(q, schemes, PlanShape::SingleMJoin(3));
  ASSERT_TRUE(mjoin.ok());
  EXPECT_TRUE((*mjoin)->safety().safe);
  feed(mjoin->get());
  EXPECT_EQ((*mjoin)->TotalLiveTuples(), 0u);
}

// The Figure 8 safe tree plan: punctuation propagation lets the upper
// operator purge everything — end state is completely empty.
TEST(PlanExecutorTest, SafeTreePlanPropagatesAndDrains) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  SchemeSet schemes = Fig8Schemes(catalog);
  ExecutorConfig config;
  config.keep_results = true;
  auto exec_or = PlanExecutor::Create(
      q, schemes, PlanShape::LeftDeepBinary({0, 1, 2}), config);
  ASSERT_TRUE(exec_or.ok());
  auto& exec = *exec_or;
  ASSERT_TRUE(exec->safety().safe);

  exec->PushTuple(0, Tuple({Value(1), Value(2)}), 1);  // S1(A=1,B=2)
  exec->PushTuple(1, Tuple({Value(2), Value(3)}), 2);  // S2(B=2,C=3)
  exec->PushTuple(2, Tuple({Value(3), Value(1)}), 3);  // S3(C=3,A=1)
  EXPECT_EQ(exec->num_results(), 1u);
  EXPECT_EQ(exec->kept_results()[0],
            Tuple({Value(1), Value(2), Value(2), Value(3), Value(3),
                   Value(1)}));

  // Close everything via raw-stream punctuations.
  exec->PushPunctuation(0, Punctuation::OfConstants(2, {{1, Value(2)}}),
                        4);  // S1: no more B=2
  exec->PushPunctuation(1, Punctuation::OfConstants(2, {{0, Value(2)}}),
                        5);  // S2: no more B=2
  exec->PushPunctuation(1, Punctuation::OfConstants(2, {{1, Value(3)}}),
                        6);  // S2: no more C=3
  exec->PushPunctuation(
      2, Punctuation::OfConstants(2, {{0, Value(3)}, {1, Value(1)}}),
      7);  // S3: no more (C=3, A=1)
  EXPECT_EQ(exec->TotalLiveTuples(), 0u)
      << "propagated punctuations should drain both operators";
  // The lower operator must have propagated punctuations upward; the
  // root (last in post-order) has no parent to propagate to.
  ASSERT_EQ(exec->operators().size(), 2u);
  EXPECT_GT(exec->operators().front()->metrics().punctuations_propagated,
            0u);
  EXPECT_EQ(exec->operators().back()->metrics().punctuations_propagated, 0u);
  // No results were lost relative to the single-MJoin plan.
  EXPECT_EQ(exec->num_results(), 1u);
}

// R(k, a) JOIN S(k, b) ON k, both punctuated on k: one MJoin,
// shardable on k.
struct KeyJoin {
  StreamCatalog catalog;
  ContinuousJoinQuery query;
  SchemeSet schemes;

  static KeyJoin Make() {
    StreamCatalog catalog;
    PUNCTSAFE_CHECK_OK(catalog.Register("R", Schema::OfInts({"k", "a"})));
    PUNCTSAFE_CHECK_OK(catalog.Register("S", Schema::OfInts({"k", "b"})));
    auto q = ContinuousJoinQuery::Create(catalog, {"R", "S"},
                                         {Eq({"R", "k"}, {"S", "k"})});
    PUNCTSAFE_CHECK(q.ok()) << q.status().ToString();
    SchemeSet schemes;
    PUNCTSAFE_CHECK_OK(schemes.Add(SchemeOn(catalog, "R", {"k"})));
    PUNCTSAFE_CHECK_OK(schemes.Add(SchemeOn(catalog, "S", {"k"})));
    return {catalog, *q, schemes};
  }

  // Joins and closes keys 0..7 on both streams, then leaves key 100
  // closed on R only while an R tuple still holds it: that
  // punctuation cannot propagate yet.
  static Trace Events() {
    Trace trace;
    int64_t ts = 0;
    for (int k = 0; k < 8; ++k) {
      trace.push_back({"R", StreamElement::OfTuple(
                                Tuple({Value(k), Value(1)}), ++ts)});
      trace.push_back({"S", StreamElement::OfTuple(
                                Tuple({Value(k), Value(2)}), ++ts)});
      for (const char* stream : {"R", "S"}) {
        trace.push_back({stream, StreamElement::OfPunctuation(
                                     Punctuation::OfConstants(
                                         2, {{0, Value(k)}}),
                                     ++ts)});
      }
    }
    trace.push_back(
        {"R", StreamElement::OfTuple(Tuple({Value(100), Value(1)}), ++ts)});
    trace.push_back({"R", StreamElement::OfPunctuation(
                              Punctuation::OfConstants(2, {{0, Value(100)}}),
                              ++ts)});
    return trace;
  }
};

// A plan root has no parent, so it builds no output punctuations: none
// emitted, none pending, under both executors.
TEST(PlanExecutorTest, RootPropagatesNothing) {
  KeyJoin kj = KeyJoin::Make();
  const Trace trace = KeyJoin::Events();

  auto serial = PlanExecutor::Create(kj.query, kj.schemes,
                                     PlanShape::SingleMJoin(2));
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(FeedTrace(serial->get(), trace).ok());
  EXPECT_EQ((*serial)->num_results(), 8u);
  EXPECT_EQ((*serial)->TotalLiveTuples(), 1u);  // R(100, 1)
  StateSnapshot serial_snap = (*serial)->Checkpoint();
  ASSERT_EQ(serial_snap.operators.size(), 1u);
  EXPECT_EQ(serial_snap.operators[0].op_metrics.punctuations_propagated, 0u);
  EXPECT_TRUE(serial_snap.operators[0].pending.empty());

  ExecutorConfig config;
  config.mode = ExecutionMode::kParallel;
  config.shards = 2;
  auto parallel = ParallelExecutor::Create(kj.query, kj.schemes,
                                           PlanShape::SingleMJoin(2), config);
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ((*parallel)->GroupSnapshots().front().num_shards, 2u);
  ASSERT_TRUE(FeedTraceParallel(parallel->get(), trace).ok());
  EXPECT_EQ((*parallel)->num_results(), 8u);
  auto parallel_snap = (*parallel)->Checkpoint(1000);
  ASSERT_TRUE(parallel_snap.ok());
  ASSERT_EQ(parallel_snap->operators.size(), 1u);
  EXPECT_EQ(parallel_snap->operators[0].op_metrics.punctuations_propagated,
            0u);
  EXPECT_TRUE(parallel_snap->operators[0].pending.empty());
}

TEST(PlanExecutorTest, SweepAllFlushesLazyOperators) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  ExecutorConfig config;
  config.mjoin.purge_policy = PurgePolicy::kLazy;
  config.mjoin.lazy_batch = 1000;
  auto exec = PlanExecutor::Create(q, Fig5Schemes(catalog),
                                   PlanShape::SingleMJoin(3), config);
  ASSERT_TRUE(exec.ok());
  (*exec)->PushTuple(0, Tuple({Value(1), Value(2)}), 1);
  (*exec)->PushPunctuation(2, Punctuation::OfConstants(2, {{1, Value(1)}}),
                           2);
  (*exec)->PushPunctuation(1, Punctuation::OfConstants(2, {{1, Value(9)}}),
                           3);
  EXPECT_EQ((*exec)->TotalLiveTuples(), 1u);
  (*exec)->SweepAll(4);
  EXPECT_EQ((*exec)->TotalLiveTuples(), 0u);
}

TEST(PlanExecutorTest, HighWaterIsMonotone) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  auto exec = PlanExecutor::Create(q, Fig5Schemes(catalog),
                                   PlanShape::SingleMJoin(3));
  ASSERT_TRUE(exec.ok());
  for (int i = 0; i < 5; ++i) {
    (*exec)->PushTuple(0, Tuple({Value(i), Value(i)}), i);
  }
  size_t hw = (*exec)->tuple_high_water();
  EXPECT_EQ(hw, 5u);
  // Purge everything: high water must not decrease.
  for (int i = 0; i < 5; ++i) {
    (*exec)->PushPunctuation(
        2, Punctuation::OfConstants(2, {{1, Value(i)}}), 10 + i);
  }
  EXPECT_EQ((*exec)->TotalLiveTuples(), 0u);
  EXPECT_EQ((*exec)->tuple_high_water(), hw);
  EXPECT_GT((*exec)->punctuation_high_water(), 0u);
}

}  // namespace
}  // namespace punctsafe
