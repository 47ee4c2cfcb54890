#include "exec/purge_engine.h"

#include <gtest/gtest.h>

#include "exec/plan_executor.h"
#include "test_util.h"
#include "workload/random_query.h"

namespace punctsafe {
namespace {

using testing_util::Fig5Schemes;
using testing_util::PaperCatalog;
using testing_util::SchemeOn;
using testing_util::TriangleQuery;

TEST(PurgeEngineTest, StaticVerdictsMatchTheorem3) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  auto engine = PurgeEngine::Create(q, Fig5Schemes(catalog));
  ASSERT_TRUE(engine.ok());
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_TRUE((*engine)->StreamPurgeable(s));
  }
  SchemeSet partial;
  ASSERT_TRUE(partial.Add(SchemeOn(catalog, "S2", {"B"})).ok());
  auto engine2 = PurgeEngine::Create(q, partial);
  ASSERT_TRUE(engine2.ok());
  EXPECT_FALSE((*engine2)->StreamPurgeable(0));
}

TEST(PurgeEngineTest, ChainedReleaseMatchesOperatorBehavior) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  auto engine = PurgeEngine::Create(q, Fig5Schemes(catalog));
  ASSERT_TRUE(engine.ok());

  (*engine)->AddTuple(2, Tuple({Value(30), Value(10)}), 1);  // S3 (C,A)
  (*engine)->AddTuple(0, Tuple({Value(10), Value(20)}), 2);  // S1 (A,B)
  EXPECT_TRUE((*engine)->Sweep(3).empty());

  (*engine)->AddPunctuation(2, Punctuation::OfConstants(2, {{1, Value(10)}}),
                            4);
  EXPECT_TRUE((*engine)->Sweep(5).empty());  // S2 hop still open

  (*engine)->AddPunctuation(1, Punctuation::OfConstants(2, {{1, Value(30)}}),
                            6);
  auto released = (*engine)->Sweep(7);
  EXPECT_EQ(released.size(), 2u);
  EXPECT_EQ((*engine)->TotalLiveTuples(), 0u);
}

// The paper's Section 2.4 point: under the engine model, purgeability
// depends only on the query. The Figure 7 situation — where the
// binary plan's lower operator can never release S1 locally — does
// not trap the engine: the same trace leaves the engine's S1 state
// empty while the binary-plan executor's lower join retains it.
TEST(PurgeEngineTest, PlanIndependenceOnFig7Trace) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  SchemeSet schemes = Fig5Schemes(catalog);

  auto engine = PurgeEngine::Create(q, schemes);
  ASSERT_TRUE(engine.ok());
  auto binary = PlanExecutor::Create(q, schemes,
                                     PlanShape::LeftDeepBinary({0, 1, 2}));
  ASSERT_TRUE(binary.ok());

  for (int i = 0; i < 10; ++i) {
    Tuple s1({Value(i), Value(i)});
    (*engine)->AddTuple(0, s1, i);
    (*binary)->PushTuple(0, s1, i);
    Punctuation close_a = Punctuation::OfConstants(2, {{1, Value(i)}});
    (*engine)->AddPunctuation(2, close_a, i);  // S3 closes A=i
    (*binary)->PushPunctuation(2, close_a, i);
    Punctuation close_c = Punctuation::OfConstants(2, {{1, Value(i)}});
    (*engine)->AddPunctuation(1, close_c, i);  // S2 closes C=i
    (*binary)->PushPunctuation(1, close_c, i);
  }
  (*engine)->Sweep(100);
  EXPECT_EQ((*engine)->live_count(0), 0u)
      << "the engine releases S1 from whole-query knowledge";
  EXPECT_EQ((*binary)->TotalLiveTuples(), 10u)
      << "the operator-local binary plan cannot";
}

// Differential: engine releases exactly what the single-MJoin
// operator purges, across random safe instances.
TEST(PurgeEngineTest, MatchesSingleMJoinOnRandomInstances) {
  for (uint64_t seed = 0; seed < 25; ++seed) {
    RandomQueryConfig config;
    config.num_streams = 2 + seed % 3;
    config.multi_attr_prob = 0.3;
    config.schemeless_prob = 0.2;
    config.seed = seed * 401 + 19;
    auto inst = MakeRandomQuery(config);
    ASSERT_TRUE(inst.ok());

    auto engine = PurgeEngine::Create(inst->query, inst->schemes);
    ASSERT_TRUE(engine.ok());
    ExecutorConfig exec_config;
    exec_config.mjoin.drop_excluded_arrivals = false;
    auto exec = PlanExecutor::Create(
        inst->query, inst->schemes,
        PlanShape::SingleMJoin(inst->query.num_streams()), exec_config);
    ASSERT_TRUE(exec.ok());

    CoveringTraceConfig tconfig;
    tconfig.num_generations = 6;
    tconfig.values_per_generation = 3;
    tconfig.tuples_per_generation = 12;
    tconfig.seed = seed;
    Trace trace = MakeCoveringTrace(inst->query, inst->schemes, tconfig);
    for (const TraceEvent& e : trace) {
      size_t s = *inst->query.StreamIndex(e.stream);
      if (e.element.is_tuple()) {
        (*engine)->AddTuple(s, e.element.tuple, e.element.timestamp);
        (*exec)->PushTuple(s, e.element.tuple, e.element.timestamp);
      } else {
        (*engine)->AddPunctuation(s, e.element.punctuation,
                                  e.element.timestamp);
        (*exec)->PushPunctuation(s, e.element.punctuation,
                                 e.element.timestamp);
      }
      (*engine)->Sweep(e.element.timestamp);
    }
    // Same per-stream residual state.
    const auto& op = (*exec)->operators().front();
    for (size_t s = 0; s < inst->query.num_streams(); ++s) {
      EXPECT_EQ((*engine)->live_count(s), op->state_metrics(s).live)
          << "seed=" << seed << " stream=" << s;
    }
  }
}

}  // namespace
}  // namespace punctsafe
