// End-to-end validation of the paper's central promise: the
// compile-time safety verdict (Theorems 2/4 via the transformed
// punctuation graph) predicts the *runtime* memory behavior. Safe
// queries drain completely under covering punctuations; unsafe
// queries retain state that grows with the input, no matter how many
// punctuations arrive.

#include <gtest/gtest.h>

#include "core/safety_checker.h"
#include "util/logging.h"
#include "exec/plan_executor.h"
#include "test_util.h"
#include "workload/random_query.h"

namespace punctsafe {
namespace {

size_t FinalLiveTuples(const RandomQueryInstance& inst,
                       size_t num_generations, PurgePolicy policy) {
  ExecutorConfig config;
  config.mjoin.purge_policy = policy;
  config.mjoin.lazy_batch = 8;
  auto exec = PlanExecutor::Create(
      inst.query, inst.schemes,
      PlanShape::SingleMJoin(inst.query.num_streams()), config);
  PUNCTSAFE_CHECK(exec.ok()) << exec.status().ToString();

  CoveringTraceConfig tconfig;
  tconfig.num_generations = num_generations;
  tconfig.values_per_generation = 3;
  tconfig.tuples_per_generation = 12;
  tconfig.seed = 1234;
  Trace trace = MakeCoveringTrace(inst.query, inst.schemes, tconfig);
  PUNCTSAFE_CHECK_OK(FeedTrace(exec.ValueOrDie().get(), trace));
  // A final sweep flushes lazy batches so policies are comparable.
  (*exec)->SweepAll(1'000'000'000);
  return (*exec)->TotalLiveTuples();
}

TEST(PropertySafetyTest, VerdictPredictsRuntimeBehavior) {
  int safe_seen = 0, unsafe_seen = 0;
  // Replay a failing seed with PUNCTSAFE_TEST_SEED=<seed> (the run
  // then starts there; trial 0 reproduces the failure).
  const uint64_t base_seed = testing_util::TestBaseSeed(0);
  for (uint64_t trial = 0; trial < 60; ++trial) {
    const uint64_t seed = base_seed + trial;
    RandomQueryConfig config;
    config.num_streams = 2 + seed % 4;
    config.attrs_per_stream = 2 + seed % 2;
    config.extra_predicates = seed % 2;
    config.multi_attr_prob = 0.35;
    config.schemeless_prob = 0.25;
    config.seed = seed * 13 + 11;
    auto inst = MakeRandomQuery(config);
    ASSERT_TRUE(inst.ok());

    SafetyChecker checker(inst->schemes);
    auto report = checker.CheckQuery(inst->query);
    ASSERT_TRUE(report.ok());

    size_t live_short =
        FinalLiveTuples(*inst, /*num_generations=*/6, PurgePolicy::kEager);
    size_t live_long =
        FinalLiveTuples(*inst, /*num_generations=*/18, PurgePolicy::kEager);

    if (report->safe) {
      ++safe_seen;
      EXPECT_EQ(live_short, 0u)
          << "seed=" << seed << " safe query retained state: "
          << inst->query.ToString() << " " << inst->schemes.ToString();
      EXPECT_EQ(live_long, 0u) << "seed=" << seed;
    } else {
      ++unsafe_seen;
      EXPECT_GT(live_long, 0u) << "seed=" << seed
                               << " unsafe query drained anyway: "
                               << inst->query.ToString() << " "
                               << inst->schemes.ToString();
      // Unbounded: retained state grows with the input length.
      EXPECT_GT(live_long, live_short) << "seed=" << seed;
    }
  }
  // The sample must exercise both classes.
  EXPECT_GT(safe_seen, 5);
  EXPECT_GT(unsafe_seen, 5);
}

// Per-stream refinement of Theorem 3: exactly the streams the checker
// marks purgeable drain at runtime.
TEST(PropertySafetyTest, PerStreamPurgeabilityMatchesRuntime) {
  const uint64_t base_seed = testing_util::TestBaseSeed(0);
  for (uint64_t trial = 0; trial < 40; ++trial) {
    const uint64_t seed = base_seed + trial;
    RandomQueryConfig config;
    config.num_streams = 3;
    config.attrs_per_stream = 2;
    config.multi_attr_prob = 0.3;
    config.schemeless_prob = 0.35;
    config.seed = seed * 71 + 29;
    auto inst = MakeRandomQuery(config);
    ASSERT_TRUE(inst.ok());

    SafetyChecker checker(inst->schemes);
    auto report = checker.CheckQuery(inst->query);
    ASSERT_TRUE(report.ok());

    ExecutorConfig exec_config;
    auto exec = PlanExecutor::Create(inst->query, inst->schemes,
                                     PlanShape::SingleMJoin(3), exec_config);
    ASSERT_TRUE(exec.ok());
    CoveringTraceConfig tconfig;
    tconfig.num_generations = 10;
    tconfig.values_per_generation = 3;
    tconfig.tuples_per_generation = 15;
    tconfig.seed = seed;
    Trace trace = MakeCoveringTrace(inst->query, inst->schemes, tconfig);
    ASSERT_TRUE(FeedTrace(exec.ValueOrDie().get(), trace).ok());

    const auto& op = (*exec)->operators().front();
    for (size_t s = 0; s < 3; ++s) {
      if (report->per_stream[s].purgeable) {
        EXPECT_EQ(op->state_metrics(s).live, 0u)
            << "seed=" << seed << " stream=" << s;
      }
      // Static purgeability agrees with the operator's derived plan.
      EXPECT_EQ(op->InputPurgeable(s), report->per_stream[s].purgeable)
          << "seed=" << seed << " stream=" << s;
    }
  }
}

// Purge policies differ in *when*, never in *what*: eager and lazy
// agree after the final flush.
TEST(PropertySafetyTest, EagerAndLazyConvergeAfterFlush) {
  const uint64_t base_seed = testing_util::TestBaseSeed(0);
  for (uint64_t trial = 0; trial < 20; ++trial) {
    const uint64_t seed = base_seed + trial;
    RandomQueryConfig config;
    config.num_streams = 2 + seed % 3;
    config.multi_attr_prob = 0.3;
    config.seed = seed * 101 + 3;
    auto inst = MakeRandomQuery(config);
    ASSERT_TRUE(inst.ok());
    size_t eager = FinalLiveTuples(*inst, 8, PurgePolicy::kEager);
    size_t lazy = FinalLiveTuples(*inst, 8, PurgePolicy::kLazy);
    EXPECT_EQ(eager, lazy) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace punctsafe
