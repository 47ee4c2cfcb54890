// Differential correctness: purging must never change the answer
// (Definition 1 — purged tuples produce no further results). Every
// punctuation-aware configuration is compared, result-for-result,
// against the never-purging nested-loop reference join on identical
// traces.

#include <gtest/gtest.h>

#include <algorithm>

#include "util/logging.h"

#include "core/plan_safety.h"
#include "exec/mjoin.h"
#include "exec/plan_executor.h"
#include "exec/reference_join.h"
#include "plan/enumerator.h"
#include "workload/auction.h"
#include "workload/random_query.h"

namespace punctsafe {
namespace {

std::vector<Tuple> RunPlan(const RandomQueryInstance& inst,
                           const PlanShape& shape, const Trace& trace,
                           PurgePolicy policy) {
  ExecutorConfig config;
  config.keep_results = true;
  config.mjoin.purge_policy = policy;
  config.mjoin.lazy_batch = 5;
  auto exec = PlanExecutor::Create(inst.query, inst.schemes, shape, config);
  PUNCTSAFE_CHECK(exec.ok()) << exec.status().ToString();
  PUNCTSAFE_CHECK_OK(FeedTrace(exec.ValueOrDie().get(), trace));
  std::vector<Tuple> results = (*exec)->kept_results();
  std::sort(results.begin(), results.end());
  return results;
}

TEST(DifferentialJoinTest, AllConfigurationsAgreeWithReference) {
  int safe_plans_tested = 0;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    RandomQueryConfig qconfig;
    qconfig.num_streams = 2 + seed % 3;
    qconfig.attrs_per_stream = 2;
    qconfig.extra_predicates = seed % 2;
    qconfig.multi_attr_prob = 0.3;
    qconfig.schemeless_prob = 0.2;
    qconfig.seed = seed * 37 + 7;
    auto inst = MakeRandomQuery(qconfig);
    ASSERT_TRUE(inst.ok());

    CoveringTraceConfig tconfig;
    tconfig.num_generations = 5;
    tconfig.values_per_generation = 3;
    tconfig.tuples_per_generation = 14;
    tconfig.seed = seed;
    Trace trace = MakeCoveringTrace(inst->query, inst->schemes, tconfig);

    std::vector<Tuple> expected =
        ReferenceJoinResults(inst->query, trace).ValueOrDie();
    PlanShape mjoin = PlanShape::SingleMJoin(inst->query.num_streams());

    EXPECT_EQ(RunPlan(*inst, mjoin, trace, PurgePolicy::kEager), expected)
        << "eager MJoin diverged, seed=" << seed << " "
        << inst->query.ToString();
    EXPECT_EQ(RunPlan(*inst, mjoin, trace, PurgePolicy::kLazy), expected)
        << "lazy MJoin diverged, seed=" << seed;
    EXPECT_EQ(RunPlan(*inst, mjoin, trace, PurgePolicy::kNone), expected)
        << "no-purge MJoin diverged, seed=" << seed;

    // Every safe tree plan must agree too (punctuation propagation
    // must not lose results).
    SafePlanEnumerator en(inst->query, inst->schemes);
    auto plans = en.EnumerateSafePlans(/*limit=*/6);
    ASSERT_TRUE(plans.ok());
    for (const PlanShape& shape : *plans) {
      if (shape == mjoin) continue;
      ++safe_plans_tested;
      EXPECT_EQ(RunPlan(*inst, shape, trace, PurgePolicy::kEager), expected)
          << "tree plan diverged, seed=" << seed << " shape="
          << shape.ToString(inst->query);
    }
  }
  EXPECT_GT(safe_plans_tested, 3);
}

// The paper's binary case (Section 3.1) runs as a 2-input MJoin; on
// the auction trace it must reproduce the never-purging reference
// exactly and still purge its state down to nothing.
TEST(DifferentialJoinTest, BinaryMJoinMatchesReferenceOnAuction) {
  QueryRegister reg;
  ASSERT_TRUE(AuctionWorkload::Setup(&reg).ok());
  auto q = ContinuousJoinQuery::Create(reg.catalog(),
                                       AuctionWorkload::QueryStreams(),
                                       AuctionWorkload::QueryPredicates());
  ASSERT_TRUE(q.ok());

  AuctionConfig aconfig;
  aconfig.num_items = 120;
  aconfig.bids_per_item = 4;
  aconfig.zipf_theta = 0.8;
  Trace trace = AuctionWorkload::Generate(aconfig);

  std::vector<LocalInput> inputs;
  for (size_t s = 0; s < 2; ++s) {
    inputs.push_back({{s}, RawAvailableSchemes(*q, reg.schemes(), s)});
  }
  auto mjoin = MJoinOperator::Create(*q, inputs, {});
  ASSERT_TRUE(mjoin.ok());
  std::vector<Tuple> mjoin_results;
  (*mjoin)->SetEmitter([&](const StreamElement& e) {
    if (e.is_tuple()) mjoin_results.push_back(e.tuple);
  });
  for (const TraceEvent& e : trace) {
    size_t idx = *q->StreamIndex(e.stream);
    if (e.element.is_tuple()) {
      (*mjoin)->PushTuple(idx, e.element.tuple, e.element.timestamp);
    } else {
      (*mjoin)->PushPunctuation(idx, e.element.punctuation,
                                e.element.timestamp);
    }
  }

  std::sort(mjoin_results.begin(), mjoin_results.end());
  EXPECT_EQ(mjoin_results.size(), 120u * 4u);
  EXPECT_EQ(mjoin_results, ReferenceJoinResults(*q, trace).ValueOrDie());
  EXPECT_EQ((*mjoin)->TotalLiveTuples(), 0u);
}

// Failure injection (Section 5.1): missed punctuations leave residual
// state but never corrupt results; a background cleanup (sweep) later
// removes what newly arrived punctuations allow.
TEST(DifferentialJoinTest, MissedPunctuationsDegradeGracefully) {
  QueryRegister reg;
  ASSERT_TRUE(AuctionWorkload::Setup(&reg).ok());
  auto q = ContinuousJoinQuery::Create(reg.catalog(),
                                       AuctionWorkload::QueryStreams(),
                                       AuctionWorkload::QueryPredicates());
  ASSERT_TRUE(q.ok());

  AuctionConfig lossy;
  lossy.num_items = 150;
  lossy.bids_per_item = 3;
  lossy.punctuation_drop_rate = 0.3;
  lossy.seed = 5;
  Trace trace = AuctionWorkload::Generate(lossy);

  RandomQueryInstance inst;
  inst.query = *q;
  inst.schemes = reg.schemes();
  std::vector<Tuple> expected =
      ReferenceJoinResults(inst.query, trace).ValueOrDie();
  std::vector<Tuple> actual =
      RunPlan(inst, PlanShape::SingleMJoin(2), trace, PurgePolicy::kEager);
  EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace punctsafe
