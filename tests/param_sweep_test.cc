// Parameterized property sweeps: the theorem-equivalence and
// runtime-boundedness properties re-checked systematically across the
// instance-space axes (stream count, multi-attribute scheme rate,
// join-graph cyclicity, scheme sparsity) rather than one mixed
// random bag.

#include <gtest/gtest.h>

#include "core/naive_checker.h"
#include "core/safety_checker.h"
#include "core/transformed_punctuation_graph.h"
#include "exec/plan_executor.h"
#include "util/logging.h"
#include "workload/random_query.h"

namespace punctsafe {
namespace {

struct SweepParam {
  size_t num_streams;
  size_t extra_predicates;
  double multi_attr_prob;
  double schemeless_prob;
  const char* label;
};

void PrintTo(const SweepParam& p, std::ostream* os) { *os << p.label; }

class SafetySweepTest : public ::testing::TestWithParam<SweepParam> {
 protected:
  RandomQueryInstance MakeInstance(uint64_t seed) const {
    const SweepParam& p = GetParam();
    RandomQueryConfig config;
    config.num_streams = p.num_streams;
    config.attrs_per_stream = 2;
    config.extra_predicates = p.extra_predicates;
    config.multi_attr_prob = p.multi_attr_prob;
    config.schemeless_prob = p.schemeless_prob;
    config.second_scheme_prob = 0.3;
    config.seed = seed * 6151 + 97;
    auto inst = MakeRandomQuery(config);
    PUNCTSAFE_CHECK_OK(inst.status());
    return std::move(inst).ValueOrDie();
  }
};

// Theorem 5 under every parameter combination: the transformed graph
// (closure mode) equals the Definition 9/10 fixpoint.
TEST_P(SafetySweepTest, TransformedGraphMatchesFixpoint) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    RandomQueryInstance inst = MakeInstance(seed);
    GeneralizedPunctuationGraph gpg =
        GeneralizedPunctuationGraph::Build(inst.query, inst.schemes);
    TransformedPunctuationGraph tpg =
        TransformedPunctuationGraph::BuildFromGpg(gpg);
    EXPECT_EQ(tpg.CollapsedToSingleNode(), gpg.IsStronglyConnected())
        << GetParam().label << " seed=" << seed << " "
        << inst.query.ToString() << " " << inst.schemes.ToString();
  }
}

// Theorems 2/4 under every parameter combination: the one-graph
// verdict equals exhaustive plan enumeration (streams kept <= 4 so
// enumeration stays cheap).
TEST_P(SafetySweepTest, VerdictMatchesExhaustiveEnumeration) {
  if (GetParam().num_streams > 4) GTEST_SKIP() << "enumeration too large";
  for (uint64_t seed = 0; seed < 25; ++seed) {
    RandomQueryInstance inst = MakeInstance(seed);
    auto naive = NaiveSafetyCheck(inst.query, inst.schemes, 8);
    ASSERT_TRUE(naive.ok());
    bool theorem =
        TransformedPunctuationGraph::Build(inst.query, inst.schemes)
            .CollapsedToSingleNode();
    EXPECT_EQ(naive->safe, theorem)
        << GetParam().label << " seed=" << seed << " "
        << inst.query.ToString() << " " << inst.schemes.ToString();
  }
}

// The runtime dichotomy under every parameter combination: safe
// drains, unsafe retains.
TEST_P(SafetySweepTest, RuntimeBoundednessMatchesVerdict) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    RandomQueryInstance inst = MakeInstance(seed);
    SafetyChecker checker(inst.schemes);
    auto report = checker.CheckQuery(inst.query);
    ASSERT_TRUE(report.ok());

    auto exec = PlanExecutor::Create(
        inst.query, inst.schemes,
        PlanShape::SingleMJoin(inst.query.num_streams()), {});
    ASSERT_TRUE(exec.ok());
    CoveringTraceConfig tconfig;
    tconfig.num_generations = 8;
    tconfig.values_per_generation = 3;
    tconfig.tuples_per_generation = 12;
    tconfig.seed = seed;
    Trace trace = MakeCoveringTrace(inst.query, inst.schemes, tconfig);
    ASSERT_TRUE(FeedTrace(exec.ValueOrDie().get(), trace).ok());

    if (report->safe) {
      EXPECT_EQ((*exec)->TotalLiveTuples(), 0u)
          << GetParam().label << " seed=" << seed;
    } else {
      EXPECT_GT((*exec)->TotalLiveTuples(), 0u)
          << GetParam().label << " seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SafetySweepTest,
    ::testing::Values(
        SweepParam{2, 0, 0.0, 0.3, "binary_simple"},
        SweepParam{3, 0, 0.0, 0.3, "tree3_simple"},
        SweepParam{3, 2, 0.0, 0.3, "cyclic3_simple"},
        SweepParam{3, 1, 0.8, 0.2, "cyclic3_multiattr"},
        SweepParam{4, 0, 0.0, 0.4, "tree4_sparse"},
        SweepParam{4, 2, 0.5, 0.25, "cyclic4_mixed"},
        SweepParam{5, 1, 0.4, 0.3, "five_mixed"},
        SweepParam{6, 2, 0.6, 0.2, "six_dense_multiattr"},
        SweepParam{2, 0, 1.0, 0.0, "binary_all_multiattr"},
        SweepParam{4, 3, 0.0, 0.6, "cyclic4_mostly_schemeless"}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace punctsafe
