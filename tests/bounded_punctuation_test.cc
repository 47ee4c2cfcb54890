// Bounded punctuation state (paper Section 5.1): with retirement, the
// punctuation stores of a safe join hold the generations in flight,
// not every punctuation of the run. A covering trace of the chain
// T0.k = T1.k = T2.k (one scheme on k per stream) is replayed at N and
// 10·N generations, serially and on two shards: the punctuation high
// water must not grow with N, and retirement must have run.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "exec/parallel_executor.h"
#include "exec/plan_executor.h"
#include "test_util.h"
#include "workload/random_query.h"

namespace punctsafe {
namespace {

constexpr size_t kValuesPerGeneration = 8;
constexpr size_t kStreams = 3;

struct Chain {
  StreamCatalog catalog;
  SchemeSet schemes;
  std::unique_ptr<ContinuousJoinQuery> query;
};

std::unique_ptr<Chain> MakeChain() {
  auto c = std::make_unique<Chain>();
  const std::vector<std::string> streams{"T0", "T1", "T2"};
  for (const std::string& name : streams) {
    PUNCTSAFE_CHECK_OK(c->catalog.Register(name, Schema::OfInts({"k", "v"})));
    PUNCTSAFE_CHECK_OK(
        c->schemes.Add(testing_util::SchemeOn(c->catalog, name, {"k"})));
  }
  auto q = ContinuousJoinQuery::Create(
      c->catalog, streams,
      {Eq({"T0", "k"}, {"T1", "k"}), Eq({"T1", "k"}, {"T2", "k"})});
  PUNCTSAFE_CHECK(q.ok()) << q.status().ToString();
  c->query = std::make_unique<ContinuousJoinQuery>(std::move(q).ValueOrDie());
  return c;
}

struct Outcome {
  size_t punct_high_water = 0;
  uint64_t retired = 0;
  size_t live_tuples = 0;
};

Outcome RunChain(const Chain& chain, size_t generations, size_t shards) {
  CoveringTraceConfig tconfig;
  tconfig.num_generations = generations;
  tconfig.values_per_generation = kValuesPerGeneration;
  tconfig.tuples_per_generation = 40;
  tconfig.seed = testing_util::TestBaseSeed(5);
  const Trace trace = MakeCoveringTrace(*chain.query, chain.schemes, tconfig);
  int64_t end = 0;
  for (const TraceEvent& e : trace) {
    end = std::max(end, e.element.timestamp + 1);
  }

  Outcome out;
  const PlanShape shape = PlanShape::SingleMJoin(kStreams);
  ExecutorConfig config;
  if (shards == 1) {
    auto exec = PlanExecutor::Create(*chain.query, chain.schemes, shape,
                                     config);
    PUNCTSAFE_CHECK(exec.ok()) << exec.status().ToString();
    PUNCTSAFE_CHECK_OK(FeedTrace(exec->get(), trace));
    (*exec)->SweepAll(end);
    out.punct_high_water = (*exec)->punctuation_high_water();
    out.live_tuples = (*exec)->TotalLiveTuples();
    for (const auto& op : (*exec)->operators()) {
      out.retired += op->punctuations_purged();
    }
    return out;
  }
  config.mode = ExecutionMode::kParallel;
  config.shards = shards;
  auto exec = ParallelExecutor::Create(*chain.query, chain.schemes, shape,
                                       config);
  PUNCTSAFE_CHECK(exec.ok()) << exec.status().ToString();
  PUNCTSAFE_CHECK_OK(FeedTraceParallel(exec->get(), trace));
  PUNCTSAFE_CHECK_OK((*exec)->Drain(end));
  out.punct_high_water = (*exec)->punctuation_high_water();
  out.live_tuples = (*exec)->TotalLiveTuples();
  for (const auto& op : (*exec)->operators()) {
    out.retired += op->punctuations_purged();
  }
  (*exec)->Stop();
  return out;
}

TEST(BoundedPunctuationTest, HighWaterDoesNotGrowWithRunLength) {
  auto chain = MakeChain();
  constexpr size_t kGenerations = 20;
  // One generation closes kValuesPerGeneration values on every stream.
  constexpr size_t kGenerationPunctuations = kValuesPerGeneration * kStreams;
  for (size_t shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const Outcome small = RunChain(*chain, kGenerations, shards);
    const Outcome large = RunChain(*chain, 10 * kGenerations, shards);
    EXPECT_EQ(small.live_tuples, 0u);
    EXPECT_EQ(large.live_tuples, 0u);
    EXPECT_GT(small.retired, 0u);
    EXPECT_GT(large.retired, small.retired);
    // Kept forever, the store would end at a generation's punctuations
    // times the generation count; retired, it holds the overlap of
    // neighbouring generations whatever the run length. One
    // generation of slack absorbs where each trace's peak falls.
    EXPECT_LE(large.punct_high_water,
              small.punct_high_water + kGenerationPunctuations);
    EXPECT_LT(small.punct_high_water, kGenerations * kGenerationPunctuations);
  }
}

}  // namespace
}  // namespace punctsafe
