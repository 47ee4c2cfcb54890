#include "workload/network.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "exec/plan_executor.h"

namespace punctsafe {
namespace {

TEST(NetworkTest, SetupAndSafety) {
  QueryRegister reg;
  ASSERT_TRUE(NetworkWorkload::Setup(&reg).ok());
  auto rq = reg.Register(NetworkWorkload::QueryStreams(),
                         NetworkWorkload::QueryPredicates());
  ASSERT_TRUE(rq.ok()) << rq.status().ToString();
  EXPECT_TRUE(rq->safety.safe);
  EXPECT_TRUE(rq->safety.used_simple_path);
}

TEST(NetworkTest, TraceRespectsLifespanContract) {
  NetworkConfig config;
  Trace trace = NetworkWorkload::Generate(config);
  int64_t lifespan = NetworkWorkload::RecommendedLifespan(config);
  ASSERT_GT(lifespan, 0);

  // Within `lifespan` ticks after any punctuation, no tuple of the
  // same stream may match it — on every stream: end-of-flow on packets,
  // flow ids and quiescent sources on flows, sources on alerts. That
  // is exactly what a lifespan-aware store assumes.
  struct Promise {
    Punctuation punctuation;
    int64_t at;
  };
  std::map<std::string, std::vector<Promise>> promises;
  size_t punctuations = 0;
  size_t violations = 0;
  for (const TraceEvent& e : trace) {
    std::vector<Promise>& stream_promises = promises[e.stream];
    const int64_t ts = e.element.timestamp;
    std::erase_if(stream_promises,
                  [&](const Promise& p) { return p.at + lifespan <= ts; });
    if (e.element.is_punctuation()) {
      stream_promises.push_back({e.element.punctuation, ts});
      ++punctuations;
      continue;
    }
    for (const Promise& p : stream_promises) {
      if (!p.punctuation.Matches(e.element.tuple)) continue;
      if (++violations <= 5) {
        ADD_FAILURE() << e.stream << " tuple " << e.element.tuple.ToString()
                      << " at " << ts << " breaks "
                      << p.punctuation.ToString() << " made at " << p.at;
      }
    }
  }
  EXPECT_EQ(violations, 0u);
  for (const char* stream : {NetworkWorkload::kFlows, NetworkWorkload::kPackets,
                             NetworkWorkload::kAlerts}) {
    EXPECT_TRUE(promises.count(stream) > 0) << stream << " never appeared";
  }
  EXPECT_GT(punctuations, config.num_flows);
}

TEST(NetworkTest, FlowIdsActuallyRecycle) {
  NetworkConfig config;
  config.num_flows = 200;
  config.id_space = 32;
  Trace trace = NetworkWorkload::Generate(config);
  std::map<int64_t, size_t> uses;
  for (const TraceEvent& e : trace) {
    if (e.stream == NetworkWorkload::kFlows && e.element.is_tuple()) {
      ++uses[e.element.tuple.at(0).AsInt64()];
    }
  }
  size_t recycled = 0;
  for (const auto& [id, count] : uses) {
    EXPECT_LT(id, static_cast<int64_t>(config.id_space));
    if (count > 1) ++recycled;
  }
  EXPECT_GT(recycled, 0u) << "the workload must exercise id reuse";
}

// Experiment E10 in miniature: a lifespan-aware executor stays
// correct and bounded on the recycling trace.
TEST(NetworkTest, LifespanExecutorBoundedOnRecyclingTrace) {
  NetworkConfig config;
  config.num_flows = 300;
  QueryRegister reg;
  ASSERT_TRUE(NetworkWorkload::Setup(&reg).ok());
  ExecutorConfig exec_config;
  exec_config.mjoin.punctuation_lifespan =
      NetworkWorkload::RecommendedLifespan(config);
  auto rq = reg.Register(NetworkWorkload::QueryStreams(),
                         NetworkWorkload::QueryPredicates(), exec_config);
  ASSERT_TRUE(rq.ok());
  Trace trace = NetworkWorkload::Generate(config);
  ASSERT_TRUE(FeedTrace(rq->executor.get(), trace).ok());

  EXPECT_GT(rq->executor->num_results(), 0u);
  // Punctuation stores bounded by expiry: far fewer live than stored.
  size_t stored = 0;
  for (const auto& op : rq->executor->operators()) {
    stored += op->metrics().punctuations_stored;
  }
  EXPECT_GT(stored, 100u);
  EXPECT_LT(rq->executor->TotalLivePunctuations(), stored / 2);
}

TEST(NetworkTest, DeterministicPerSeed) {
  NetworkConfig config;
  config.num_flows = 40;
  Trace a = NetworkWorkload::Generate(config);
  Trace b = NetworkWorkload::Generate(config);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].element.ToString(), b[i].element.ToString());
  }
}

}  // namespace
}  // namespace punctsafe
