#include "workload/sensor.h"

#include <gtest/gtest.h>

#include "core/punctuation_graph.h"
#include "core/safety_checker.h"
#include "exec/plan_executor.h"
#include "query/cjq.h"

namespace punctsafe {
namespace {

// The sensor query is the Figure 8 phenomenon on a realistic
// workload: the simple punctuation graph under-approximates, the
// generalized one proves safety.
TEST(SensorTest, SimpleGraphFailsGeneralizedSucceeds) {
  QueryRegister reg;
  ASSERT_TRUE(SensorWorkload::Setup(&reg).ok());
  auto q = ContinuousJoinQuery::Create(reg.catalog(),
                                       SensorWorkload::QueryStreams(),
                                       SensorWorkload::QueryPredicates());
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  PunctuationGraph pg = PunctuationGraph::Build(*q, reg.schemes());
  EXPECT_FALSE(pg.IsStronglyConnected());

  SafetyChecker checker(reg.schemes());
  auto report = checker.CheckQuery(*q);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->safe);
  EXPECT_FALSE(report->used_simple_path);
}

TEST(SensorTest, RegisterAndRunDrainsPerEpochState) {
  QueryRegister reg;
  ASSERT_TRUE(SensorWorkload::Setup(&reg).ok());
  auto rq = reg.Register(SensorWorkload::QueryStreams(),
                         SensorWorkload::QueryPredicates());
  ASSERT_TRUE(rq.ok()) << rq.status().ToString();

  SensorConfig config;
  config.num_sensors = 8;
  config.num_epochs = 12;
  Trace trace = SensorWorkload::Generate(config);
  ASSERT_TRUE(FeedTrace(rq->executor.get(), trace).ok());

  EXPECT_GT(rq->executor->num_results(), 0u);
  // After decommissioning, everything is purged.
  EXPECT_EQ(rq->executor->TotalLiveTuples(), 0u);
  // The high-water mark is per-epoch sized, far below the full trace.
  size_t tuples_in_trace = 0;
  for (const TraceEvent& e : trace) {
    tuples_in_trace += e.element.is_tuple() ? 1 : 0;
  }
  EXPECT_LT(rq->executor->tuple_high_water(), tuples_in_trace / 3);
}

TEST(SensorTest, TraceContractPerEpochPairs) {
  SensorConfig config;
  config.num_sensors = 4;
  config.num_epochs = 6;
  Trace trace = SensorWorkload::Generate(config);
  // After the (sensor, epoch) pair punctuation on readings, no reading
  // with that pair may appear.
  std::set<std::pair<int64_t, int64_t>> closed;
  for (const TraceEvent& e : trace) {
    if (e.stream != SensorWorkload::kReadings) continue;
    if (e.element.is_punctuation()) {
      const Punctuation& p = e.element.punctuation;
      if (p.ConstrainedAttrs() == std::vector<size_t>{0, 1}) {
        closed.insert({p.pattern(0).constant().AsInt64(),
                       p.pattern(1).constant().AsInt64()});
      }
    } else {
      EXPECT_FALSE(closed.count({e.element.tuple.at(0).AsInt64(),
                                 e.element.tuple.at(1).AsInt64()}));
    }
  }
  EXPECT_EQ(closed.size(), 4u * 6u);
}

TEST(SensorTest, ResultCountMatchesExpectation) {
  // With calibration_rate = 1 every (sensor, epoch) pair joins all its
  // readings with exactly one calibration and one sensor record.
  SensorConfig config;
  config.num_sensors = 3;
  config.num_epochs = 4;
  config.readings_per_sensor_epoch = 2;
  config.calibration_rate = 1.0;

  QueryRegister reg;
  ASSERT_TRUE(SensorWorkload::Setup(&reg).ok());
  auto rq = reg.Register(SensorWorkload::QueryStreams(),
                         SensorWorkload::QueryPredicates());
  ASSERT_TRUE(rq.ok());
  ASSERT_TRUE(
      FeedTrace(rq->executor.get(), SensorWorkload::Generate(config)).ok());
  EXPECT_EQ(rq->executor->num_results(), 3u * 4u * 2u);
}

}  // namespace
}  // namespace punctsafe
