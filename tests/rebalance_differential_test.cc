// Differential test for adaptive rebalancing: for random queries,
// random plan shapes, and random covering traces (uniform and
// zipf-skewed), a sharded executor that is forced through migrations
// at random punctuation-aligned mid-stream points — slot reshuffles
// via RebalanceNow and elastic grow/shrink via ResizeShards, into
// pre-allocated headroom and back — must produce the identical result
// multiset, final live state, and punctuation state as the serial
// executor that never shards at all. The failure message logs the RNG
// seed and migration schedule for replay.
//
// tools/ci.sh runs this suite under both TSan and ASan: the migration
// protocol's capture/merge/re-split and the ShardMap swap are exactly
// the kind of cross-thread state handoff sanitizers exist to check.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "exec/parallel_executor.h"
#include "exec/plan_executor.h"
#include "test_util.h"
#include "util/logging.h"
#include "util/rng.h"
#include "workload/random_query.h"

namespace punctsafe {
namespace {

struct Observation {
  std::vector<Tuple> results;  // sorted
  size_t live_tuples = 0;
  size_t live_punctuations = 0;
};

int64_t MaxTimestamp(const Trace& trace) {
  int64_t max_ts = 0;
  for (const TraceEvent& e : trace) {
    max_ts = std::max(max_ts, e.element.timestamp);
  }
  return max_ts;
}

Observation RunSerial(const RandomQueryInstance& inst, const PlanShape& shape,
                      const Trace& trace) {
  ExecutorConfig config;
  config.keep_results = true;
  auto exec = PlanExecutor::Create(inst.query, inst.schemes, shape, config);
  PUNCTSAFE_CHECK(exec.ok()) << exec.status().ToString();
  PUNCTSAFE_CHECK_OK(FeedTrace(exec.ValueOrDie().get(), trace));
  int64_t now = MaxTimestamp(trace) + 1;
  size_t prev;
  do {
    prev = (*exec)->TotalLiveTuples();
    (*exec)->SweepAll(now);
  } while ((*exec)->TotalLiveTuples() != prev);
  Observation obs;
  obs.results = (*exec)->kept_results();
  std::sort(obs.results.begin(), obs.results.end());
  obs.live_tuples = (*exec)->TotalLiveTuples();
  obs.live_punctuations = (*exec)->TotalLivePunctuations();
  return obs;
}

// One migration action at a scheduled trace position.
struct Migration {
  size_t at_event;       // force after pushing this event index
  size_t resize_to;      // 0 = RebalanceNow (slot reshuffle only)
};

Observation RunRebalanced(const RandomQueryInstance& inst,
                          const PlanShape& shape, const Trace& trace,
                          ExecutorConfig config,
                          const std::vector<Migration>& schedule) {
  auto exec =
      ParallelExecutor::Create(inst.query, inst.schemes, shape, config);
  PUNCTSAFE_CHECK(exec.ok()) << exec.status().ToString();
  size_t next = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    PUNCTSAFE_CHECK_OK((*exec)->Push(trace[i]));
    while (next < schedule.size() && schedule[next].at_event == i) {
      const int64_t ts = trace[i].element.timestamp;
      if (schedule[next].resize_to == 0) {
        PUNCTSAFE_CHECK_OK((*exec)->RebalanceNow(ts));
      } else {
        PUNCTSAFE_CHECK_OK((*exec)->ResizeShards(schedule[next].resize_to,
                                                 ts));
      }
      ++next;
    }
  }
  int64_t now = MaxTimestamp(trace) + 1;
  size_t prev;
  do {
    prev = (*exec)->TotalLiveTuples();
    PUNCTSAFE_CHECK_OK((*exec)->Drain(now));
  } while ((*exec)->TotalLiveTuples() != prev);
  Observation obs;
  obs.results = (*exec)->kept_results();
  std::sort(obs.results.begin(), obs.results.end());
  obs.live_tuples = (*exec)->TotalLiveTuples();
  obs.live_punctuations = (*exec)->TotalLivePunctuations();
  (*exec)->Stop();
  return obs;
}

PlanShape ShapeForTrial(size_t num_streams, uint64_t seed) {
  if (seed % 2 == 0 || num_streams < 3) {
    return PlanShape::SingleMJoin(num_streams);
  }
  std::vector<size_t> order(num_streams);
  for (size_t i = 0; i < num_streams; ++i) order[i] = i;
  return PlanShape::LeftDeepBinary(order);
}

TEST(RebalanceDifferentialTest, HundredTrialsWithForcedMidStreamMigrations) {
  // Replay a failing trial with PUNCTSAFE_TEST_SEED=<seed from the
  // failure message>.
  const uint64_t base_seed = testing_util::TestBaseSeed(0);
  for (uint64_t trial = 0; trial < 100; ++trial) {
    const uint64_t seed = base_seed + trial;
    Rng rng(seed * 977 + 5);

    RandomQueryConfig qconfig;
    qconfig.num_streams = 2 + seed % 4;
    qconfig.attrs_per_stream = 2;
    qconfig.extra_predicates = seed % 2;
    qconfig.multi_attr_prob = 0.25;
    qconfig.schemeless_prob = 0.15;
    qconfig.seed = seed * 41 + 3;
    auto inst = MakeRandomQuery(qconfig);
    ASSERT_TRUE(inst.ok()) << inst.status().ToString();

    CoveringTraceConfig tconfig;
    tconfig.num_generations = 5;
    tconfig.values_per_generation = 3;
    tconfig.tuples_per_generation = 12;
    tconfig.zipf_s = (trial % 3 == 0) ? 0.0 : 1.3;  // mix uniform + skewed
    tconfig.seed = seed;
    Trace trace = MakeCoveringTrace(inst->query, inst->schemes, tconfig);

    PlanShape shape = ShapeForTrial(inst->query.num_streams(), seed);
    Observation serial = RunSerial(*inst, shape, trace);

    // Executor under test: start on 2 active of 4 allocated shards so
    // grow has headroom and shrink has occupied shards to drain.
    ExecutorConfig config;
    config.keep_results = true;
    config.shards = 2;
    config.queue_capacity = 1 + seed % 64;
    config.batch_size = (trial % 4 == 1) ? 32 : 1;
    config.mjoin.purge_policy =
        (seed % 3 == 2) ? PurgePolicy::kLazy : PurgePolicy::kEager;
    config.mjoin.lazy_batch = 4;
    config.rebalance.enabled = true;
    config.rebalance.interval_punctuations = 0;  // schedule-driven only
    config.rebalance.max_shards = 4;

    // 1-3 forced migrations at random positions: slot reshuffles and
    // grows/shrinks across the full active range [1, 4].
    const size_t num_migrations = 1 + rng.NextBelow(3);
    std::vector<Migration> schedule;
    for (size_t m = 0; m < num_migrations; ++m) {
      Migration mig;
      mig.at_event = rng.NextBelow(trace.size());
      mig.resize_to = rng.NextBelow(5);  // 0 = reshuffle, 1..4 = resize
      schedule.push_back(mig);
    }
    std::sort(schedule.begin(), schedule.end(),
              [](const Migration& a, const Migration& b) {
                return a.at_event < b.at_event;
              });

    std::string plan;
    for (const Migration& m : schedule) {
      plan += " @" + std::to_string(m.at_event) +
              (m.resize_to == 0 ? std::string("=reshuffle")
                                : "=resize" + std::to_string(m.resize_to));
    }
    SCOPED_TRACE(::testing::Message()
                 << "seed=" << seed << " zipf=" << tconfig.zipf_s
                 << " batch=" << config.batch_size << " migrations:" << plan
                 << " query=" << inst->query.ToString()
                 << " shape=" << shape.ToString(inst->query));

    Observation got = RunRebalanced(*inst, shape, trace, config, schedule);
    ASSERT_EQ(got.results, serial.results) << "result multiset diverged";
    EXPECT_EQ(got.live_tuples, serial.live_tuples)
        << "final live state diverged";
    EXPECT_EQ(got.live_punctuations, serial.live_punctuations)
        << "final punctuation state diverged";
  }
}

}  // namespace
}  // namespace punctsafe
