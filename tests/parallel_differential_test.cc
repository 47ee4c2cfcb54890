// Differential test: the pipelined ParallelExecutor must be
// observationally equivalent to the serial PlanExecutor — at every
// shard count. For random queries (safe and unsafe alike), random plan
// shapes, and random covering traces, both executors must produce the
// identical result multiset, identical final live state (tuples and
// punctuations after sweeping to fixpoint), and remove the same total
// number of tuples (purged + dropped-on-arrival — the split between
// the two can differ because the parallel interleaving may detect
// removability at arrival where the serial order stores first, and
// vice versa). Each trial sweeps shards in {1, 2, 3, 4} and rotates the
// ingest batch size through {1, 7, 64, 1024} — the serial reference is
// pinned at batch_size=1 (tuple-at-a-time), so the sweep proves batched
// execution changes no answers either, and the reference's own result
// multiset is checked against the never-purging ReferenceJoinOperator;
// the failure message logs the RNG seed, shard count, and batch size
// for replay.
//
// tools/ci.sh runs this suite under both TSan and ASan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "exec/parallel_executor.h"
#include "exec/plan_executor.h"
#include "exec/query_register.h"
#include "exec/reference_join.h"
#include "test_util.h"
#include "util/logging.h"
#include "workload/random_query.h"

namespace punctsafe {
namespace {

struct Observation {
  std::vector<Tuple> results;  // sorted
  uint64_t num_results = 0;
  size_t live_tuples = 0;
  size_t live_punctuations = 0;
  uint64_t removed = 0;  // purged + dropped_on_arrival, all inputs
};

int64_t MaxTimestamp(const Trace& trace) {
  int64_t max_ts = 0;
  for (const TraceEvent& e : trace) {
    max_ts = std::max(max_ts, e.element.timestamp);
  }
  return max_ts;
}

uint64_t TotalRemoved(
    const std::vector<std::unique_ptr<MJoinOperator>>& operators) {
  uint64_t removed = 0;
  for (const auto& op : operators) {
    for (size_t i = 0; i < op->num_inputs(); ++i) {
      StateMetricsSnapshot m = op->state_metrics(i).Snapshot();
      removed += m.purged + m.dropped_on_arrival;
    }
  }
  return removed;
}

Observation RunSerial(const RandomQueryInstance& inst, const PlanShape& shape,
                      const Trace& trace, const ExecutorConfig& config) {
  auto exec = PlanExecutor::Create(inst.query, inst.schemes, shape, config);
  PUNCTSAFE_CHECK(exec.ok()) << exec.status().ToString();
  PUNCTSAFE_CHECK_OK(FeedTrace(exec.ValueOrDie().get(), trace));
  // Sweep to fixpoint: one sweep can unlock further removals (smaller
  // states shrink joinable sets), and the fixpoint — unlike any
  // intermediate state — is interleaving-independent.
  int64_t now = MaxTimestamp(trace) + 1;
  size_t prev;
  do {
    prev = (*exec)->TotalLiveTuples();
    (*exec)->SweepAll(now);
  } while ((*exec)->TotalLiveTuples() != prev);

  Observation obs;
  obs.results = (*exec)->kept_results();
  std::sort(obs.results.begin(), obs.results.end());
  obs.num_results = (*exec)->num_results();
  obs.live_tuples = (*exec)->TotalLiveTuples();
  obs.live_punctuations = (*exec)->TotalLivePunctuations();
  obs.removed = TotalRemoved((*exec)->operators());
  return obs;
}

Observation RunParallel(const RandomQueryInstance& inst,
                        const PlanShape& shape, const Trace& trace,
                        const ExecutorConfig& config) {
  auto exec =
      ParallelExecutor::Create(inst.query, inst.schemes, shape, config);
  PUNCTSAFE_CHECK(exec.ok()) << exec.status().ToString();
  for (const TraceEvent& e : trace) {
    PUNCTSAFE_CHECK_OK((*exec)->Push(e));
  }
  int64_t now = MaxTimestamp(trace) + 1;
  PUNCTSAFE_CHECK_OK((*exec)->Drain(now));
  size_t prev;
  do {
    prev = (*exec)->TotalLiveTuples();
    PUNCTSAFE_CHECK_OK((*exec)->Drain(now));
  } while ((*exec)->TotalLiveTuples() != prev);

  Observation obs;
  obs.results = (*exec)->kept_results();
  std::sort(obs.results.begin(), obs.results.end());
  obs.num_results = (*exec)->num_results();
  obs.live_tuples = (*exec)->TotalLiveTuples();
  obs.live_punctuations = (*exec)->TotalLivePunctuations();
  obs.removed = TotalRemoved((*exec)->operators());
  (*exec)->Stop();
  return obs;
}

// Random shape for the trial: alternate between the single MJoin and
// a left-deep binary chain (maximum pipeline depth).
PlanShape ShapeForTrial(size_t num_streams, uint64_t seed) {
  if (seed % 2 == 0 || num_streams < 3) {
    return PlanShape::SingleMJoin(num_streams);
  }
  std::vector<size_t> order(num_streams);
  for (size_t i = 0; i < num_streams; ++i) order[i] = i;
  return PlanShape::LeftDeepBinary(order);
}

TEST(ParallelDifferentialTest, HundredRandomTrialsMatchSerialExecutor) {
  // Replay a failing trial with PUNCTSAFE_TEST_SEED=<seed from the
  // failure message> (the run then starts at that seed).
  const uint64_t base_seed = testing_util::TestBaseSeed(0);
  for (uint64_t trial = 0; trial < 100; ++trial) {
    const uint64_t seed = base_seed + trial;
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
    tconfig.seed = seed;
    Trace trace = MakeCoveringTrace(inst->query, inst->schemes, tconfig);

    PlanShape shape = ShapeForTrial(inst->query.num_streams(), seed);
    ExecutorConfig config;
    config.keep_results = true;
    config.mjoin.purge_policy =
        (seed % 3 == 2) ? PurgePolicy::kLazy : PurgePolicy::kEager;
    config.mjoin.lazy_batch = 4;
    config.queue_capacity = 1 + seed % 64;  // exercise tight backpressure

    // Rotated per trial: batched ingest must be answer-preserving at
    // every granularity (1 = today's tuple-at-a-time path, bit for
    // bit; 1024 = whole generations travel as one batch).
    const size_t kBatchSizes[] = {1, 7, 64, 1024};
    const size_t batch_size = kBatchSizes[trial % 4];

    // The reference runs serial with tuple-at-a-time delivery — the
    // simplest configuration, against which the batched ingest path
    // and every parallel interleaving must be observationally
    // identical. Its answer must in turn be the never-purging join's.
    config.batch_size = 1;
    Observation serial = RunSerial(*inst, shape, trace, config);
    ASSERT_EQ(serial.results,
              ReferenceJoinResults(inst->query, trace).ValueOrDie())
        << "seed=" << seed << " serial diverged from the reference join"
        << " query=" << inst->query.ToString();

    // The batched serial executor must agree.
    config.batch_size = batch_size;
    Observation serial_batched = RunSerial(*inst, shape, trace, config);
    {
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " serial batch=" << batch_size
                   << " query=" << inst->query.ToString());
      ASSERT_EQ(serial_batched.results, serial.results)
          << "result multiset diverged";
      EXPECT_EQ(serial_batched.live_tuples, serial.live_tuples);
      EXPECT_EQ(serial_batched.live_punctuations, serial.live_punctuations);
      EXPECT_EQ(serial_batched.removed, serial.removed);
    }

    // Every shard count must reproduce the serial answer exactly —
    // partitioning is an implementation detail, not a semantics knob.
    // (Operators whose predicates don't admit an exact partitioning
    // silently fall back to one shard, so this also covers mixed
    // partitioned/unpartitioned plans.)
    for (size_t shards : {1u, 2u, 3u, 4u}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " shards=" << shards
                   << " batch=" << batch_size << " query="
                   << inst->query.ToString()
                   << " shape=" << shape.ToString(inst->query));
      config.shards = shards;
      Observation parallel = RunParallel(*inst, shape, trace, config);

      ASSERT_EQ(parallel.results, serial.results)
          << "result multiset diverged";
      EXPECT_EQ(parallel.num_results, serial.num_results);
      EXPECT_EQ(parallel.live_tuples, serial.live_tuples)
          << "final live state diverged";
      EXPECT_EQ(parallel.live_punctuations, serial.live_punctuations)
          << "final punctuation state diverged";
      EXPECT_EQ(parallel.removed, serial.removed)
          << "total purge count diverged";
    }
  }
}

// The ExecutorConfig knob: QueryRegister admits the same query into
// either runtime, and both produce the same answers.
TEST(ParallelDifferentialTest, QueryRegisterModeKnob) {
  auto make_register = [](QueryRegister* reg) {
    PUNCTSAFE_CHECK_OK(reg->RegisterStream("L", Schema::OfInts({"a", "k"})));
    PUNCTSAFE_CHECK_OK(reg->RegisterStream("R", Schema::OfInts({"k", "b"})));
    PUNCTSAFE_CHECK_OK(reg->RegisterScheme("L", {"k"}));
    PUNCTSAFE_CHECK_OK(reg->RegisterScheme("R", {"k"}));
  };
  Trace trace;
  for (int64_t i = 0; i < 50; ++i) {
    trace.push_back({"L", StreamElement::OfTuple(
                              Tuple({Value(i), Value(i % 10)}), i)});
    trace.push_back({"R", StreamElement::OfTuple(
                              Tuple({Value(i % 10), Value(i)}), i)});
  }

  QueryRegister serial_reg;
  make_register(&serial_reg);
  ExecutorConfig serial_config;
  serial_config.keep_results = true;
  auto serial = serial_reg.Register({"L", "R"}, {Eq({"L", "k"}, {"R", "k"})},
                                    serial_config);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_FALSE(serial->is_parallel());
  ASSERT_NE(serial->executor, nullptr);
  for (const TraceEvent& e : trace) {
    ASSERT_TRUE(serial->executor->Push(e).ok());
  }

  QueryRegister parallel_reg;
  make_register(&parallel_reg);
  ExecutorConfig parallel_config;
  parallel_config.keep_results = true;
  parallel_config.mode = ExecutionMode::kParallel;
  parallel_config.queue_capacity = 8;
  parallel_config.shards = 4;  // a partitionable equi-join: 4-way sharded
  auto parallel = parallel_reg.Register(
      {"L", "R"}, {Eq({"L", "k"}, {"R", "k"})}, parallel_config);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_TRUE(parallel->is_parallel());
  ASSERT_EQ(parallel->executor, nullptr);
  for (const TraceEvent& e : trace) {
    ASSERT_TRUE(parallel->parallel_executor->Push(e).ok());
  }
  ASSERT_TRUE(parallel->parallel_executor->Drain(100).ok());

  std::vector<Tuple> serial_results = serial->executor->kept_results();
  std::vector<Tuple> parallel_results =
      parallel->parallel_executor->kept_results();
  std::sort(serial_results.begin(), serial_results.end());
  std::sort(parallel_results.begin(), parallel_results.end());
  EXPECT_GT(serial_results.size(), 0u);
  EXPECT_EQ(parallel_results, serial_results);
}

// Shutdown robustness: destroying a busy executor (no Drain) must not
// hang or crash, even with a tiny queue keeping producers blocked.
TEST(ParallelDifferentialTest, StopWhileBusyDoesNotHang) {
  RandomQueryConfig qconfig;
  qconfig.num_streams = 3;
  qconfig.seed = 7;
  qconfig.schemeless_prob = 0.0;
  auto inst = MakeRandomQuery(qconfig);
  ASSERT_TRUE(inst.ok());

  CoveringTraceConfig tconfig;
  tconfig.num_generations = 10;
  tconfig.tuples_per_generation = 40;
  Trace trace = MakeCoveringTrace(inst->query, inst->schemes, tconfig);

  ExecutorConfig config;
  config.queue_capacity = 1;
  std::vector<size_t> order = {0, 1, 2};
  auto exec = ParallelExecutor::Create(inst->query, inst->schemes,
                                       PlanShape::LeftDeepBinary(order),
                                       config);
  ASSERT_TRUE(exec.ok());
  for (size_t i = 0; i < trace.size() / 2; ++i) {
    ASSERT_TRUE((*exec)->Push(trace[i]).ok());
  }
  (*exec)->Stop();  // mid-flight, queues still loaded
  EXPECT_FALSE((*exec)->Push(trace[0]).ok());
  EXPECT_TRUE((*exec)->Drain(0).IsFailedPrecondition());
}

}  // namespace
}  // namespace punctsafe
