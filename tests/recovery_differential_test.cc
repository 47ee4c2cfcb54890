// Recovery differential oracle: checkpoint/restore must be invisible.
// For 100 randomized (query, plan shape, covering trace) trials, an
// uninterrupted tuple-at-a-time serial run — whose result multiset is
// first checked against the never-purging ReferenceJoinOperator — is
// compared against
//  * kill-at-arbitrary-cut + restore + replay on the serial executor
//    (the snapshot round-trips through the serialized byte format, so
//    the codec is on the recovery path, not just in unit tests);
//  * the same snapshot split into 2K shard pieces and re-merged (the
//    monoid inverse law on live state, checked byte-for-byte and then
//    by replay);
//  * parallel kill + restore + replay swept across shards {1,2,3,4}
//    (the checkpoint barrier, shard merge at capture, and ShardOf
//    re-split at restore);
//  * the serial snapshot restored into a sharded executor (snapshots
//    are mode-agnostic).
// Equality is the same observational bar parallel_differential_test
// sets: identical result multiset, identical final live state at the
// sweep fixpoint, and identical total removals (purged + dropped).
// Each trial rotates the ingest batch size through {1, 7, 64, 1024}
// (applied to every leg except the reference): snapshots are taken at
// batch boundaries — the serial leg calls FlushIngest() before
// Checkpoint(), the parallel barrier flushes implicitly — and restore
// + replay must land on the same fixpoint regardless of where the
// batch boundaries fall relative to the kill point. batch=1 trials
// reproduce the historical tuple-at-a-time behavior bit for bit.
//
// tools/ci.sh runs this suite under both ASan and TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "exec/checkpoint.h"
#include "exec/parallel_executor.h"
#include "exec/plan_executor.h"
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

Observation ObserveSerial(PlanExecutor* exec, int64_t now) {
  size_t prev;
  do {
    prev = exec->TotalLiveTuples();
    exec->SweepAll(now);
  } while (exec->TotalLiveTuples() != prev);
  Observation obs;
  obs.results = exec->kept_results();
  std::sort(obs.results.begin(), obs.results.end());
  obs.num_results = exec->num_results();
  obs.live_tuples = exec->TotalLiveTuples();
  obs.live_punctuations = exec->TotalLivePunctuations();
  obs.removed = TotalRemoved(exec->operators());
  return obs;
}

Observation ObserveParallel(ParallelExecutor* exec, int64_t now) {
  PUNCTSAFE_CHECK_OK(exec->Drain(now));
  size_t prev;
  do {
    prev = exec->TotalLiveTuples();
    PUNCTSAFE_CHECK_OK(exec->Drain(now));
  } while (exec->TotalLiveTuples() != prev);
  Observation obs;
  obs.results = exec->kept_results();
  std::sort(obs.results.begin(), obs.results.end());
  obs.num_results = exec->num_results();
  obs.live_tuples = exec->TotalLiveTuples();
  obs.live_punctuations = exec->TotalLivePunctuations();
  obs.removed = TotalRemoved(exec->operators());
  exec->Stop();
  return obs;
}

void ExpectEqualObservation(const Observation& got, const Observation& want) {
  ASSERT_EQ(got.results, want.results) << "result multiset diverged";
  EXPECT_EQ(got.num_results, want.num_results);
  EXPECT_EQ(got.live_tuples, want.live_tuples)
      << "final live state diverged";
  EXPECT_EQ(got.live_punctuations, want.live_punctuations)
      << "final punctuation state diverged";
  EXPECT_EQ(got.removed, want.removed) << "total removal count diverged";
}

PlanShape ShapeForTrial(size_t num_streams, uint64_t seed) {
  if (seed % 2 == 0 || num_streams < 3) {
    return PlanShape::SingleMJoin(num_streams);
  }
  std::vector<size_t> order(num_streams);
  for (size_t i = 0; i < num_streams; ++i) order[i] = i;
  return PlanShape::LeftDeepBinary(order);
}

TEST(RecoveryDifferentialTest, HundredRandomKillRestoreTrialsMatchSerial) {
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
    tconfig.num_generations = 4;
    tconfig.values_per_generation = 3;
    tconfig.tuples_per_generation = 10;
    tconfig.seed = seed;
    Trace trace = MakeCoveringTrace(inst->query, inst->schemes, tconfig);

    PlanShape shape = ShapeForTrial(inst->query.num_streams(), seed);
    ExecutorConfig config;
    config.keep_results = true;
    config.mjoin.purge_policy =
        (seed % 3 == 2) ? PurgePolicy::kLazy : PurgePolicy::kEager;
    config.mjoin.lazy_batch = 4;
    config.queue_capacity = 1 + seed % 32;
    const size_t kBatchSizes[] = {1, 7, 64, 1024};
    config.batch_size = kBatchSizes[trial % 4];

    const int64_t now = MaxTimestamp(trace) + 1;
    // Kill point: any push boundary, including "nothing consumed yet"
    // and "everything consumed".
    const size_t cut = (seed * 7919) % (trace.size() + 1);

    // Uninterrupted tuple-at-a-time serial reference.
    ExecutorConfig ref_config = config;
    ref_config.batch_size = 1;
    auto ref = PlanExecutor::Create(inst->query, inst->schemes, shape,
                                    ref_config);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    for (const TraceEvent& e : trace) {
      ASSERT_TRUE((*ref)->Push(e).ok());
    }
    Observation want = ObserveSerial(ref->get(), now);
    ASSERT_EQ(want.results,
              ReferenceJoinResults(inst->query, trace).ValueOrDie())
        << "seed=" << seed << " serial diverged from the reference join"
        << " query=" << inst->query.ToString();

    // --- Leg A: serial kill at `cut`, restore via the byte format,
    // replay the suffix.
    std::string checkpoint_bytes;
    {
      auto run = PlanExecutor::Create(inst->query, inst->schemes, shape,
                                      config);
      ASSERT_TRUE(run.ok());
      for (size_t i = 0; i < cut; ++i) {
        ASSERT_TRUE((*run)->Push(trace[i]).ok());
      }
      // Snapshots are batch-aligned: deliver the open ingest batch so
      // the checkpoint covers every accepted tuple.
      (*run)->FlushIngest();
      checkpoint_bytes = SerializeSnapshot((*run)->Checkpoint());
      // The "crashed" executor is simply dropped here.
    }
    Result<StateSnapshot> snapshot = DeserializeSnapshot(checkpoint_bytes);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    {
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " cut=" << cut << "/"
                   << trace.size() << " batch=" << config.batch_size
                   << " leg=serial-restore query="
                   << inst->query.ToString()
                   << " shape=" << shape.ToString(inst->query));
      auto resumed = PlanExecutor::Create(inst->query, inst->schemes, shape,
                                          config);
      ASSERT_TRUE(resumed.ok());
      ASSERT_TRUE((*resumed)->RestoreState(*snapshot).ok());
      // Restore must reproduce the checkpoint bit-exactly before any
      // replay (capture o restore = identity).
      ASSERT_EQ(SerializeSnapshot((*resumed)->Checkpoint()),
                checkpoint_bytes);
      for (size_t i = cut; i < trace.size(); ++i) {
        ASSERT_TRUE((*resumed)->Push(trace[i]).ok());
      }
      ExpectEqualObservation(ObserveSerial(resumed->get(), now), want);
    }

    // --- Leg B: the snapshot split into 2K shard pieces and merged
    // back (varying the association order) is the same snapshot, and
    // restoring the merged copy resumes identically.
    {
      const size_t pieces = 2u << (seed % 3);  // 2, 4, or 8
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " cut=" << cut
                   << " leg=split-merge pieces=" << pieces);
      std::vector<StateSnapshot> parts = SplitSnapshot(*snapshot, pieces);
      ASSERT_EQ(parts.size(), pieces);
      // Fold in a seed-rotated order so association varies by trial.
      const size_t start = seed % pieces;
      StateSnapshot merged = parts[start];
      for (size_t i = 1; i < pieces; ++i) {
        merged = MergeSnapshots(merged, parts[(start + i) % pieces]);
      }
      ASSERT_EQ(SerializeSnapshot(merged), checkpoint_bytes)
          << "split -> merge is not the identity";
      auto resumed = PlanExecutor::Create(inst->query, inst->schemes, shape,
                                          config);
      ASSERT_TRUE(resumed.ok());
      ASSERT_TRUE((*resumed)->RestoreState(merged).ok());
      for (size_t i = cut; i < trace.size(); ++i) {
        ASSERT_TRUE((*resumed)->Push(trace[i]).ok());
      }
      ExpectEqualObservation(ObserveSerial(resumed->get(), now), want);
    }

    // --- Leg C: parallel kill + restore + replay, swept across shard
    // count.
    for (size_t shards : {1u, 2u, 3u, 4u}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " cut=" << cut
                   << " leg=parallel-restore shards=" << shards
                   << " batch=" << config.batch_size << " query="
                   << inst->query.ToString()
                   << " shape=" << shape.ToString(inst->query));
      ExecutorConfig pconfig = config;
      pconfig.shards = shards;

      StateSnapshot captured;
      {
        auto run = ParallelExecutor::Create(inst->query, inst->schemes,
                                            shape, pconfig);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        for (size_t i = 0; i < cut; ++i) {
          ASSERT_TRUE((*run)->Push(trace[i]).ok());
        }
        Result<StateSnapshot> snap = (*run)->Checkpoint(now);
        ASSERT_TRUE(snap.ok()) << snap.status().ToString();
        captured = std::move(*snap);
        (*run)->Stop();  // the kill
      }
      auto resumed = ParallelExecutor::Create(inst->query, inst->schemes,
                                              shape, pconfig);
      ASSERT_TRUE(resumed.ok());
      ASSERT_TRUE((*resumed)->RestoreState(captured).ok());
      for (size_t i = cut; i < trace.size(); ++i) {
        ASSERT_TRUE((*resumed)->Push(trace[i]).ok());
      }
      ExpectEqualObservation(ObserveParallel(resumed->get(), now), want);
    }

    // --- Leg D: cross-mode — the serial snapshot restored into a
    // sharded executor (the format carries no mode/shard information).
    {
      const size_t shards = 1 + seed % 4;
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " cut=" << cut
                   << " leg=cross-mode shards=" << shards
                   << " batch=" << config.batch_size);
      ExecutorConfig pconfig = config;
      pconfig.shards = shards;
      auto resumed = ParallelExecutor::Create(inst->query, inst->schemes,
                                              shape, pconfig);
      ASSERT_TRUE(resumed.ok());
      ASSERT_TRUE((*resumed)->RestoreState(*snapshot).ok());
      for (size_t i = cut; i < trace.size(); ++i) {
        ASSERT_TRUE((*resumed)->Push(trace[i]).ok());
      }
      ExpectEqualObservation(ObserveParallel(resumed->get(), now), want);
    }
  }
}

// A pinned trial (base seed 700, trial 43) where the pending-propagation
// owner matters: the plan's second operator partitions on a class with
// two members on one input, so it broadcasts punctuations, and an
// output punctuation pinning a key member completes on its owner's
// vote alone. At the cut another shard still holds the propagation
// pending after the owner forwarded it; restoring that copy onto the
// owner would forward it a second time, and the late duplicate is never
// retired (one extra live punctuation at the end).
TEST(RecoveryDifferentialTest, RestoreForwardsNoPunctuationTwice) {
  const uint64_t seed = 743;
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
  tconfig.num_generations = 4;
  tconfig.values_per_generation = 3;
  tconfig.tuples_per_generation = 10;
  tconfig.seed = seed;
  const Trace trace = MakeCoveringTrace(inst->query, inst->schemes, tconfig);
  const PlanShape shape = ShapeForTrial(inst->query.num_streams(), seed);
  ExecutorConfig config;
  config.keep_results = true;
  config.mjoin.purge_policy = PurgePolicy::kLazy;
  config.mjoin.lazy_batch = 4;
  config.queue_capacity = 1 + seed % 32;
  config.batch_size = 1024;
  const int64_t now = MaxTimestamp(trace) + 1;
  const size_t cut = (seed * 7919) % (trace.size() + 1);

  ExecutorConfig ref_config = config;
  ref_config.batch_size = 1;
  auto ref =
      PlanExecutor::Create(inst->query, inst->schemes, shape, ref_config);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  for (const TraceEvent& e : trace) ASSERT_TRUE((*ref)->Push(e).ok());
  const Observation want = ObserveSerial(ref->get(), now);

  config.shards = 2;
  StateSnapshot captured;
  {
    auto run =
        ParallelExecutor::Create(inst->query, inst->schemes, shape, config);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    for (size_t i = 0; i < cut; ++i) ASSERT_TRUE((*run)->Push(trace[i]).ok());
    Result<StateSnapshot> snap = (*run)->Checkpoint(now);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    captured = std::move(*snap);
    (*run)->Stop();
  }
  auto resumed =
      ParallelExecutor::Create(inst->query, inst->schemes, shape, config);
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE((*resumed)->RestoreState(captured).ok());
  for (size_t i = cut; i < trace.size(); ++i) {
    ASSERT_TRUE((*resumed)->Push(trace[i]).ok());
  }
  ExpectEqualObservation(ObserveParallel(resumed->get(), now), want);
}

}  // namespace
}  // namespace punctsafe
