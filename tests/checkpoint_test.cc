// Unit tests for the punctuation-aligned checkpoint layer
// (exec/checkpoint.h): serialization round-trips (including inline,
// owned, and external-slice string Values), corruption rejection via
// per-section CRC32 (truncation and bit-flip sweeps), the snapshot
// monoid laws (identity, associativity, commutativity, and
// split-merge inversion), executor capture/restore byte-equality in
// both execution modes, and the QueryRegister::Restore recovery entry
// point. The randomized differential oracle lives in
// recovery_differential_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "exec/checkpoint.h"
#include "exec/parallel_executor.h"
#include "exec/plan_executor.h"
#include "exec/partition_router.h"
#include "exec/query_register.h"
#include "test_util.h"
#include "util/logging.h"
#include "workload/random_query.h"

namespace punctsafe {
namespace {

using testing_util::Fig5Schemes;
using testing_util::PaperCatalog;
using testing_util::TriangleQuery;

// Backing store for external-slice Values: the bytes must outlive the
// Value, exactly like arena-resident strings do in the engine.
const std::string& ExternalBacking() {
  static const std::string backing =
      "external-slice-backing-bytes-well-beyond-the-inline-buffer";
  return backing;
}

Value RandomValue(std::mt19937_64& rng) {
  switch (rng() % 6) {
    case 0:
      return Value::Null();
    case 1:
      return Value(static_cast<int64_t>(rng() % 1000) - 500);
    case 2:
      return Value(static_cast<double>(rng() % 997) / 7.0);
    case 3:  // inline string (<= 16 bytes)
      return Value(std::string("s") + std::to_string(rng() % 100));
    case 4: {  // owned string beyond the inline buffer
      std::string long_str = "long-owned-string-";
      long_str += std::to_string(rng() % 1000);
      long_str += "-padding-past-inline";
      return Value(long_str);
    }
    default: {  // external (non-owning) slice with precomputed hash
      const std::string& backing = ExternalBacking();
      const uint32_t len = 17 + static_cast<uint32_t>(rng() % 20);
      // An owned twin supplies the cached hash (equal reprs hash
      // equally), exactly like the arena-copy path does.
      Value owned(std::string_view(backing.data(), len));
      return Value::ExternalString(backing.data(), len, owned.Hash());
    }
  }
}

Tuple RandomTuple(std::mt19937_64& rng, size_t width) {
  std::vector<Value> values;
  values.reserve(width);
  for (size_t i = 0; i < width; ++i) values.push_back(RandomValue(rng));
  return Tuple(std::move(values));
}

Punctuation RandomPunctuation(std::mt19937_64& rng, size_t arity) {
  std::vector<Pattern> patterns;
  patterns.reserve(arity);
  for (size_t i = 0; i < arity; ++i) {
    if (rng() % 2 == 0) {
      patterns.emplace_back();  // wildcard
    } else {
      patterns.emplace_back(Value(static_cast<int64_t>(rng() % 50)));
    }
  }
  return Punctuation(std::move(patterns));
}

StateSnapshot RandomSnapshot(uint64_t seed) {
  std::mt19937_64 rng(seed);
  StateSnapshot snap;
  snap.fingerprint = "test-plan-" + std::to_string(seed % 3);
  snap.num_results = rng() % 1000;
  snap.tuple_high_water = rng() % 100;
  snap.punct_high_water = rng() % 100;
  const size_t num_streams = 2 + rng() % 3;
  for (size_t s = 0; s < num_streams; ++s) {
    InputProgress p;
    p.events_consumed = rng() % 500;
    p.watermark_ts = static_cast<int64_t>(rng() % 1000);
    snap.progress.push_back(p);
  }
  for (size_t r = 0; r < rng() % 5; ++r) {
    snap.results.push_back(RandomTuple(rng, 3));
  }
  const size_t num_ops = 1 + rng() % 3;
  for (size_t j = 0; j < num_ops; ++j) {
    OperatorStateSnapshot op;
    const size_t num_inputs = 2 + rng() % 2;
    for (size_t k = 0; k < num_inputs; ++k) {
      InputStateSnapshot input;
      const size_t width = 1 + rng() % 3;
      for (size_t t = 0; t < rng() % 6; ++t) {
        input.tuples.push_back(RandomTuple(rng, width));
      }
      for (size_t p = 0; p < rng() % 4; ++p) {
        PunctuationEntry entry;
        entry.punctuation = RandomPunctuation(rng, width);
        entry.arrival = static_cast<int64_t>(rng() % 100);
        input.punctuations.push_back(entry);
      }
      input.state_metrics.inserted = rng() % 100;
      input.state_metrics.purged = rng() % 50;
      input.state_metrics.live = input.tuples.size();
      input.state_metrics.high_water = rng() % 40;
      op.inputs.push_back(std::move(input));
    }
    for (size_t p = 0; p < rng() % 3; ++p) {
      PendingPropagationSnapshot pending;
      pending.input = static_cast<uint32_t>(rng() % num_inputs);
      pending.punctuation = RandomPunctuation(rng, 2);
      op.pending.push_back(std::move(pending));
    }
    op.op_metrics.results_emitted = rng() % 200;
    op.op_metrics.punctuations_received = rng() % 100;
    op.op_metrics.punctuations_live = rng() % 20;
    op.punctuations_purged = rng() % 10;
    op.punctuations_since_sweep = rng() % 8;
    snap.operators.push_back(std::move(op));
  }
  return snap;
}

TEST(CheckpointSerializationTest, RoundTripsRandomizedSnapshots) {
  for (uint64_t seed = 0; seed < 25; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    StateSnapshot snap = RandomSnapshot(seed);
    const std::string bytes = SerializeSnapshot(snap);
    Result<StateSnapshot> restored = DeserializeSnapshot(bytes);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    // Serialize(Deserialize(Serialize(s))) == Serialize(s): every
    // field — including string payloads that round-trip from external
    // to owned storage — survives bit-exactly.
    EXPECT_EQ(SerializeSnapshot(*restored), bytes);
  }
}

TEST(CheckpointSerializationTest, EveryTruncationIsRejectedCleanly) {
  const std::string bytes = SerializeSnapshot(RandomSnapshot(7));
  ASSERT_GT(bytes.size(), 16u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    Result<StateSnapshot> r =
        DeserializeSnapshot(std::string_view(bytes.data(), len));
    EXPECT_FALSE(r.ok()) << "truncation to " << len << " bytes of "
                         << bytes.size() << " was accepted";
  }
  // Trailing garbage is corruption too, not padding.
  Result<StateSnapshot> extended = DeserializeSnapshot(bytes + "x");
  EXPECT_FALSE(extended.ok());
}

TEST(CheckpointSerializationTest, EveryByteFlipIsRejected) {
  const std::string bytes = SerializeSnapshot(RandomSnapshot(11));
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string corrupted = bytes;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x5A);
    Result<StateSnapshot> r = DeserializeSnapshot(corrupted);
    EXPECT_FALSE(r.ok()) << "flip at byte " << pos << " was accepted";
  }
}

TEST(CheckpointSerializationTest, Crc32MatchesKnownVectors) {
  // The standard CRC-32 (reflected, poly 0xEDB88320) check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
}

std::string CanonicalBytes(StateSnapshot snap) {
  CanonicalizeSnapshot(&snap);
  return SerializeSnapshot(snap);
}

TEST(CheckpointMergeTest, DefaultSnapshotIsTheIdentity) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    StateSnapshot snap = RandomSnapshot(seed);
    const std::string canonical = CanonicalBytes(snap);
    EXPECT_EQ(SerializeSnapshot(MergeSnapshots(StateSnapshot{}, snap)),
              canonical);
    EXPECT_EQ(SerializeSnapshot(MergeSnapshots(snap, StateSnapshot{})),
              canonical);
  }
}

TEST(CheckpointMergeTest, MergeIsAssociativeAndCommutative) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    // Shards of one logical state: same fingerprint and layout (seeds
    // chosen congruent mod 3 so RandomSnapshot agrees on both), with
    // operator lists trimmed to a common shape.
    StateSnapshot a = RandomSnapshot(seed * 3);
    StateSnapshot b = RandomSnapshot(seed * 3 + 3);
    StateSnapshot c = RandomSnapshot(seed * 3 + 6);
    size_t ops = std::min({a.operators.size(), b.operators.size(),
                           c.operators.size()});
    size_t streams = std::min({a.progress.size(), b.progress.size(),
                               c.progress.size()});
    for (StateSnapshot* s : {&a, &b, &c}) {
      s->operators.resize(ops);
      s->progress.resize(streams);
      for (size_t j = 0; j < ops; ++j) {
        size_t inputs = std::min({a.operators[j].inputs.size(),
                                  b.operators[j].inputs.size(),
                                  c.operators[j].inputs.size()});
        s->operators[j].inputs.resize(inputs);
      }
    }
    const std::string left =
        SerializeSnapshot(MergeSnapshots(MergeSnapshots(a, b), c));
    const std::string right =
        SerializeSnapshot(MergeSnapshots(a, MergeSnapshots(b, c)));
    EXPECT_EQ(left, right) << "associativity violated";
    EXPECT_EQ(SerializeSnapshot(MergeSnapshots(a, b)),
              SerializeSnapshot(MergeSnapshots(b, a)))
        << "commutativity violated";
  }
}

TEST(CheckpointMergeTest, SplitThenMergeIsTheIdentity) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    StateSnapshot snap = RandomSnapshot(seed);
    CanonicalizeSnapshot(&snap);
    const std::string canonical = SerializeSnapshot(snap);
    for (size_t pieces : {1u, 2u, 3u, 8u}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " pieces=" << pieces);
      std::vector<StateSnapshot> parts = SplitSnapshot(snap, pieces);
      ASSERT_EQ(parts.size(), pieces);
      // Left fold.
      StateSnapshot merged = parts[0];
      for (size_t i = 1; i < pieces; ++i) {
        merged = MergeSnapshots(merged, parts[i]);
      }
      EXPECT_EQ(SerializeSnapshot(merged), canonical);
      // Right fold — a different association order must agree.
      StateSnapshot reversed = parts[pieces - 1];
      for (size_t i = pieces - 1; i-- > 0;) {
        reversed = MergeSnapshots(parts[i], reversed);
      }
      EXPECT_EQ(SerializeSnapshot(reversed), canonical);
    }
  }
}

TEST(CheckpointMergeTest, AsymmetricReSplitPreservesTheLogicalState) {
  // The migration path: state captured from K_old shards is folded to
  // one logical snapshot and re-split for K_new shards, where K_old
  // and K_new are unrelated (non-power-of-two, grow and shrink). The
  // re-split pieces must still fold back to the same logical state,
  // and each piece must survive serialization — a migrated shard's
  // state is checkpointable like any other.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    StateSnapshot snap = RandomSnapshot(seed);
    CanonicalizeSnapshot(&snap);
    const std::string canonical = SerializeSnapshot(snap);
    for (auto [from, to] : std::initializer_list<std::pair<size_t, size_t>>{
             {3, 5}, {5, 3}, {4, 2}, {2, 7}, {6, 6}}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " resplit " << from << "->" << to);
      std::vector<StateSnapshot> old_shards = SplitSnapshot(snap, from);
      ASSERT_EQ(old_shards.size(), from);
      StateSnapshot logical = old_shards[0];
      for (size_t i = 1; i < from; ++i) {
        logical = MergeSnapshots(logical, old_shards[i]);
      }
      std::vector<StateSnapshot> new_shards = SplitSnapshot(logical, to);
      ASSERT_EQ(new_shards.size(), to);
      StateSnapshot refolded = new_shards[0];
      for (size_t i = 1; i < to; ++i) {
        refolded = MergeSnapshots(refolded, new_shards[i]);
      }
      EXPECT_EQ(SerializeSnapshot(refolded), canonical)
          << "re-split through " << from << " shards lost state";
      for (size_t i = 0; i < to; ++i) {
        const std::string bytes = SerializeSnapshot(new_shards[i]);
        Result<StateSnapshot> restored = DeserializeSnapshot(bytes);
        ASSERT_TRUE(restored.ok()) << "piece " << i << ": "
                                   << restored.status().ToString();
        EXPECT_EQ(SerializeSnapshot(*restored), bytes);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Executor capture / restore.

ExecutorConfig BaseConfig() {
  ExecutorConfig config;
  config.keep_results = true;
  return config;
}

Trace TriangleTrace(int64_t generations) {
  // Covering rounds over the Figure 5 triangle: every generation g
  // joins once, then is closed on every stream by punctuations.
  Trace trace;
  int64_t ts = 0;
  for (int64_t g = 0; g < generations; ++g) {
    trace.push_back({"S1", StreamElement::OfTuple(
                               Tuple({Value(g), Value(g * 10)}), ts++)});
    trace.push_back({"S2", StreamElement::OfTuple(
                               Tuple({Value(g * 10), Value(g * 100)}), ts++)});
    trace.push_back(
        {"S3", StreamElement::OfTuple(Tuple({Value(g * 100), Value(g)}),
                                      ts++)});
    trace.push_back(
        {"S1", StreamElement::OfPunctuation(
                   Punctuation({Pattern(), Pattern(Value(g * 10))}), ts++)});
    trace.push_back(
        {"S2", StreamElement::OfPunctuation(
                   Punctuation({Pattern(), Pattern(Value(g * 100))}), ts++)});
    trace.push_back(
        {"S3", StreamElement::OfPunctuation(
                   Punctuation({Pattern(), Pattern(Value(g))}), ts++)});
  }
  return trace;
}

// Serialization with allocation-layout counters masked. A restored
// executor starts from fresh stores, so counters that track physical
// allocation history (insert_allocs, arena reservations, ...)
// legitimately diverge from the uninterrupted run during replay; all
// logical state and logical counters must still agree byte-for-byte.
std::string LogicalBytes(StateSnapshot snap) {
  for (OperatorStateSnapshot& op : snap.operators) {
    for (InputStateSnapshot& in : op.inputs) {
      StateMetricsSnapshot& m = in.state_metrics;
      m.probe_allocs = 0;
      m.index_compactions = 0;
      m.insert_allocs = 0;
      m.arena_blocks_reclaimed = 0;
      m.arena_bytes_reserved = 0;
      m.arena_bytes_live = 0;
    }
  }
  return SerializeSnapshot(snap);
}

TEST(CheckpointExecutorTest, SerialCaptureRestoreCaptureIsByteStable) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery query = TriangleQuery(catalog);
  SchemeSet schemes = Fig5Schemes(catalog);
  PlanShape shape = PlanShape::SingleMJoin(3);
  Trace trace = TriangleTrace(6);

  auto exec = PlanExecutor::Create(query, schemes, shape, BaseConfig());
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  // Stop mid-trace so live state (tuples + punctuations + pendings) is
  // non-trivial at the checkpoint.
  const size_t cut = trace.size() / 2;
  for (size_t i = 0; i < cut; ++i) {
    ASSERT_TRUE((*exec)->Push(trace[i]).ok());
  }
  StateSnapshot snap = (*exec)->Checkpoint();
  const std::string bytes = SerializeSnapshot(snap);

  Result<StateSnapshot> decoded = DeserializeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto restored = PlanExecutor::Create(query, schemes, shape, BaseConfig());
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE((*restored)->RestoreState(*decoded).ok());
  EXPECT_EQ(SerializeSnapshot((*restored)->Checkpoint()), bytes)
      << "capture -> serialize -> restore -> capture drifted";

  // Replaying the suffix on the restored executor matches replaying it
  // on the original.
  for (size_t i = cut; i < trace.size(); ++i) {
    ASSERT_TRUE((*exec)->Push(trace[i]).ok());
    ASSERT_TRUE((*restored)->Push(trace[i]).ok());
  }
  EXPECT_EQ((*restored)->num_results(), (*exec)->num_results());
  EXPECT_EQ((*restored)->TotalLiveTuples(), (*exec)->TotalLiveTuples());
  EXPECT_EQ((*restored)->TotalLivePunctuations(),
            (*exec)->TotalLivePunctuations());
  EXPECT_EQ(LogicalBytes((*restored)->Checkpoint()),
            LogicalBytes((*exec)->Checkpoint()));
}

TEST(CheckpointExecutorTest, ParallelCaptureRestoreCaptureIsByteStable) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery query = TriangleQuery(catalog);
  SchemeSet schemes = Fig5Schemes(catalog);
  PlanShape shape = PlanShape::SingleMJoin(3);
  Trace trace = TriangleTrace(6);

  for (size_t shards : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "shards=" << shards);
    ExecutorConfig config = BaseConfig();
    config.shards = shards;
    auto exec = ParallelExecutor::Create(query, schemes, shape, config);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    const size_t cut = trace.size() / 2;
    for (size_t i = 0; i < cut; ++i) {
      ASSERT_TRUE((*exec)->Push(trace[i]).ok());
    }
    Result<StateSnapshot> snap = (*exec)->Checkpoint(1000);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    const std::string bytes = SerializeSnapshot(*snap);
    (*exec)->Stop();

    auto restored = ParallelExecutor::Create(query, schemes, shape, config);
    ASSERT_TRUE(restored.ok());
    ASSERT_TRUE((*restored)->RestoreState(*snap).ok());
    Result<StateSnapshot> recaptured = (*restored)->Checkpoint(1000);
    ASSERT_TRUE(recaptured.ok());
    EXPECT_EQ(SerializeSnapshot(*recaptured), bytes)
        << "shard split/merge is not a clean inverse";
    (*restored)->Stop();
  }
}

// The same law under key-routed punctuations: a shared-key join whose
// punctuations all pin k, cut while stores and pending propagations
// are non-trivial, single MJoin and binary chain. The restore puts
// each stored punctuation on its key's shard only.
TEST(CheckpointExecutorTest, KeyRoutedCaptureRestoreCaptureIsByteStable) {
  StreamCatalog catalog;
  SchemeSet schemes;
  for (const char* name : {"T0", "T1", "T2"}) {
    PUNCTSAFE_CHECK_OK(catalog.Register(name, Schema::OfInts({"k", "v"})));
    PUNCTSAFE_CHECK_OK(
        schemes.Add(testing_util::SchemeOn(catalog, name, {"k"})));
  }
  auto query = ContinuousJoinQuery::Create(
      catalog, {"T0", "T1", "T2"},
      {Eq({"T0", "k"}, {"T1", "k"}), Eq({"T1", "k"}, {"T2", "k"})});
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  CoveringTraceConfig tconfig;
  tconfig.num_generations = 8;
  tconfig.values_per_generation = 5;
  tconfig.tuples_per_generation = 24;
  tconfig.seed = 3;
  const Trace trace = MakeCoveringTrace(*query, schemes, tconfig);

  for (const PlanShape& shape :
       {PlanShape::SingleMJoin(3), PlanShape::LeftDeepBinary({0, 1, 2})}) {
    for (size_t shards : {1u, 2u, 3u, 4u}) {
      SCOPED_TRACE(::testing::Message() << "shards=" << shards << " shape="
                                        << shape.ToString(*query));
      ExecutorConfig config = BaseConfig();
      config.shards = shards;
      auto exec = ParallelExecutor::Create(*query, schemes, shape, config);
      ASSERT_TRUE(exec.ok()) << exec.status().ToString();
      const size_t cut = trace.size() * 3 / 5;
      for (size_t i = 0; i < cut; ++i) {
        ASSERT_TRUE((*exec)->Push(trace[i]).ok());
      }
      Result<StateSnapshot> snap = (*exec)->Checkpoint(1000);
      ASSERT_TRUE(snap.ok()) << snap.status().ToString();
      const size_t live_punctuations = (*exec)->TotalLivePunctuations();
      ASSERT_GT(live_punctuations, 0u);
      const std::string bytes = SerializeSnapshot(*snap);
      (*exec)->Stop();

      auto restored = ParallelExecutor::Create(*query, schemes, shape, config);
      ASSERT_TRUE(restored.ok());
      ASSERT_TRUE((*restored)->RestoreState(*snap).ok());
      if ((*restored)->num_operator_groups() == 1 && shards > 1) {
        // One group keyed on every input's attribute 0.
        const PartitionSpec spec = ComputePartitionSpec(
            *query, {{{0}, {}}, {{1}, {}}, {{2}, {}}});
        for (size_t s = 0; s < shards; ++s) {
          const OperatorStateSnapshot piece =
              (*restored)->operators()[s]->CaptureState();
          for (size_t k = 0; k < piece.inputs.size(); ++k) {
            for (const PunctuationEntry& e : piece.inputs[k].punctuations) {
              EXPECT_EQ(spec.PunctuationShard(k, e.punctuation, shards), s)
                  << e.punctuation.ToString();
            }
          }
        }
      }
      EXPECT_EQ((*restored)->TotalLivePunctuations(), live_punctuations);
      Result<StateSnapshot> recaptured = (*restored)->Checkpoint(1000);
      ASSERT_TRUE(recaptured.ok());
      EXPECT_EQ(SerializeSnapshot(*recaptured), bytes)
          << "key-routed split/merge is not a clean inverse";
      (*restored)->Stop();
    }
  }
}

TEST(CheckpointExecutorTest, FingerprintMismatchIsRejected) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery query = TriangleQuery(catalog);
  SchemeSet schemes = Fig5Schemes(catalog);
  auto exec = PlanExecutor::Create(query, schemes, PlanShape::SingleMJoin(3),
                                   BaseConfig());
  ASSERT_TRUE(exec.ok());
  StateSnapshot snap = (*exec)->Checkpoint();

  // A different plan shape over the same query is a different plan.
  auto other = PlanExecutor::Create(query, schemes,
                                    PlanShape::LeftDeepBinary({0, 1, 2}),
                                    BaseConfig());
  ASSERT_TRUE(other.ok());
  Status status = (*other)->RestoreState(snap);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

TEST(CheckpointExecutorTest, RestoreIntoUsedExecutorIsRejected) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery query = TriangleQuery(catalog);
  SchemeSet schemes = Fig5Schemes(catalog);
  PlanShape shape = PlanShape::SingleMJoin(3);
  auto exec = PlanExecutor::Create(query, schemes, shape, BaseConfig());
  ASSERT_TRUE(exec.ok());
  Trace trace = TriangleTrace(3);
  for (size_t i = 0; i < trace.size() / 2; ++i) {
    ASSERT_TRUE((*exec)->Push(trace[i]).ok());
  }
  StateSnapshot snap = (*exec)->Checkpoint();
  ASSERT_GT((*exec)->TotalLiveTuples() + (*exec)->TotalLivePunctuations(),
            0u);
  // The executor is mid-stream, not fresh: restore must refuse rather
  // than silently double state.
  Status status = (*exec)->RestoreState(snap);
  EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(CheckpointExecutorTest, QueryRegisterRestoreResumesBothModes) {
  Trace trace = TriangleTrace(5);
  const size_t cut = trace.size() / 2;
  const std::string path = TempPath("punctsafe_register_ckpt.bin");
  const std::vector<std::string> streams = {"S1", "S2", "S3"};
  const std::vector<JoinPredicateSpec> predicates = {
      Eq({"S1", "B"}, {"S2", "B"}), Eq({"S2", "C"}, {"S3", "C"}),
      Eq({"S3", "A"}, {"S1", "A"})};
  auto make_register = [](QueryRegister* reg) {
    PUNCTSAFE_CHECK_OK(reg->RegisterStream("S1", Schema::OfInts({"A", "B"})));
    PUNCTSAFE_CHECK_OK(reg->RegisterStream("S2", Schema::OfInts({"B", "C"})));
    PUNCTSAFE_CHECK_OK(reg->RegisterStream("S3", Schema::OfInts({"C", "A"})));
    PUNCTSAFE_CHECK_OK(reg->RegisterScheme("S1", {"B"}));
    PUNCTSAFE_CHECK_OK(reg->RegisterScheme("S2", {"C"}));
    PUNCTSAFE_CHECK_OK(reg->RegisterScheme("S3", {"A"}));
  };

  // Reference: one uninterrupted serial run.
  QueryRegister ref_reg;
  make_register(&ref_reg);
  auto ref = ref_reg.Register(streams, predicates, BaseConfig());
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  for (const TraceEvent& e : trace) {
    ASSERT_TRUE(ref->executor->Push(e).ok());
  }

  // "Crashed" run: consume a prefix, snapshot to disk, discard.
  {
    QueryRegister reg;
    make_register(&reg);
    auto running = reg.Register(streams, predicates, BaseConfig());
    ASSERT_TRUE(running.ok());
    for (size_t i = 0; i < cut; ++i) {
      ASSERT_TRUE(running->executor->Push(trace[i]).ok());
    }
    ASSERT_TRUE(
        WriteSnapshotFile(running->executor->Checkpoint(), path).ok());
  }

  for (ExecutionMode mode : {ExecutionMode::kSerial,
                             ExecutionMode::kParallel}) {
    SCOPED_TRACE(::testing::Message()
                 << "mode="
                 << (mode == ExecutionMode::kParallel ? "parallel"
                                                      : "serial"));
    QueryRegister reg;
    make_register(&reg);
    ExecutorConfig config = BaseConfig();
    config.mode = mode;
    config.shards = 2;
    auto resumed = reg.Restore(path, streams, predicates, config);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

    uint64_t results = 0;
    std::vector<Tuple> kept;
    if (mode == ExecutionMode::kParallel) {
      ASSERT_TRUE(resumed->is_parallel());
      uint64_t expected_consumed = 0;
      for (size_t i = 0; i < cut; ++i) {
        if (trace[i].stream == "S1") ++expected_consumed;
      }
      EXPECT_EQ(resumed->parallel_executor->progress()[0].events_consumed,
                expected_consumed);
      for (size_t i = cut; i < trace.size(); ++i) {
        ASSERT_TRUE(resumed->parallel_executor->Push(trace[i]).ok());
      }
      ASSERT_TRUE(resumed->parallel_executor->Drain(1000).ok());
      results = resumed->parallel_executor->num_results();
      kept = resumed->parallel_executor->kept_results();
    } else {
      ASSERT_FALSE(resumed->is_parallel());
      for (size_t i = cut; i < trace.size(); ++i) {
        ASSERT_TRUE(resumed->executor->Push(trace[i]).ok());
      }
      results = resumed->executor->num_results();
      kept = resumed->executor->kept_results();
    }
    EXPECT_EQ(results, ref->executor->num_results());
    std::vector<Tuple> ref_kept = ref->executor->kept_results();
    std::sort(kept.begin(), kept.end());
    std::sort(ref_kept.begin(), ref_kept.end());
    EXPECT_EQ(kept, ref_kept);
  }
  std::remove(path.c_str());
}

TEST(CheckpointExecutorTest, RestoreRejectsCorruptFile) {
  const std::string path = TempPath("punctsafe_corrupt_ckpt.bin");
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery query = TriangleQuery(catalog);
  SchemeSet schemes = Fig5Schemes(catalog);
  auto exec = PlanExecutor::Create(query, schemes, PlanShape::SingleMJoin(3),
                                   BaseConfig());
  ASSERT_TRUE(exec.ok());
  ASSERT_TRUE(WriteSnapshotFile((*exec)->Checkpoint(), path).ok());
  Result<StateSnapshot> good = ReadSnapshotFile(path);
  ASSERT_TRUE(good.ok());

  // Corrupt one payload byte on disk; the section CRC must catch it.
  std::string bytes = SerializeSnapshot(*good);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xFF);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  Result<StateSnapshot> bad = ReadSnapshotFile(path);
  EXPECT_FALSE(bad.ok());
  std::remove(path.c_str());

  Result<StateSnapshot> missing = ReadSnapshotFile(TempPath("nope.bin"));
  EXPECT_FALSE(missing.ok());
}

}  // namespace
}  // namespace punctsafe
