// Extra runtime coverage: punctuation retirement (Section 5.1),
// all-wildcard stream-end punctuations (heartbeat-style closure), and
// StateMetrics accounting.

#include <gtest/gtest.h>

#include <thread>

#include "core/plan_safety.h"
#include "exec/mjoin.h"
#include "test_util.h"

namespace punctsafe {
namespace {

using testing_util::Fig5Schemes;
using testing_util::PaperCatalog;
using testing_util::SchemeOn;
using testing_util::TriangleQuery;

std::unique_ptr<MJoinOperator> MakeBinaryOp(const ContinuousJoinQuery& q,
                                            const SchemeSet& schemes) {
  std::vector<LocalInput> inputs;
  for (size_t s = 0; s < q.num_streams(); ++s) {
    inputs.push_back({{s}, RawAvailableSchemes(q, schemes, s)});
  }
  auto op = MJoinOperator::Create(q, inputs, {});
  PUNCTSAFE_CHECK(op.ok()) << op.status().ToString();
  return std::move(op).ValueOrDie();
}

struct BinaryFixture {
  StreamCatalog catalog;
  ContinuousJoinQuery query;
  SchemeSet schemes;

  BinaryFixture() : query(Make(&catalog)) {
    PUNCTSAFE_CHECK_OK(schemes.Add(SchemeOn(catalog, "L", {"B"})));
    PUNCTSAFE_CHECK_OK(schemes.Add(SchemeOn(catalog, "R", {"B"})));
  }
  static ContinuousJoinQuery Make(StreamCatalog* catalog) {
    PUNCTSAFE_CHECK_OK(catalog->Register("L", Schema::OfInts({"A", "B"})));
    PUNCTSAFE_CHECK_OK(catalog->Register("R", Schema::OfInts({"B", "C"})));
    auto q = ContinuousJoinQuery::Create(*catalog, {"L", "R"},
                                         {Eq({"L", "B"}, {"R", "B"})});
    PUNCTSAFE_CHECK(q.ok());
    return std::move(q).ValueOrDie();
  }
};

// The paper's Section 5.1 example: the punctuation (b1, *) from R can
// be retired once (*, b1) from L arrives — no future or stored L
// tuple will ever need it again.
TEST(PunctuationPurgeabilityTest, PartnerPunctuationRetiresPunctuation) {
  BinaryFixture fx;
  auto op = MakeBinaryOp(fx.query, fx.schemes);

  // R closes B=7.
  op->PushPunctuation(1, Punctuation::OfConstants(2, {{0, Value(7)}}), 1);
  EXPECT_EQ(op->TotalLivePunctuations(), 1u);
  EXPECT_EQ(op->punctuations_purged(), 0u);

  // L closes B=7 too: the value 7 of the class {L.B, R.B} is now
  // promised by both inputs and carried by no live tuple, so it is
  // finished and BOTH punctuations retire (exclusion is a property of
  // the stream contracts, which outlive the stores).
  op->PushPunctuation(0, Punctuation::OfConstants(2, {{1, Value(7)}}), 2);
  EXPECT_EQ(op->punctuations_purged(), 2u);
  EXPECT_EQ(op->TotalLivePunctuations(), 0u);
}

// On the Figure 5 triangle, tuples can be closed on one attribute yet
// stuck on their chain's next hop; the punctuations they still rely
// on must NOT retire while those tuples live.
TEST(PunctuationPurgeabilityTest, LiveMatchingTupleBlocksRetirement) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  SchemeSet schemes = Fig5Schemes(catalog);
  std::vector<LocalInput> inputs;
  for (size_t s = 0; s < 3; ++s) {
    inputs.push_back({{s}, RawAvailableSchemes(q, schemes, s)});
  }
  auto op_or = MJoinOperator::Create(q, inputs, {});
  ASSERT_TRUE(op_or.ok());
  auto op = std::move(op_or).ValueOrDie();

  op->PushTuple(0, Tuple({Value(1), Value(7)}), 1);  // S1 (A=1, B=7)
  op->PushTuple(1, Tuple({Value(7), Value(9)}), 2);  // S2 (B=7, C=9)
  op->PushPunctuation(0, Punctuation::OfConstants(2, {{1, Value(7)}}), 3);
  op->PushPunctuation(1, Punctuation::OfConstants(2, {{0, Value(7)}}), 4);
  // Both tuples wait on S3 punctuations, so both B=7 punctuations are
  // still load-bearing: nothing retires, nothing purges.
  EXPECT_EQ(op->TotalLiveTuples(), 2u);
  EXPECT_EQ(op->punctuations_purged(), 0u);
  EXPECT_EQ(op->TotalLivePunctuations(), 2u);

  // Closing S3 on A=1 releases the chains: both tuples purge, and the
  // two B=7 punctuations retire mutually. S3's own punctuation stays:
  // no S1-stream punctuation on A covers its value.
  op->PushPunctuation(2, Punctuation::OfConstants(2, {{1, Value(1)}}), 5);
  EXPECT_EQ(op->TotalLiveTuples(), 0u);
  EXPECT_EQ(op->punctuations_purged(), 2u);
  EXPECT_EQ(op->TotalLivePunctuations(), 1u);
}

// The contract trade-off of retirement: a promise is enforced while
// its value is unfinished and forgotten once it finishes.
TEST(PunctuationPurgeabilityTest, PromiseIsForgottenOnlyOnceItsValueFinishes) {
  BinaryFixture fx;
  auto op = MakeBinaryOp(fx.query, fx.schemes);
  op->PushPunctuation(1, Punctuation::OfConstants(2, {{0, Value(7)}}), 1);
  // R violates its own promise before L has promised: dropped.
  op->PushTuple(1, Tuple({Value(7), Value(1)}), 2);
  EXPECT_EQ(op->state_metrics(1).dropped_on_arrival.load(), 1u);
  EXPECT_EQ(op->TotalLiveTuples(), 0u);

  // L promises too: 7 finishes and both promises retire.
  op->PushPunctuation(0, Punctuation::OfConstants(2, {{1, Value(7)}}), 3);
  EXPECT_EQ(op->punctuations_purged(), 2u);
  EXPECT_EQ(op->TotalLivePunctuations(), 0u);

  // The same violation now is admitted; it joins nothing (L promised
  // no more 7s) and nothing can purge it.
  op->PushTuple(1, Tuple({Value(7), Value(2)}), 4);
  op->Sweep(5);
  EXPECT_EQ(op->state_metrics(1).dropped_on_arrival.load(), 1u);
  EXPECT_EQ(op->TotalLiveTuples(), 1u);
  EXPECT_EQ(op->metrics().results_emitted.load(), 0u);
}

// A split restore hands a shard promises on values it holds no tuple
// of; such a value is finished with no event left to test it, so the
// next purge pass scans the restored stores. Capture right after the
// restore still sees the snapshot unchanged.
TEST(PunctuationPurgeabilityTest, RestoredFinishedValueRetiresAtNextPass) {
  BinaryFixture fx;
  OperatorStateSnapshot snap;
  snap.inputs.resize(2);
  snap.inputs[0].punctuations.push_back(
      {Punctuation::OfConstants(2, {{1, Value(7)}}), 1});
  snap.inputs[1].punctuations.push_back(
      {Punctuation::OfConstants(2, {{0, Value(7)}}), 2});
  auto op = MakeBinaryOp(fx.query, fx.schemes);
  ASSERT_TRUE(op->RestoreState(snap).ok());
  EXPECT_EQ(op->TotalLivePunctuations(), 2u);
  EXPECT_EQ(op->CaptureState().inputs[1].punctuations.size(), 1u);
  op->Sweep(3);
  EXPECT_EQ(op->punctuations_purged(), 2u);
  EXPECT_EQ(op->TotalLivePunctuations(), 0u);
}

TEST(PunctuationPurgeabilityTest, BoundedStoreOnLongRun) {
  BinaryFixture fx;
  auto op = MakeBinaryOp(fx.query, fx.schemes);
  // Windowed run: both sides punctuate each value; stores stay small.
  for (int64_t v = 0; v < 500; ++v) {
    op->PushTuple(0, Tuple({Value(v), Value(v)}), 4 * v);
    op->PushTuple(1, Tuple({Value(v), Value(v + 1)}), 4 * v + 1);
    op->PushPunctuation(1, Punctuation::OfConstants(2, {{0, Value(v)}}),
                        4 * v + 2);
    op->PushPunctuation(0, Punctuation::OfConstants(2, {{1, Value(v)}}),
                        4 * v + 3);
  }
  EXPECT_EQ(op->TotalLiveTuples(), 0u);
  EXPECT_GT(op->punctuations_purged(), 900u);
  EXPECT_LT(op->TotalLivePunctuations(), 20u);
}

// An all-wildcard punctuation declares the stream finished: every
// partner tuple waiting on it becomes purgeable ([12]'s heartbeat-like
// end-of-stream).
TEST(StreamEndTest, AllWildcardClosesEverything) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  SchemeSet schemes = Fig5Schemes(catalog);
  std::vector<LocalInput> inputs;
  for (size_t s = 0; s < 3; ++s) {
    inputs.push_back({{s}, RawAvailableSchemes(q, schemes, s)});
  }
  auto op_or = MJoinOperator::Create(q, inputs, {});
  ASSERT_TRUE(op_or.ok());
  auto op = std::move(op_or).ValueOrDie();

  for (int i = 0; i < 5; ++i) {
    op->PushTuple(0, Tuple({Value(i), Value(i)}), i);
    op->PushTuple(1, Tuple({Value(i), Value(i + 50)}), i);
  }
  EXPECT_EQ(op->TotalLiveTuples(), 10u);
  // S2 and S3 both end entirely.
  op->PushPunctuation(1, Punctuation::AllWildcard(2), 100);
  op->PushPunctuation(2, Punctuation::AllWildcard(2), 101);
  // S1 tuples: chain closes S3 (ended) then S2 (ended) -> purged.
  EXPECT_EQ(op->state_metrics(0).live, 0u);
  // S2's own stored tuples wait on S1 (not ended) and stay.
  EXPECT_EQ(op->state_metrics(1).live, 5u);
  op->PushPunctuation(0, Punctuation::AllWildcard(2), 102);
  EXPECT_EQ(op->TotalLiveTuples(), 0u);
}

// Regression: OnPurge used to underflow `live` (a size_t) when a purge
// double-counted, turning the live counter into ~2^64 and wrecking
// every downstream high-water/safety statistic. It now clamps at zero
// (and asserts in debug builds).
TEST(StateMetricsTest, OnPurgeClampsInsteadOfUnderflowing) {
  StateMetrics m;
  m.OnInsert();
  m.OnInsert();
  m.OnPurge(1);
  EXPECT_EQ(m.live, 1u);
  EXPECT_EQ(m.purged, 1u);

  // Purging more than is live is a bug in the caller; the counter must
  // clamp rather than wrap.
  EXPECT_DEBUG_DEATH(m.OnPurge(5), "OnPurge exceeds live");
#ifdef NDEBUG
  EXPECT_EQ(m.live, 0u);
  EXPECT_LT(m.live, m.high_water + 1);  // sane, not ~2^64
#endif
}

TEST(StateMetricsTest, ConcurrentUpdatesStayConsistent) {
  StateMetrics m;
  constexpr size_t kPerThread = 5000;
  {
    std::thread a([&] {
      for (size_t i = 0; i < kPerThread; ++i) m.OnInsert();
    });
    std::thread b([&] {
      for (size_t i = 0; i < kPerThread; ++i) m.OnInsert();
    });
    a.join();
    b.join();
  }
  EXPECT_EQ(m.inserted, 2 * kPerThread);
  EXPECT_EQ(m.live, 2 * kPerThread);
  EXPECT_EQ(m.high_water, 2 * kPerThread);
  {
    std::thread a([&] {
      for (size_t i = 0; i < kPerThread; ++i) m.OnPurge(1);
    });
    std::thread b([&] {
      for (size_t i = 0; i < kPerThread; ++i) m.OnPurge(1);
    });
    a.join();
    b.join();
  }
  EXPECT_EQ(m.purged, 2 * kPerThread);
  EXPECT_EQ(m.live, 0u);

  StateMetricsSnapshot snap = m.Snapshot();
  EXPECT_EQ(snap.inserted, 2 * kPerThread);
  EXPECT_EQ(snap.live, 0u);
  EXPECT_EQ(snap.high_water, 2 * kPerThread);
}

}  // namespace
}  // namespace punctsafe
