#include "exec/mjoin.h"

#include <gtest/gtest.h>

#include "core/plan_safety.h"
#include "test_util.h"

namespace punctsafe {
namespace {

using testing_util::Fig5Schemes;
using testing_util::Fig8Schemes;
using testing_util::PaperCatalog;
using testing_util::SchemeOn;
using testing_util::TriangleQuery;

std::vector<LocalInput> RawInputs(const ContinuousJoinQuery& q,
                                  const SchemeSet& schemes) {
  std::vector<LocalInput> inputs;
  for (size_t s = 0; s < q.num_streams(); ++s) {
    inputs.push_back({{s}, RawAvailableSchemes(q, schemes, s)});
  }
  return inputs;
}

// The paper's Example 1 as a 2-input MJoin — the binary purge rule of
// Section 3.1 is the n = 2 case of the chained purge. Stream 0 is
// item(sellerid, itemid), stream 1 is bid(itemid, increase), joined on
// itemid, with schemes on itemid for both streams.
struct AuctionJoin {
  StreamCatalog catalog;
  ContinuousJoinQuery query;
  SchemeSet schemes;

  AuctionJoin() : query(Make(&catalog)) {
    PUNCTSAFE_CHECK_OK(schemes.Add(SchemeOn(catalog, "item", {"itemid"})));
    PUNCTSAFE_CHECK_OK(schemes.Add(SchemeOn(catalog, "bid", {"itemid"})));
  }

  static ContinuousJoinQuery Make(StreamCatalog* catalog) {
    PUNCTSAFE_CHECK_OK(
        catalog->Register("item", Schema::OfInts({"sellerid", "itemid"})));
    PUNCTSAFE_CHECK_OK(
        catalog->Register("bid", Schema::OfInts({"itemid", "increase"})));
    auto q = ContinuousJoinQuery::Create(
        *catalog, {"item", "bid"},
        {Eq({"item", "itemid"}, {"bid", "itemid"})});
    PUNCTSAFE_CHECK(q.ok());
    return std::move(q).ValueOrDie();
  }
};

// One MJoin input per raw query stream.
std::unique_ptr<MJoinOperator> MakeRawJoin(const ContinuousJoinQuery& q,
                                           const SchemeSet& schemes,
                                           MJoinConfig config = {}) {
  auto op = MJoinOperator::Create(q, RawInputs(q, schemes), config);
  PUNCTSAFE_CHECK(op.ok()) << op.status().ToString();
  return std::move(op).ValueOrDie();
}

TEST(MJoinTest, CreateValidation) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  SchemeSet schemes = Fig5Schemes(catalog);
  // One input only.
  EXPECT_TRUE(
      MJoinOperator::Create(q, {{{0}, {}}}, {}).status().IsInvalidArgument());
  // Overlapping covers.
  EXPECT_TRUE(MJoinOperator::Create(q, {{{0, 1}, {}}, {{1, 2}, {}}}, {})
                  .status()
                  .IsInvalidArgument());
  // Unsorted cover.
  EXPECT_TRUE(MJoinOperator::Create(q, {{{1, 0}, {}}, {{2}, {}}}, {})
                  .status()
                  .IsInvalidArgument());
}

TEST(MJoinTest, ThreeWayResultsProduced) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  auto op = MakeRawJoin(q, Fig5Schemes(catalog));
  std::vector<Tuple> results;
  op->SetEmitter([&](const StreamElement& e) {
    if (e.is_tuple()) results.push_back(e.tuple);
  });

  // S1(A,B)=(7,1), S2(B,C)=(1,2), S3(C,A)=(2,7): full triangle match.
  op->PushTuple(0, Tuple({Value(7), Value(1)}), 1);
  op->PushTuple(1, Tuple({Value(1), Value(2)}), 2);
  EXPECT_TRUE(results.empty());  // needs all three
  op->PushTuple(2, Tuple({Value(2), Value(7)}), 3);
  ASSERT_EQ(results.size(), 1u);
  // Output layout: S1 ++ S2 ++ S3.
  EXPECT_EQ(results[0],
            Tuple({Value(7), Value(1), Value(1), Value(2), Value(2),
                   Value(7)}));

  // A tuple matching on B but not on A produces nothing.
  op->PushTuple(2, Tuple({Value(2), Value(8)}), 4);
  EXPECT_EQ(results.size(), 1u);
  EXPECT_EQ(op->metrics().results_emitted, 1u);
}

// The Figure 5 chained purge at runtime: purging S1's tuple requires
// closing S3 on A = a1, then S2 on the joinable C values.
TEST(MJoinTest, Fig5ChainedPurgeTiming) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  auto op = MakeRawJoin(q, Fig5Schemes(catalog));
  for (size_t s = 0; s < 3; ++s) EXPECT_TRUE(op->InputPurgeable(s));

  op->PushTuple(2, Tuple({Value(30), Value(10)}), 1);  // S3 (C=30, A=10)
  op->PushTuple(0, Tuple({Value(10), Value(20)}), 2);  // S1 (A=10, B=20)
  EXPECT_EQ(op->TotalLiveTuples(), 2u);

  // Close S3 on A=10: not sufficient — the joinable S3 tuple (30,10)
  // still admits future S2 data with C=30.
  op->PushPunctuation(2, Punctuation::OfConstants(2, {{1, Value(10)}}), 3);
  EXPECT_EQ(op->state_metrics(0).live, 1u);

  // Close S2 on C=30: now S1's tuple AND the S3 tuple become
  // removable (S3's chain: close S2 on C=30, then S1 on the joinable
  // S2 B-values — vacuously none stored).
  op->PushPunctuation(1, Punctuation::OfConstants(2, {{1, Value(30)}}), 4);
  EXPECT_EQ(op->state_metrics(0).live, 0u);
  EXPECT_EQ(op->state_metrics(2).live, 0u);
  EXPECT_EQ(op->state_metrics(0).purged, 1u);
}

// Figure 8 worked example (Section 4.2): t = (a1, b1) from S1 purges
// after (b1, *) from S2 plus pair punctuations (c_j, a1) from S3 for
// every joinable c_j.
TEST(MJoinTest, Fig8GeneralizedPurge) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  auto op = MakeRawJoin(q, Fig8Schemes(catalog));

  const int64_t a1 = 1, b1 = 2, c1 = 3, c2 = 4;
  op->PushTuple(0, Tuple({Value(a1), Value(b1)}), 1);   // t
  op->PushTuple(1, Tuple({Value(b1), Value(c1)}), 2);   // joinable
  op->PushTuple(1, Tuple({Value(b1), Value(c2)}), 3);   // joinable
  EXPECT_EQ(op->state_metrics(0).live, 1u);

  // (b1, *) from S2 closes S2 for t...
  op->PushPunctuation(1, Punctuation::OfConstants(2, {{0, Value(b1)}}), 4);
  EXPECT_EQ(op->state_metrics(0).live, 1u);  // S3 still open

  // ...then the pair punctuations from S3 on (C, A).
  op->PushPunctuation(
      2, Punctuation::OfConstants(2, {{0, Value(c1)}, {1, Value(a1)}}), 5);
  EXPECT_EQ(op->state_metrics(0).live, 1u);  // c2 combo still open
  op->PushPunctuation(
      2, Punctuation::OfConstants(2, {{0, Value(c2)}, {1, Value(a1)}}), 6);
  EXPECT_EQ(op->state_metrics(0).live, 0u) << "t should now be purged";
}

TEST(MJoinTest, UnpurgeableInputKeepsGrowing) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  SchemeSet schemes;  // no schemes at all
  auto op = MakeRawJoin(q, schemes);
  for (size_t s = 0; s < 3; ++s) EXPECT_FALSE(op->InputPurgeable(s));
  for (int i = 0; i < 10; ++i) {
    op->PushTuple(0, Tuple({Value(i), Value(i)}), i);
  }
  op->PushPunctuation(1, Punctuation::OfConstants(2, {{0, Value(1)}}), 99);
  EXPECT_EQ(op->TotalLiveTuples(), 10u);
}

TEST(MJoinTest, EagerDropOnArrival) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  auto op = MakeRawJoin(q, Fig5Schemes(catalog));
  // Close A=10 on S3 and (vacuously) everything else first.
  op->PushPunctuation(2, Punctuation::OfConstants(2, {{1, Value(10)}}), 1);
  // Arriving S1 tuple with A=10: joins nothing now and never will.
  op->PushTuple(0, Tuple({Value(10), Value(20)}), 2);
  EXPECT_EQ(op->state_metrics(0).live, 0u);
  EXPECT_EQ(op->state_metrics(0).dropped_on_arrival, 1u);
}

TEST(MJoinTest, ExcludedArrivalOnOwnStreamDropped) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  auto op = MakeRawJoin(q, Fig5Schemes(catalog));
  std::vector<Tuple> results;
  op->SetEmitter([&](const StreamElement& e) {
    if (e.is_tuple()) results.push_back(e.tuple);
  });
  // S2 promises no more B=1 tuples, then violates it.
  op->PushPunctuation(1, Punctuation::OfConstants(2, {{0, Value(1)}}), 1);
  op->PushTuple(1, Tuple({Value(1), Value(2)}), 2);
  EXPECT_EQ(op->state_metrics(1).live, 0u);
  EXPECT_EQ(op->state_metrics(1).dropped_on_arrival, 1u);
  EXPECT_TRUE(results.empty());
}

TEST(MJoinTest, LazyPolicyBatchesSweeps) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  MJoinConfig config;
  config.purge_policy = PurgePolicy::kLazy;
  config.lazy_batch = 3;
  auto op = MakeRawJoin(q, Fig5Schemes(catalog), config);

  op->PushTuple(0, Tuple({Value(10), Value(20)}), 1);
  // These two punctuations fully close the S1 tuple, but the lazy
  // batch has not filled yet.
  op->PushPunctuation(2, Punctuation::OfConstants(2, {{1, Value(10)}}), 2);
  op->PushPunctuation(1, Punctuation::OfConstants(2, {{1, Value(99)}}), 3);
  EXPECT_EQ(op->state_metrics(0).live, 1u);
  EXPECT_EQ(op->metrics().purge_sweeps, 0u);
  // Third punctuation triggers the sweep.
  op->PushPunctuation(1, Punctuation::OfConstants(2, {{1, Value(98)}}), 4);
  EXPECT_EQ(op->metrics().purge_sweeps, 1u);
  EXPECT_EQ(op->state_metrics(0).live, 0u);
}

TEST(MJoinTest, NonePolicyNeverPurges) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  MJoinConfig config;
  config.purge_policy = PurgePolicy::kNone;
  auto op = MakeRawJoin(q, Fig5Schemes(catalog), config);
  op->PushTuple(0, Tuple({Value(10), Value(20)}), 1);
  op->PushPunctuation(2, Punctuation::OfConstants(2, {{1, Value(10)}}), 2);
  op->PushPunctuation(1, Punctuation::OfConstants(2, {{1, Value(30)}}), 3);
  EXPECT_EQ(op->TotalLiveTuples(), 1u);
  // Manual sweep still works.
  op->Sweep(4);
  EXPECT_EQ(op->TotalLiveTuples(), 0u);
}

TEST(MJoinTest, PunctuationLifespanReopensState) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  MJoinConfig config;
  config.punctuation_lifespan = 10;
  auto op = MakeRawJoin(q, Fig5Schemes(catalog), config);
  op->PushPunctuation(2, Punctuation::OfConstants(2, {{1, Value(10)}}), 0);
  // Within the lifespan the arriving tuple is dropped on arrival...
  op->PushTuple(0, Tuple({Value(10), Value(1)}), 5);
  EXPECT_EQ(op->state_metrics(0).live, 0u);
  // ...after expiry the same values are admitted again (recycled ids).
  op->PushTuple(0, Tuple({Value(10), Value(2)}), 50);
  EXPECT_EQ(op->state_metrics(0).live, 1u);
}

TEST(MJoinTest, MetricsAccounting) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  auto op = MakeRawJoin(q, Fig5Schemes(catalog));
  op->PushTuple(0, Tuple({Value(1), Value(2)}), 1);
  op->PushPunctuation(1, Punctuation::OfConstants(2, {{1, Value(9)}}), 2);
  op->PushPunctuation(1, Punctuation::OfConstants(2, {{1, Value(9)}}), 3);
  const OperatorMetrics& m = op->metrics();
  EXPECT_EQ(m.punctuations_received, 2u);
  EXPECT_EQ(m.punctuations_stored, 1u);  // duplicate not re-stored
  EXPECT_GE(m.purge_sweeps, 2u);         // eager: sweep per punctuation
  EXPECT_GT(m.removability_checks, 0u);
  EXPECT_EQ(op->TotalLivePunctuations(), 1u);
}

// Composite input: a 2-input MJoin where the first input covers
// {S1, S2}: offsets must rebase correctly.
TEST(MJoinTest, CompositeInputOffsets) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  SchemeSet schemes = Fig5Schemes(catalog);
  std::vector<LocalInput> inputs;
  inputs.push_back({{0, 1},
                    {{0, {1}}, {1, {1}}}});  // S1 on B, S2 on C... see below
  inputs.back().schemes = {{0, {1}}, {1, {1}}};  // S1.B and S2.C
  inputs.push_back({{2}, RawAvailableSchemes(q, schemes, 2)});
  auto op_or = MJoinOperator::Create(q, inputs, {});
  ASSERT_TRUE(op_or.ok()) << op_or.status().ToString();
  auto op = std::move(op_or).ValueOrDie();
  EXPECT_EQ(op->output_width(), 6u);

  std::vector<Tuple> results;
  op->SetEmitter([&](const StreamElement& e) {
    if (e.is_tuple()) results.push_back(e.tuple);
  });
  // Composite (S1 ++ S2) = (A,B,B,C) = (7,1,1,2); S3 = (2,7).
  op->PushTuple(0, Tuple({Value(7), Value(1), Value(1), Value(2)}), 1);
  op->PushTuple(1, Tuple({Value(2), Value(7)}), 2);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], Tuple({Value(7), Value(1), Value(1), Value(2),
                               Value(2), Value(7)}));
}

TEST(MJoinBinaryTest, SymmetricResultProduction) {
  AuctionJoin fx;
  auto op = MakeRawJoin(fx.query, fx.schemes);
  std::vector<Tuple> results;
  op->SetEmitter([&](const StreamElement& e) {
    if (e.is_tuple()) results.push_back(e.tuple);
  });

  op->PushTuple(1, Tuple({Value(1), Value(5)}), 1);  // bid before item
  EXPECT_TRUE(results.empty());
  op->PushTuple(0, Tuple({Value(42), Value(1)}), 2);  // item 1
  ASSERT_EQ(results.size(), 1u);
  // Output layout: item ++ bid regardless of arrival order.
  EXPECT_EQ(results[0], Tuple({Value(42), Value(1), Value(1), Value(5)}));

  op->PushTuple(1, Tuple({Value(1), Value(7)}), 3);  // another bid
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[1], Tuple({Value(42), Value(1), Value(1), Value(7)}));
}

// Example 1 purging in both directions: the auction-close punctuation
// on the bid stream purges the stored item tuple; the unique-item
// punctuation on the item stream purges the stored bids.
TEST(MJoinBinaryTest, Example1PurgeBothDirections) {
  AuctionJoin fx;
  auto op = MakeRawJoin(fx.query, fx.schemes);
  EXPECT_TRUE(op->InputPurgeable(0));
  EXPECT_TRUE(op->InputPurgeable(1));

  op->PushTuple(0, Tuple({Value(42), Value(1)}), 1);  // item 1
  op->PushTuple(1, Tuple({Value(1), Value(5)}), 2);   // bid on 1
  op->PushTuple(1, Tuple({Value(2), Value(9)}), 3);   // bid on 2 (early)
  EXPECT_EQ(op->TotalLiveTuples(), 3u);

  // Auction 1 closes: bid-stream punctuation (1, *).
  op->PushPunctuation(1, Punctuation::OfConstants(2, {{0, Value(1)}}), 4);
  EXPECT_EQ(op->state_metrics(0).live, 0u);  // item purged
  EXPECT_EQ(op->state_metrics(1).live, 2u);  // bids unaffected

  // itemid 1 unique: item-stream punctuation (*, 1) purges bid(1, 5).
  op->PushPunctuation(0, Punctuation::OfConstants(2, {{1, Value(1)}}), 5);
  EXPECT_EQ(op->state_metrics(1).live, 1u);
  // bid(2, 9) waits for item 2.
  op->PushPunctuation(0, Punctuation::OfConstants(2, {{1, Value(2)}}), 6);
  EXPECT_EQ(op->state_metrics(1).live, 0u);

  // The operator-level rollup sums both inputs.
  StateMetricsSnapshot agg = op->AggregateStateSnapshot();
  EXPECT_EQ(agg.inserted, 3u);
  EXPECT_EQ(agg.purged, 3u);
  EXPECT_EQ(agg.live, 0u);
}

// A scheme on a non-join attribute admits no purge plan for either
// input: punctuations on it never free state.
TEST(MJoinBinaryTest, WrongSchemeMeansUnpurgeable) {
  AuctionJoin fx;
  SchemeSet wrong;
  ASSERT_TRUE(wrong.Add(SchemeOn(fx.catalog, "bid", {"increase"})).ok());
  auto op = MakeRawJoin(fx.query, wrong);
  EXPECT_FALSE(op->InputPurgeable(0));
  EXPECT_FALSE(op->InputPurgeable(1));
  op->PushTuple(0, Tuple({Value(42), Value(1)}), 1);
  op->PushPunctuation(1, Punctuation::OfConstants(2, {{1, Value(5)}}), 2);
  EXPECT_EQ(op->TotalLiveTuples(), 1u);
}

TEST(MJoinBinaryTest, ConjunctivePredicatesAllMustMatch) {
  StreamCatalog catalog;
  ASSERT_TRUE(catalog.Register("L", Schema::OfInts({"A", "B"})).ok());
  ASSERT_TRUE(catalog.Register("R", Schema::OfInts({"A", "B"})).ok());
  auto q = ContinuousJoinQuery::Create(
      catalog, {"L", "R"},
      {Eq({"L", "A"}, {"R", "A"}), Eq({"L", "B"}, {"R", "B"})});
  ASSERT_TRUE(q.ok());
  SchemeSet schemes;
  ASSERT_TRUE(schemes.Add(SchemeOn(catalog, "R", {"A"})).ok());
  auto op = MakeRawJoin(*q, schemes);

  std::vector<Tuple> results;
  op->SetEmitter([&](const StreamElement& e) {
    if (e.is_tuple()) results.push_back(e.tuple);
  });
  op->PushTuple(0, Tuple({Value(1), Value(2)}), 1);
  op->PushTuple(1, Tuple({Value(1), Value(3)}), 2);  // A matches, B not
  EXPECT_TRUE(results.empty());
  op->PushTuple(1, Tuple({Value(1), Value(2)}), 3);  // both match
  EXPECT_EQ(results.size(), 1u);

  // Section 3.1: punctuation on ONE conjunct attribute purges.
  EXPECT_TRUE(op->InputPurgeable(0));
  op->PushPunctuation(1, Punctuation::OfConstants(2, {{0, Value(1)}}), 4);
  EXPECT_EQ(op->state_metrics(0).live, 0u);
}

}  // namespace
}  // namespace punctsafe
