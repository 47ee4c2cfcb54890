#include "exec/mjoin.h"

#include <gtest/gtest.h>

#include <tuple>
#include <utility>

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

// PushTuple is a one-row PushBatch: two operators fed the same trace,
// one through each entry point, agree on the emission sequence, the
// live count after every event, and every operator and input metric.
// The trace stores tuples before any punctuation exists, purges in
// chains, drops arrivals their own stream excluded, and drops an
// arrival the partner stores already close.
TEST(MJoinTest, PushTupleIsAOneRowPushBatch) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  for (PurgePolicy policy : {PurgePolicy::kEager, PurgePolicy::kLazy}) {
    SCOPED_TRACE(::testing::Message() << "policy=" << static_cast<int>(policy));
    MJoinConfig config;
    config.purge_policy = policy;
    config.lazy_batch = 2;
    auto by_tuple = MakeRawJoin(q, Fig5Schemes(catalog), config);
    auto by_batch = MakeRawJoin(q, Fig5Schemes(catalog), config);
    using Emitted = std::vector<std::pair<Tuple, int64_t>>;
    Emitted tuple_out, batch_out;
    auto collect = [](Emitted* out) {
      return [out](TupleBatch& b) {
        for (size_t i = 0; i < b.size(); ++i) {
          out->emplace_back(b.tuple(i), b.timestamp(i));
        }
      };
    };
    by_tuple->SetBatchEmitter(collect(&tuple_out));
    by_batch->SetBatchEmitter(collect(&batch_out));

    TupleBatch one(1);
    int64_t ts = 0;
    auto push = [&](size_t input, const Tuple& t) {
      by_tuple->PushTuple(input, t, ts);
      one.Clear();
      one.Append(t, ts);
      by_batch->PushBatch(input, one);
      EXPECT_EQ(by_tuple->TotalLiveTuples(), by_batch->TotalLiveTuples())
          << "ts=" << ts;
      ++ts;
    };
    auto punct = [&](size_t input, int64_t v) {
      const Punctuation p = Punctuation::OfConstants(2, {{1, Value(v)}});
      by_tuple->PushPunctuation(input, p, ts);
      by_batch->PushPunctuation(input, p, ts);
      EXPECT_EQ(by_tuple->TotalLiveTuples(), by_batch->TotalLiveTuples())
          << "ts=" << ts;
      ++ts;
    };
    // S1(A,B), S2(B,C), S3(C,A); Fig5 schemes close S1.B, S2.C, S3.A.
    for (int64_t g = 0; g < 12; ++g) {
      push(0, Tuple({Value(g), Value(g + 100)}));
      push(0, Tuple({Value(g), Value(g + 100)}));
      push(1, Tuple({Value(g + 100), Value(g + 200)}));
      push(2, Tuple({Value(g + 200), Value(g)}));
      push(2, Tuple({Value(g + 900), Value(g + 900)}));  // joins nothing
      if (g % 3 == 2) {
        for (int64_t c = g - 2; c <= g; ++c) {
          punct(2, c);
          punct(1, c + 200);
          punct(0, c + 100);
        }
        // S1 violates its own B = g+100 punctuation: excluded.
        push(0, Tuple({Value(g + 50), Value(g + 100)}));
        // S2 with B = g+100 (S1 closed there) and a fresh C: closed by
        // the partner stores on arrival.
        push(1, Tuple({Value(g + 100), Value(g + 777)}));
      }
    }
    EXPECT_GT(tuple_out.size(), 0u);
    EXPECT_EQ(tuple_out, batch_out);
    EXPECT_EQ(by_tuple->metrics().Snapshot(), by_batch->metrics().Snapshot());
    for (size_t i = 0; i < q.num_streams(); ++i) {
      SCOPED_TRACE(::testing::Message() << "input=" << i);
      EXPECT_EQ(by_tuple->state_metrics(i).Snapshot(),
                by_batch->state_metrics(i).Snapshot());
    }
    EXPECT_GT(by_tuple->state_metrics(0).dropped_on_arrival, 0u);
    EXPECT_GT(by_tuple->state_metrics(0).purged, 0u);
  }
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

// Output punctuations exist for a parent: an MJoin with only the
// batch (result) channel builds none, one with an element emitter
// propagates as soon as the matching state is gone.
TEST(MJoinBinaryTest, PropagatesOnlyWithAnElementEmitter) {
  AuctionJoin fx;
  auto run = [&](bool element_emitter, size_t* results,
                 size_t* punctuations) {
    auto op = MakeRawJoin(fx.query, fx.schemes);
    op->SetBatchEmitter([results](TupleBatch& b) { *results += b.size(); });
    if (element_emitter) {
      op->SetEmitter([punctuations](const StreamElement& e) {
        if (!e.is_tuple()) ++*punctuations;
      });
    }
    op->PushTuple(0, Tuple({Value(42), Value(1)}), 1);  // item 1
    op->PushTuple(1, Tuple({Value(1), Value(5)}), 2);   // bid on 1
    op->PushTuple(0, Tuple({Value(43), Value(2)}), 3);  // item 2
    op->PushPunctuation(1, Punctuation::OfConstants(2, {{0, Value(1)}}), 4);
    op->PushPunctuation(0, Punctuation::OfConstants(2, {{1, Value(1)}}), 5);
    // Item 2 is still live: its item punctuation stays blocked.
    op->PushPunctuation(0, Punctuation::OfConstants(2, {{1, Value(2)}}), 6);
    EXPECT_EQ(op->TotalLiveTuples(), 1u);
    return std::make_pair(op->metrics().punctuations_propagated.load(),
                          op->CaptureState().pending.size());
  };

  size_t results = 0;
  size_t punctuations = 0;
  auto [propagated, pending] = run(false, &results, &punctuations);
  EXPECT_EQ(results, 1u);
  EXPECT_EQ(propagated, 0u);
  EXPECT_EQ(pending, 0u);

  results = 0;
  std::tie(propagated, pending) = run(true, &results, &punctuations);
  EXPECT_EQ(results, 1u);  // results still take the batch channel
  EXPECT_EQ(propagated, 2u);
  EXPECT_EQ(punctuations, 2u);
  EXPECT_EQ(pending, 1u);
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

// The chain K0(k) - K1(k) - ... - K{m-1}(k), one scheme on k per stream.
struct KeyChain {
  StreamCatalog catalog;
  SchemeSet schemes;
  ContinuousJoinQuery query;

  explicit KeyChain(size_t m) : query(Make(&catalog, &schemes, m)) {}

  static ContinuousJoinQuery Make(StreamCatalog* catalog, SchemeSet* schemes,
                                  size_t m) {
    std::vector<std::string> streams;
    std::vector<JoinPredicateSpec> predicates;
    for (size_t i = 0; i < m; ++i) {
      streams.push_back("K" + std::to_string(i));
      PUNCTSAFE_CHECK_OK(
          catalog->Register(streams.back(), Schema::OfInts({"k"})));
      PUNCTSAFE_CHECK_OK(
          schemes->Add(SchemeOn(*catalog, streams.back(), {"k"})));
      if (i > 0) {
        predicates.push_back(Eq({streams[i - 1], "k"}, {streams[i], "k"}));
      }
    }
    auto q = ContinuousJoinQuery::Create(*catalog, streams, predicates);
    PUNCTSAFE_CHECK(q.ok()) << q.status().ToString();
    return std::move(q).ValueOrDie();
  }
};

TEST(MJoinTest, CreateRejectsMoreInputsThanTheClosedMaskHolds) {
  KeyChain chain(MJoinOperator::kMaxInputs + 1);
  auto op = MJoinOperator::Create(chain.query,
                                  RawInputs(chain.query, chain.schemes), {});
  EXPECT_TRUE(op.status().IsInvalidArgument()) << op.status().ToString();
  KeyChain widest(MJoinOperator::kMaxInputs);
  EXPECT_TRUE(MJoinOperator::Create(widest.query,
                                    RawInputs(widest.query, widest.schemes), {})
                  .ok());
}

// A tuple whose joinable set outgrows kMaxJoinableSet has no blocking
// key. It must stay on the re-check list, not fall out of the wait
// index, and go once purging its partners shrinks the set.
TEST(MJoinTest, OverCapTupleIsPurgedAfterItsPartners) {
  KeyChain chain(3);
  auto op = MakeRawJoin(chain.query, chain.schemes);
  auto punct = [](int64_t k) {
    return Punctuation::OfConstants(1, {{0, Value(k)}});
  };
  int64_t ts = 0;
  op->PushTuple(0, Tuple({Value(1)}), ++ts);  // t
  const size_t partners = MJoinOperator::kMaxJoinableSet + 1;
  for (size_t i = 0; i < partners; ++i) {
    op->PushTuple(1, Tuple({Value(1)}), ++ts);
  }
  // K1 closes k = 1: t's check now expands through every partner and
  // aborts; so does every re-check while the partners live.
  op->PushPunctuation(1, punct(1), ++ts);
  EXPECT_EQ(op->state_metrics(0).live, 1u);
  // A pass with nothing woken still re-checks exactly the parked
  // over-cap tuple.
  const uint64_t checks = op->metrics().removability_checks;
  op->Sweep(ts);
  EXPECT_EQ(op->metrics().removability_checks, checks + 1)
      << "the aborted tuple is not re-checked on every pass";
  op->PushPunctuation(0, punct(1), ++ts);
  EXPECT_EQ(op->state_metrics(0).live, 1u);
  EXPECT_EQ(op->state_metrics(1).live, partners);
  // K2 closes k = 1: the partners go, and with them t's joinable set.
  op->PushPunctuation(2, punct(1), ++ts);
  EXPECT_EQ(op->state_metrics(1).live, 0u);
  EXPECT_EQ(op->state_metrics(0).live, 0u) << "over-cap tuple was lost";
  EXPECT_EQ(op->state_metrics(0).purged, 1u);
}

}  // namespace
}  // namespace punctsafe
