#include "workload/auction.h"

#include <gtest/gtest.h>

#include "exec/plan_executor.h"

namespace punctsafe {
namespace {

TEST(AuctionTest, SetupRegistersStreamsAndSchemes) {
  QueryRegister reg;
  ASSERT_TRUE(AuctionWorkload::Setup(&reg).ok());
  EXPECT_TRUE(reg.catalog().Contains("item"));
  EXPECT_TRUE(reg.catalog().Contains("bid"));
  EXPECT_EQ(reg.schemes().size(), 2u);
}

TEST(AuctionTest, TraceShapeAndContracts) {
  AuctionConfig config;
  config.num_items = 50;
  config.bids_per_item = 4;
  config.max_open = 8;
  Trace trace = AuctionWorkload::Generate(config);

  size_t items = 0, bids = 0, item_puncts = 0, bid_puncts = 0;
  int64_t last_ts = -1;
  for (const TraceEvent& e : trace) {
    EXPECT_GT(e.element.timestamp, last_ts);  // strictly increasing
    last_ts = e.element.timestamp;
    if (e.stream == AuctionWorkload::kItemStream) {
      if (e.element.is_tuple()) {
        EXPECT_TRUE(e.element.tuple.MatchesSchema(AuctionWorkload::ItemSchema())
                        .ok());
        ++items;
      } else {
        ++item_puncts;
      }
    } else {
      if (e.element.is_tuple()) {
        EXPECT_TRUE(
            e.element.tuple.MatchesSchema(AuctionWorkload::BidSchema()).ok());
        ++bids;
      } else {
        ++bid_puncts;
      }
    }
  }
  EXPECT_EQ(items, 50u);
  EXPECT_EQ(bids, 200u);
  EXPECT_EQ(item_puncts, 50u);  // one per unique item
  EXPECT_EQ(bid_puncts, 50u);   // one per auction close
}

TEST(AuctionTest, PunctuationContractHolds) {
  // After an item punctuation for itemid = x, no further item tuple
  // carries x; after a bid-close punctuation, no further bid does.
  AuctionConfig config;
  config.num_items = 80;
  Trace trace = AuctionWorkload::Generate(config);
  std::set<int64_t> closed_items, closed_bids;
  for (const TraceEvent& e : trace) {
    bool is_item = e.stream == AuctionWorkload::kItemStream;
    if (e.element.is_punctuation()) {
      const Punctuation& p = e.element.punctuation;
      (is_item ? closed_items : closed_bids)
          .insert(p.pattern(1).constant().AsInt64());
    } else {
      int64_t itemid = e.element.tuple.at(1).AsInt64();
      if (is_item) {
        EXPECT_FALSE(closed_items.count(itemid)) << "item after punct";
      } else {
        EXPECT_FALSE(closed_bids.count(itemid)) << "bid after close";
      }
    }
  }
}

TEST(AuctionTest, DeterministicPerSeed) {
  AuctionConfig config;
  config.num_items = 20;
  Trace a = AuctionWorkload::Generate(config);
  Trace b = AuctionWorkload::Generate(config);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stream, b[i].stream);
    EXPECT_EQ(a[i].element.ToString(), b[i].element.ToString());
  }
  config.seed = 99;
  Trace c = AuctionWorkload::Generate(config);
  EXPECT_NE(a.size(), 0u);
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = !(a[i].element.ToString() == c[i].element.ToString());
  }
  EXPECT_TRUE(differs);
}

TEST(AuctionTest, DropRateSuppressesPunctuations) {
  AuctionConfig config;
  config.num_items = 100;
  config.punctuation_drop_rate = 1.0;  // drop everything
  Trace trace = AuctionWorkload::Generate(config);
  for (const TraceEvent& e : trace) {
    EXPECT_TRUE(e.element.is_tuple());
  }
}

// End-to-end Experiment E1 in miniature: with punctuations the join
// state stays near the open-auction window; without them it grows to
// the full input size.
TEST(AuctionTest, BoundedStateWithPunctuations) {
  AuctionConfig config;
  config.num_items = 200;
  config.bids_per_item = 5;
  config.max_open = 10;

  QueryRegister reg;
  ASSERT_TRUE(AuctionWorkload::Setup(&reg).ok());
  auto rq = reg.Register(AuctionWorkload::QueryStreams(),
                         AuctionWorkload::QueryPredicates());
  ASSERT_TRUE(rq.ok());
  Trace trace = AuctionWorkload::Generate(config);
  ASSERT_TRUE(FeedTrace(rq->executor.get(), trace).ok());

  // Every auction closed: state fully drained; results = one per bid.
  EXPECT_EQ(rq->executor->TotalLiveTuples(), 0u);
  EXPECT_EQ(rq->executor->num_results(), 200u * 5u);
  // High water stays in the neighborhood of the open window, far from
  // the 1200-element input.
  EXPECT_LE(rq->executor->tuple_high_water(), 8 * config.max_open);

  // Same trace, punctuations stripped: linear growth.
  AuctionConfig no_punct = config;
  no_punct.punctuate_items = false;
  no_punct.punctuate_close = false;
  auto rq2 = reg.Register(AuctionWorkload::QueryStreams(),
                          AuctionWorkload::QueryPredicates());
  ASSERT_TRUE(rq2.ok());
  ASSERT_TRUE(
      FeedTrace(rq2->executor.get(), AuctionWorkload::Generate(no_punct))
          .ok());
  EXPECT_EQ(rq2->executor->TotalLiveTuples(), 200u + 200u * 5u);
  EXPECT_EQ(rq2->executor->num_results(), 200u * 5u);
}

}  // namespace
}  // namespace punctsafe
