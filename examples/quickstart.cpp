// Quickstart: the paper's running example end to end.
//
// The online auction of Example 1 / Figure 1: an `item` stream and a
// `bid` stream joined on itemid. The walkthrough shows the whole
// punctsafe workflow —
//   1. register streams and punctuation schemes with the query
//      register (Figure 2's architecture),
//   2. ask the safety checker whether the join can run at all (it
//      rejects the query when the only schemes are useless ones),
//   3. run the admitted query on a generated auction trace and watch
//      the join state stay bounded while results stream out.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "util/logging.h"

#include "exec/plan_executor.h"
#include "exec/query_register.h"
#include "workload/auction.h"

using namespace punctsafe;

int main() {
  std::printf("== punctsafe quickstart: the online auction ==\n\n");

  // ---------------------------------------------------------------
  // 1. The unsafe configuration the paper opens with: punctuations
  //    exist, but on the wrong attribute (bidderid).
  // ---------------------------------------------------------------
  {
    QueryRegister reg;
    PUNCTSAFE_CHECK_OK(
        reg.RegisterStream(AuctionWorkload::kItemStream,
                           AuctionWorkload::ItemSchema()));
    PUNCTSAFE_CHECK_OK(reg.RegisterStream(AuctionWorkload::kBidStream,
                                          AuctionWorkload::BidSchema()));
    PUNCTSAFE_CHECK_OK(
        reg.RegisterScheme(AuctionWorkload::kBidStream, {"bidderid"}));

    auto rejected = reg.Register(AuctionWorkload::QueryStreams(),
                                 AuctionWorkload::QueryPredicates());
    std::printf("With only bid(+bidderid) punctuations the register says:\n");
    std::printf("  %s\n\n", rejected.status().ToString().c_str());
  }

  // ---------------------------------------------------------------
  // 2. The safe configuration: item(+itemid) (ids are unique) and
  //    bid(+itemid) (auction-close announcements).
  // ---------------------------------------------------------------
  QueryRegister reg;
  PUNCTSAFE_CHECK_OK(AuctionWorkload::Setup(&reg));
  auto rq = reg.Register(AuctionWorkload::QueryStreams(),
                         AuctionWorkload::QueryPredicates());
  PUNCTSAFE_CHECK_OK(rq.status());
  std::printf("With itemid punctuations on both streams:\n  %s\n\n",
              rq->safety.explanation.c_str());

  // The checker also explains HOW each state purges (Section 3.2.1).
  for (const StreamPurgeability& v : rq->safety.per_stream) {
    if (v.purge_plan.has_value()) {
      std::printf("  %s\n", v.purge_plan->ToString(rq->query).c_str());
    }
  }

  // ---------------------------------------------------------------
  // 3. Run a 1000-auction market through the admitted executor.
  // ---------------------------------------------------------------
  AuctionConfig config;
  config.num_items = 1000;
  config.bids_per_item = 8;
  config.max_open = 32;
  Trace trace = AuctionWorkload::Generate(config);
  PUNCTSAFE_CHECK_OK(FeedTrace(rq->executor.get(), trace));

  std::printf("\nRan %zu trace events:\n", trace.size());
  std::printf("  join results emitted : %llu\n",
              static_cast<unsigned long long>(rq->executor->num_results()));
  std::printf("  join-state high water: %zu tuples (input held %zu tuples)\n",
              rq->executor->tuple_high_water(),
              config.num_items * (1 + config.bids_per_item));
  std::printf("  final join state     : %zu tuples\n",
              rq->executor->TotalLiveTuples());
  std::printf(
      "\nThe state high-water tracks the %zu concurrently open auctions,\n"
      "not the input size — the guarantee the safety check promised.\n",
      config.max_open);
  return 0;
}
