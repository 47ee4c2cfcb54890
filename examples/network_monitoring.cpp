// Network monitoring: a 3-way correlation with recycled identifiers
// and punctuation lifespans (paper Section 5.1).
//
//   flows ⋈ packets on flow_id,  flows ⋈ alerts on src_ip
//
// Flow ids recycle (like TCP sequence numbers wrapping every ~4.55 h),
// so "no more packets for flow 17" cannot mean *forever*. The example
// runs the same trace through two executors:
//   * one whose punctuation stores use the recommended lifespan —
//     correct on recycled ids AND bounded punctuation storage;
//   * one that keeps punctuations forever — on a recycling trace this
//     is semantically WRONG: revived flow ids are dropped on arrival
//     against stale punctuations and results go missing, on top of
//     the store growing with every distinct id ever punctuated.
//
// Build & run:  ./build/examples/network_monitoring

#include <cstdio>

#include "util/logging.h"

#include "exec/plan_executor.h"
#include "exec/query_register.h"
#include "workload/network.h"

using namespace punctsafe;

namespace {

struct RunStats {
  uint64_t results;
  size_t tuple_high_water;
  size_t punct_live;
  size_t punct_high_water;
  uint64_t punct_expired;
};

RunStats Run(const Trace& trace, std::optional<int64_t> lifespan) {
  QueryRegister reg;
  PUNCTSAFE_CHECK_OK(NetworkWorkload::Setup(&reg));
  ExecutorConfig config;
  config.mjoin.punctuation_lifespan = lifespan;
  auto rq = reg.Register(NetworkWorkload::QueryStreams(),
                         NetworkWorkload::QueryPredicates(), config);
  PUNCTSAFE_CHECK_OK(rq.status());
  PUNCTSAFE_CHECK_OK(FeedTrace(rq->executor.get(), trace));
  uint64_t expired = 0;
  for (const auto& op : rq->executor->operators()) {
    expired += op->metrics().punctuations_expired;
  }
  return {rq->executor->num_results(), rq->executor->tuple_high_water(),
          rq->executor->TotalLivePunctuations(),
          rq->executor->punctuation_high_water(), expired};
}

}  // namespace

int main() {
  std::printf("== punctsafe example: network monitoring with lifespans ==\n\n");

  NetworkConfig config;
  config.num_flows = 2000;
  config.packets_per_flow = 6;
  config.id_space = 64;  // ids recycle ~30x over the run
  Trace trace = NetworkWorkload::Generate(config);
  int64_t lifespan = NetworkWorkload::RecommendedLifespan(config);
  std::printf("trace: %zu events, %zu flows over a %zu-id space "
              "(recommended lifespan: %lld ticks)\n\n",
              trace.size(), config.num_flows, config.id_space,
              static_cast<long long>(lifespan));

  RunStats with = Run(trace, lifespan);
  RunStats without = Run(trace, std::nullopt);

  std::printf("%-28s %15s %15s\n", "", "with lifespan", "keep forever");
  std::printf("%-28s %15llu %15llu\n", "join results",
              static_cast<unsigned long long>(with.results),
              static_cast<unsigned long long>(without.results));
  std::printf("%-28s %15zu %15zu\n", "tuple state high water",
              with.tuple_high_water, without.tuple_high_water);
  std::printf("%-28s %15zu %15zu\n", "punctuations live (end)",
              with.punct_live, without.punct_live);
  std::printf("%-28s %15zu %15zu\n", "punctuations high water",
              with.punct_high_water, without.punct_high_water);
  std::printf("%-28s %15llu %15llu\n", "punctuations expired",
              static_cast<unsigned long long>(with.punct_expired),
              static_cast<unsigned long long>(without.punct_expired));

  std::printf(
      "\nThe forever store lost %.1f%% of the results: a punctuation\n"
      "that outlives its identifier's validity window wrongly excludes\n"
      "the id's next incarnation — exactly the Section 5.1 hazard that\n"
      "motivates lifespans (TCP sequence numbers wrap ~every 4.55 h).\n"
      "With the recommended lifespan the answer is complete and the\n"
      "punctuation store stays bounded by the ids in flight instead of\n"
      "every id ever punctuated.\n",
      100.0 * (1.0 - static_cast<double>(without.results) /
                         static_cast<double>(with.results)));
  return 0;
}
