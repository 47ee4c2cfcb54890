// Network monitoring: a 3-way correlation with recycled identifiers
// and punctuation lifespans (paper Section 5.1).
//
//   flows ⋈ packets on flow_id,  flows ⋈ alerts on src_ip
//
// Flow ids recycle (like TCP sequence numbers wrapping every ~4.55 h),
// so "no more packets for flow 17" cannot mean *forever*. The example
// runs the same trace through two executors, and neither gives the
// right answer (EXPERIMENTS.md E10 counted 54,486 epoch-correct
// results on this 2,000-flow trace):
//   * one whose punctuation stores use the recommended lifespan
//     returns 680,478: a flow whose id promises expire before its
//     source goes quiet can never be purged, and its tuples join the
//     next use of the recycled id;
//   * one that keeps punctuations until retirement returns 26,560: a
//     recycled id's tuples are dropped on arrival as promise-breakers
//     while an old flow still waits on its source.
// ROADMAP.md's recycled-identifier item (promise epochs) is the
// planned fix.
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

  std::printf("%-28s %15s %15s\n", "", "with lifespan", "until retired");
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
      "\nNeither answer is right: EXPERIMENTS.md E10 counted 54,486\n"
      "epoch-correct results on this trace. With the lifespan, a flow\n"
      "whose id promises expire before its source goes quiet can never\n"
      "be purged and joins the next use of the recycled id (too many\n"
      "results, tuples left live). Kept until retirement, a recycled\n"
      "id's tuples are dropped as promise-breakers while an old flow\n"
      "still waits on its source (too few). ROADMAP.md's recycled-\n"
      "identifier item replaces lifespans with promise epochs.\n");
  return 0;
}
