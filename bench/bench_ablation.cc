// Experiment E13 (ablation): the one remaining MJoinConfig design
// choice on the auction workload — punctuation purgeability (§5.1
// retirement of obsolete punctuations) off (the default) and on. It
// changes memory/throughput, never results. Drop-on-arrival of tuples
// a stored punctuation excludes is always on, and a single-operator
// plan's root propagates no punctuations (no parent reads them).

#include "bench_util.h"
#include "workload/auction.h"

namespace punctsafe {
namespace {

void BM_Ablation(benchmark::State& state) {
  AuctionConfig config;
  config.num_items = 1500;
  config.bids_per_item = 8;
  config.max_open = 48;
  // Bids often arrive after the item punctuation: drop-on-arrival has
  // something to do.
  Trace trace = AuctionWorkload::Generate(config);

  QueryRegister reg;
  PUNCTSAFE_CHECK_OK(AuctionWorkload::Setup(&reg));
  auto q = ContinuousJoinQuery::Create(reg.catalog(),
                                       AuctionWorkload::QueryStreams(),
                                       AuctionWorkload::QueryPredicates());
  PUNCTSAFE_CHECK_OK(q.status());

  ExecutorConfig exec_config;
  exec_config.mjoin.purge_punctuations = state.range(0) != 0;
  bench::RunTraceAndRecord(*q, reg.schemes(), PlanShape::SingleMJoin(2),
                           trace, exec_config, state);

  // Extra counters: how much each mechanism actually did.
  auto exec = PlanExecutor::Create(*q, reg.schemes(),
                                   PlanShape::SingleMJoin(2), exec_config);
  PUNCTSAFE_CHECK_OK(exec.status());
  PUNCTSAFE_CHECK_OK(FeedTrace(exec.ValueOrDie().get(), trace));
  const auto& op = (*exec)->operators().front();
  state.counters["dropped_on_arrival"] = static_cast<double>(
      op->state_metrics(0).dropped_on_arrival +
      op->state_metrics(1).dropped_on_arrival);
  state.counters["punct_retired"] =
      static_cast<double>(op->punctuations_purged());
  state.counters["punct_live_end"] =
      static_cast<double>(op->TotalLivePunctuations());
}
BENCHMARK(BM_Ablation)
    ->ArgNames({"punct_purge"})
    ->Arg(0)   // default configuration
    ->Arg(1);  // + punctuation purgeability

}  // namespace
}  // namespace punctsafe

BENCHMARK_MAIN();
