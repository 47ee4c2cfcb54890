// Sensor dashboard: multi-attribute punctuation schemes in action
// (paper Section 4.2 / Figures 8-10).
//
// The 3-way sensor query closes state per (sensor_id, epoch) pair.
// The simple punctuation graph (Definition 7) cannot see pair schemes
// and calls the query unsafe; the generalized graph (Definition 8)
// proves it safe, and the transformed-graph algorithm (Definition 11)
// decides it in two merge rounds. The example prints all three
// verdicts, then runs the workload and reports a per-epoch state
// profile showing the purge actually happening.
//
// Build & run:  ./build/examples/sensor_dashboard

#include <cstdio>

#include "util/logging.h"

#include "core/punctuation_graph.h"
#include "core/transformed_punctuation_graph.h"
#include "exec/plan_executor.h"
#include "exec/query_register.h"
#include "workload/sensor.h"

using namespace punctsafe;

int main() {
  std::printf("== punctsafe example: sensor dashboard ==\n\n");

  QueryRegister reg;
  PUNCTSAFE_CHECK_OK(SensorWorkload::Setup(&reg));
  auto query = ContinuousJoinQuery::Create(reg.catalog(),
                                           SensorWorkload::QueryStreams(),
                                           SensorWorkload::QueryPredicates());
  PUNCTSAFE_CHECK_OK(query.status());
  std::printf("query   : %s\n", query->ToString().c_str());
  std::printf("schemes : %s\n\n", reg.schemes().ToString().c_str());

  PunctuationGraph pg = PunctuationGraph::Build(*query, reg.schemes());
  std::printf("simple punctuation graph (Def 7) : %s -> %s\n",
              pg.ToString(*query).c_str(),
              pg.IsStronglyConnected() ? "strongly connected (safe)"
                                       : "NOT strongly connected");

  TransformedPunctuationGraph tpg =
      TransformedPunctuationGraph::Build(*query, reg.schemes());
  std::printf("transformed graph (Def 11)       : %s -> %s\n\n",
              tpg.ToString(*query).c_str(),
              tpg.CollapsedToSingleNode() ? "single virtual node (safe)"
                                          : "stalled (unsafe)");

  auto rq = reg.Register(SensorWorkload::QueryStreams(),
                         SensorWorkload::QueryPredicates());
  PUNCTSAFE_CHECK_OK(rq.status());

  SensorConfig config;
  config.num_sensors = 24;
  config.num_epochs = 30;
  config.readings_per_sensor_epoch = 4;
  Trace trace = SensorWorkload::Generate(config);

  // Feed epoch by epoch and sample the state level.
  std::printf("per-epoch join-state profile (tuples live after epoch):\n  ");
  size_t events_per_epoch = trace.size() / config.num_epochs;
  size_t fed = 0;
  for (const TraceEvent& event : trace) {
    PUNCTSAFE_CHECK_OK(rq->executor->Push(event));
    if (++fed % events_per_epoch == 0 &&
        fed / events_per_epoch <= config.num_epochs) {
      std::printf("%zu ", rq->executor->TotalLiveTuples());
    }
  }
  std::printf("\n\n");
  std::printf("results emitted      : %llu\n",
              static_cast<unsigned long long>(rq->executor->num_results()));
  std::printf("state high water     : %zu tuples\n",
              rq->executor->tuple_high_water());
  std::printf("final state          : %zu tuples\n",
              rq->executor->TotalLiveTuples());
  std::printf(
      "\nThe profile stays flat at roughly one epoch's volume: the pair\n"
      "punctuations close each (sensor, epoch) and the generalized\n"
      "chained purge drains it, even though no single-attribute\n"
      "punctuation scheme could.\n");
  return 0;
}
