// Network-monitoring workload (paper Sections 1 and 5.1): a 3-way
// correlation between flow records, per-flow packet summaries and
// per-source alerts,
//
//   flows(flow_id, src_ip)  ⋈ flow_id  packets(flow_id, seq, bytes)
//   flows(flow_id, src_ip)  ⋈ src_ip   alerts(src_ip, severity)
//
// with punctuations at end-of-flow on the packet and flow streams and
// per-source punctuations on the alert stream.
//
// The Section 5.1 angle: identifier spaces recycle (the paper's TCP
// sequence-number example wraps every ~4.55 hours), so "no more tuples
// with flow_id = f, ever" is unsound — flow ids are reused round-robin
// over `id_space`. Neither punctuation policy answers this workload
// correctly (EXPERIMENTS.md E10, 2,000 flows, epoch-correct count
// 54,486): with RecommendedLifespan the run returns 680,478 results,
// because a flow whose id promises expire before its source goes quiet
// can never be purged and joins the next use of the id; keeping
// punctuations until retirement returns 26,560, because a recycled id's
// tuples are dropped as promise-breakers while an old flow still waits
// on its source. ROADMAP.md's recycled-identifier item (promise epochs)
// is the planned fix.

#ifndef PUNCTSAFE_WORKLOAD_NETWORK_H_
#define PUNCTSAFE_WORKLOAD_NETWORK_H_

#include <string>
#include <vector>

#include "exec/query_register.h"
#include "query/predicate.h"
#include "stream/element.h"

namespace punctsafe {

struct NetworkConfig {
  size_t num_flows = 500;
  size_t packets_per_flow = 6;
  size_t max_open_flows = 24;
  /// Flow-id space size; ids are reused round-robin, so a given id
  /// recurs roughly every `id_space` flow openings.
  size_t id_space = 64;
  size_t ip_space = 16;
  /// Probability a closing flow also triggers an alert first.
  double alert_rate = 0.3;
  uint64_t seed = 7;
};

class NetworkWorkload {
 public:
  static constexpr const char* kFlows = "flows";
  static constexpr const char* kPackets = "packets";
  static constexpr const char* kAlerts = "alerts";

  static Schema FlowSchema();
  static Schema PacketSchema();
  static Schema AlertSchema();

  /// \brief Registers streams and schemes: flows(+, _), packets(+,
  /// _, _), alerts(+, _).
  static Status Setup(QueryRegister* reg);

  static std::vector<std::string> QueryStreams();
  static std::vector<JoinPredicateSpec> QueryPredicates();

  /// \brief Ticks between two uses of the same flow id — the sound
  /// punctuation lifespan for this trace (analogous to the 4.55 h TCP
  /// wrap period). The generator honours every punctuation of every
  /// stream for this long: flow ids and quiescent sources are both
  /// quarantined.
  static int64_t RecommendedLifespan(const NetworkConfig& config);

  static Trace Generate(const NetworkConfig& config);
};

}  // namespace punctsafe

#endif  // PUNCTSAFE_WORKLOAD_NETWORK_H_
