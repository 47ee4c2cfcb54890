#include "workload/network.h"

#include <algorithm>
#include <optional>

#include "util/rng.h"

namespace punctsafe {

Schema NetworkWorkload::FlowSchema() {
  return Schema({{"flow_id", ValueType::kInt64},
                 {"src_ip", ValueType::kInt64}});
}

Schema NetworkWorkload::PacketSchema() {
  return Schema({{"flow_id", ValueType::kInt64},
                 {"seq", ValueType::kInt64},
                 {"bytes", ValueType::kInt64}});
}

Schema NetworkWorkload::AlertSchema() {
  return Schema({{"src_ip", ValueType::kInt64},
                 {"severity", ValueType::kInt64}});
}

Status NetworkWorkload::Setup(QueryRegister* reg) {
  PUNCTSAFE_RETURN_IF_ERROR(reg->RegisterStream(kFlows, FlowSchema()));
  PUNCTSAFE_RETURN_IF_ERROR(reg->RegisterStream(kPackets, PacketSchema()));
  PUNCTSAFE_RETURN_IF_ERROR(reg->RegisterStream(kAlerts, AlertSchema()));
  PUNCTSAFE_RETURN_IF_ERROR(reg->RegisterScheme(kFlows, {"flow_id"}));
  PUNCTSAFE_RETURN_IF_ERROR(reg->RegisterScheme(kFlows, {"src_ip"}));
  PUNCTSAFE_RETURN_IF_ERROR(reg->RegisterScheme(kPackets, {"flow_id"}));
  PUNCTSAFE_RETURN_IF_ERROR(reg->RegisterScheme(kAlerts, {"src_ip"}));
  return Status::OK();
}

std::vector<std::string> NetworkWorkload::QueryStreams() {
  return {kFlows, kPackets, kAlerts};
}

std::vector<JoinPredicateSpec> NetworkWorkload::QueryPredicates() {
  return {Eq({kFlows, "flow_id"}, {kPackets, "flow_id"}),
          Eq({kFlows, "src_ip"}, {kAlerts, "src_ip"})};
}

int64_t NetworkWorkload::RecommendedLifespan(const NetworkConfig& config) {
  // A flow id recurs after ~id_space flow completions; one completion
  // takes ~(packets_per_flow + 4) trace events. Half the reuse period
  // leaves slack on both sides — and the generator *enforces* this
  // value: an id only re-enters circulation once the lifespan has
  // elapsed since its end-of-flow punctuation (the analogue of TCP
  // waiting out the sequence-number wrap).
  return static_cast<int64_t>(config.id_space *
                              (config.packets_per_flow + 4) / 2);
}

Trace NetworkWorkload::Generate(const NetworkConfig& config) {
  Rng rng(config.seed);
  Trace trace;
  const int64_t lifespan = RecommendedLifespan(config);

  struct OpenFlow {
    int64_t flow_id;
    int64_t src_ip;
    size_t packets_remaining;
    int64_t next_seq;
  };
  std::vector<OpenFlow> open;
  size_t flows_emitted = 0;
  int64_t now = 0;

  // Recycled id pool: an id re-enters circulation only after its
  // quarantine (close time + lifespan) has passed.
  struct PooledId {
    int64_t id;
    int64_t available_at;
  };
  std::vector<PooledId> id_pool;
  for (size_t i = 0; i < config.id_space; ++i) {
    id_pool.push_back({static_cast<int64_t>(i), 0});
  }

  // Source quarantine: a source punctuated as quiescent opens no flow
  // (so raises no alert) for a lifespan.
  std::vector<int64_t> src_available_at(config.ip_space, 0);
  auto any_src_available = [&]() {
    return std::any_of(src_available_at.begin(), src_available_at.end(),
                       [&](int64_t at) { return at <= now; });
  };

  auto src_still_open = [&](int64_t src) {
    return std::any_of(open.begin(), open.end(),
                       [&](const OpenFlow& f) { return f.src_ip == src; });
  };

  auto take_available_id = [&]() -> std::optional<int64_t> {
    for (size_t i = 0; i < id_pool.size(); ++i) {
      if (id_pool[i].available_at <= now) {
        int64_t id = id_pool[i].id;
        id_pool.erase(id_pool.begin() + static_cast<long>(i));
        return id;
      }
    }
    return std::nullopt;
  };

  auto open_flow = [&](int64_t flow_id) {
    int64_t src;  // uniform over the available sources (one is)
    do {
      src = rng.NextInRange(0, static_cast<int64_t>(config.ip_space) - 1);
    } while (src_available_at[src] > now);
    trace.push_back({kFlows, StreamElement::OfTuple(
                                 Tuple({Value(flow_id), Value(src)}), ++now)});
    // This use of flow_id is unique until the id recycles: punctuate
    // it on the flow stream (consumers must respect the lifespan).
    trace.push_back({kFlows, StreamElement::OfPunctuation(
                                 Punctuation::OfConstants(
                                     2, {{0, Value(flow_id)}}),
                                 ++now)});
    open.push_back({flow_id, src, config.packets_per_flow, 0});
    ++flows_emitted;
  };

  auto close_flow = [&](size_t idx) {
    OpenFlow f = open[idx];
    open.erase(open.begin() + static_cast<long>(idx));
    id_pool.push_back({f.flow_id, now + lifespan});
    if (rng.NextBool(config.alert_rate)) {
      trace.push_back(
          {kAlerts, StreamElement::OfTuple(
                        Tuple({Value(f.src_ip), Value(rng.NextInRange(1, 5))}),
                        ++now)});
    }
    // End of flow: no more packets for this id (until recycled).
    trace.push_back({kPackets, StreamElement::OfPunctuation(
                                   Punctuation::OfConstants(
                                       3, {{0, Value(f.flow_id)}}),
                                   ++now)});
    if (!src_still_open(f.src_ip)) {
      // Source quiescent: no further flows or alerts from it within
      // the lifespan window.
      trace.push_back({kFlows, StreamElement::OfPunctuation(
                                   Punctuation::OfConstants(
                                       2, {{1, Value(f.src_ip)}}),
                                   ++now)});
      trace.push_back({kAlerts, StreamElement::OfPunctuation(
                                    Punctuation::OfConstants(
                                        2, {{0, Value(f.src_ip)}}),
                                    ++now)});
      src_available_at[f.src_ip] = now + lifespan;
    }
  };

  while (flows_emitted < config.num_flows || !open.empty()) {
    while (open.size() < config.max_open_flows &&
           flows_emitted < config.num_flows &&
           open.size() < config.id_space / 2 && any_src_available()) {
      auto id = take_available_id();
      if (!id.has_value()) break;  // all ids quarantined; drain first
      open_flow(*id);
    }
    if (open.empty()) {
      if (flows_emitted < config.num_flows) {
        // Everything quarantined: let time pass until ids and sources free.
        ++now;
        continue;
      }
      break;
    }
    size_t idx = static_cast<size_t>(rng.NextBelow(open.size()));
    OpenFlow& f = open[idx];
    trace.push_back(
        {kPackets,
         StreamElement::OfTuple(Tuple({Value(f.flow_id), Value(f.next_seq++),
                                       Value(rng.NextInRange(40, 1500))}),
                                ++now)});
    if (--f.packets_remaining == 0) close_flow(idx);
  }
  return trace;
}

}  // namespace punctsafe
