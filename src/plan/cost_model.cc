#include "plan/cost_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/local_graph.h"
#include "util/string_util.h"

namespace punctsafe {

namespace {

struct NodeEstimate {
  LocalInput info;       // streams + schemes on this edge
  double rate = 0;       // output tuples per time unit
  double punct_rate = 0; // punctuations per time unit on this edge
};

struct Accumulators {
  double state = 0;
  double punctuations = 0;
  double work = 0;
};

}  // namespace

std::string PlanCost::ToString() const {
  return StrCat("state=", expected_state, " punct=", expected_punctuations,
                " work/t=", work_per_time, " out-rate=", output_rate);
}

double CostModel::Score(const PlanCost& cost, CostObjective objective) {
  switch (objective) {
    case CostObjective::kMemory:
      return cost.expected_state + cost.expected_punctuations;
    case CostObjective::kThroughput:
      return cost.work_per_time;
    case CostObjective::kBalanced:
      return std::log1p(cost.expected_state + cost.expected_punctuations) +
             std::log1p(cost.work_per_time);
  }
  return 0;
}

namespace {

NodeEstimate EstimateNode(const ContinuousJoinQuery& query,
                          const WorkloadStats& stats,
                          const SchemeSet& schemes, const PlanShape& shape,
                          PurgePolicy policy, size_t lazy_batch,
                          Accumulators* acc) {
  if (shape.IsLeaf()) {
    NodeEstimate est;
    size_t s = shape.stream();
    est.info = LocalInput::Leaf(query, schemes, s);
    est.rate = stats.arrival_rate[s];
    est.punct_rate =
        est.info.schemes.empty() ? 0.0 : stats.punctuation_rate[s];
    return est;
  }

  std::vector<NodeEstimate> children;
  children.reserve(shape.children().size());
  for (const PlanShape& child : shape.children()) {
    children.push_back(EstimateNode(query, stats, schemes, child, policy,
                                    lazy_batch, acc));
  }

  std::vector<LocalInput> inputs;
  inputs.reserve(children.size());
  for (const NodeEstimate& c : children) inputs.push_back(c.info);
  OperatorCheck check = CheckOperator(query, inputs);

  // Per-input purge delay: the chained purge waits for punctuations
  // from the other inputs, so the slowest punctuator dominates.
  // Two state notions per input: the *joinable* state (tuples whose
  // partners are still open — what drives the output rate, independent
  // of purge policy) and the *resident* state (what actually occupies
  // memory; lazy purging keeps closed tuples around for up to a batch).
  const size_t m = children.size();
  std::vector<double> joinable_state(m, 0);
  std::vector<double> resident_state(m, 0);
  const std::vector<bool>& purgeable = check.input_purgeable;
  double punct_rate_total = 0;
  for (size_t k = 0; k < m; ++k) punct_rate_total += children[k].punct_rate;
  for (size_t k = 0; k < m; ++k) {
    double joinable_delay = stats.horizon;
    double resident_delay = stats.horizon;
    if (purgeable[k]) {
      double slowest = std::numeric_limits<double>::infinity();
      for (size_t j = 0; j < m; ++j) {
        if (j == k) continue;
        slowest = std::min(slowest, children[j].punct_rate);
      }
      joinable_delay = (slowest > 0) ? 1.0 / slowest : stats.horizon;
      resident_delay = joinable_delay;
      if (policy == PurgePolicy::kLazy && punct_rate_total > 0) {
        resident_delay +=
            static_cast<double>(lazy_batch) / punct_rate_total;
      } else if (policy == PurgePolicy::kNone) {
        resident_delay = stats.horizon;
      }
    }
    joinable_state[k] =
        children[k].rate * std::min(joinable_delay, stats.horizon);
    resident_state[k] =
        children[k].rate * std::min(resident_delay, stats.horizon);
  }

  // Pairwise selectivity between inputs: product of crossing
  // predicates' selectivities (1.0, i.e. cross product, when none).
  constexpr size_t kOutside = static_cast<size_t>(-1);
  std::vector<size_t> input_of(query.num_streams(), kOutside);
  for (size_t k = 0; k < m; ++k) {
    for (size_t s : inputs[k].streams) input_of[s] = k;
  }
  std::vector<std::vector<double>> sigma(m, std::vector<double>(m, 1.0));
  for (size_t p = 0; p < query.predicates().size(); ++p) {
    const ResolvedPredicate& pred = query.predicates()[p];
    size_t a = input_of[pred.left_stream];
    size_t b = input_of[pred.right_stream];
    if (a == kOutside || b == kOutside || a == b) continue;
    double sel = p < stats.selectivity.size() ? stats.selectivity[p] : 0.01;
    sigma[a][b] *= sel;
    sigma[b][a] *= sel;
  }

  // Output rate: each arrival probes the other *joinable* states.
  double out_rate = 0;
  for (size_t i = 0; i < m; ++i) {
    double fanout = 1.0;
    for (size_t j = 0; j < m; ++j) {
      if (j == i) continue;
      fanout *= std::max(sigma[i][j] * joinable_state[j], 0.0);
    }
    out_rate += children[i].rate * fanout;
  }

  // Accumulate operator costs.
  double op_state = 0;
  for (size_t k = 0; k < m; ++k) op_state += resident_state[k];
  acc->state += op_state;
  acc->punctuations += punct_rate_total * stats.punctuation_retention;
  double arrivals = 0;
  for (size_t k = 0; k < m; ++k) arrivals += children[k].rate;
  double sweep_rate = punct_rate_total;
  if (policy == PurgePolicy::kLazy && lazy_batch > 0) {
    sweep_rate /= static_cast<double>(lazy_batch);
  } else if (policy == PurgePolicy::kNone) {
    sweep_rate = 0;
  }
  acc->work += arrivals + out_rate + sweep_rate * op_state;

  // The edge this operator exposes upward.
  NodeEstimate est;
  est.info = std::move(check.output);
  est.rate = out_rate;
  for (size_t k = 0; k < m; ++k) {
    if (purgeable[k]) est.punct_rate += children[k].punct_rate;
  }
  return est;
}

}  // namespace

Result<PlanCost> CostModel::Estimate(const PlanShape& shape,
                                     const SchemeSet& schemes,
                                     PurgePolicy policy,
                                     size_t lazy_batch) const {
  if (stats_.arrival_rate.size() != query_.num_streams() ||
      stats_.punctuation_rate.size() != query_.num_streams()) {
    return Status::InvalidArgument(
        "WorkloadStats rates must cover every query stream");
  }
  Accumulators acc;
  NodeEstimate root = EstimateNode(query_, stats_, schemes, shape, policy,
                                   lazy_batch, &acc);
  PlanCost cost;
  cost.expected_state = acc.state;
  cost.expected_punctuations = acc.punctuations;
  cost.work_per_time = acc.work;
  cost.output_rate = root.rate;
  return cost;
}

}  // namespace punctsafe
