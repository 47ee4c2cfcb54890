// QueryRegister (paper Figure 2): the admission-control component. It
// records stream schemas and punctuation schemes, and admits a CJQ
// only after the Section 4 safety check passes — unsafe queries are
// rejected at registration, before they can consume unbounded memory.

#ifndef PUNCTSAFE_EXEC_QUERY_REGISTER_H_
#define PUNCTSAFE_EXEC_QUERY_REGISTER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/safety_checker.h"
#include "exec/parallel_executor.h"
#include "exec/plan_executor.h"
#include "plan/cost_model.h"
#include "query/cjq.h"
#include "query/plan_shape.h"
#include "stream/catalog.h"
#include "stream/scheme.h"
#include "util/status.h"

namespace punctsafe {

/// \brief An admitted, running continuous join query. Exactly one of
/// `executor` (ExecutionMode::kSerial) / `parallel_executor`
/// (ExecutionMode::kParallel) is set, per the ExecutorConfig's mode.
struct RegisteredQuery {
  ContinuousJoinQuery query;
  SafetyReport safety;
  PlanShape shape;
  std::unique_ptr<PlanExecutor> executor;
  std::unique_ptr<ParallelExecutor> parallel_executor;

  bool is_parallel() const { return parallel_executor != nullptr; }
};

class QueryRegister {
 public:
  QueryRegister() = default;

  /// \brief Seeds the register with an existing catalog (and
  /// optionally a scheme set) — the multi-query server path
  /// (src/server/query_registry.h), where streams are created once at
  /// the server and each registration brings its own schemes.
  explicit QueryRegister(StreamCatalog catalog, SchemeSet schemes = {})
      : catalog_(std::move(catalog)), schemes_(std::move(schemes)) {}

  /// \brief Registers a stream schema.
  Status RegisterStream(const std::string& name, Schema schema) {
    return catalog_.Register(name, std::move(schema));
  }

  /// \brief Records a punctuation scheme (application semantics).
  /// The scheme's stream must be registered and the arity must match.
  Status RegisterScheme(const PunctuationScheme& scheme);

  /// \brief Convenience: scheme by punctuatable attribute names.
  Status RegisterScheme(const std::string& stream,
                        const std::vector<std::string>& attributes);

  /// \brief Admits a CJQ: validates it, runs the safety check, and on
  /// success instantiates an executor.
  ///
  /// Rejected queries return FailedPrecondition carrying the
  /// checker's explanation (which streams can never be purged).
  ///
  /// `shape` defaults to the single MJoin over all streams — the plan
  /// Theorems 2/4 guarantee safe whenever any safe plan exists. A
  /// caller-provided shape is itself safety-checked and rejected if
  /// unsafe (the Figure 7 situation).
  Result<RegisteredQuery> Register(
      const std::vector<std::string>& streams,
      const std::vector<JoinPredicateSpec>& predicates,
      ExecutorConfig config = {},
      std::optional<PlanShape> shape = std::nullopt);

  /// \brief Recovery entry point (exec/checkpoint.h,
  /// docs/RECOVERY.md): registers the query exactly like Register,
  /// then rebuilds the fresh executor's state from the snapshot file
  /// at `path`. The snapshot's CRC-checked sections and plan
  /// fingerprint are validated; a snapshot taken under a different
  /// query/shape is rejected with InvalidArgument. Works for both
  /// execution modes and any shard count — the snapshot format is
  /// mode-agnostic (shard states are merged at capture and re-split at
  /// restore by PartitionSpec::ShardOf, the function that routes live
  /// tuples). Afterwards, resume by replaying each input
  /// stream's suffix from `snapshot progress[s].events_consumed`
  /// (exposed via the executor's progress() accessor).
  Result<RegisteredQuery> Restore(
      const std::string& path, const std::vector<std::string>& streams,
      const std::vector<JoinPredicateSpec>& predicates,
      ExecutorConfig config = {},
      std::optional<PlanShape> shape = std::nullopt);

  /// \brief Like Register, but instead of defaulting to the single
  /// MJoin, enumerates the safe plans and picks the best one under
  /// the workload statistics and objective (paper Section 5.2).
  Result<RegisteredQuery> RegisterWithChooser(
      const std::vector<std::string>& streams,
      const std::vector<JoinPredicateSpec>& predicates,
      const WorkloadStats& stats,
      CostObjective objective = CostObjective::kBalanced,
      ExecutorConfig config = {});

  const StreamCatalog& catalog() const { return catalog_; }
  const SchemeSet& schemes() const { return schemes_; }

 private:
  StreamCatalog catalog_;
  SchemeSet schemes_;
};

}  // namespace punctsafe

#endif  // PUNCTSAFE_EXEC_QUERY_REGISTER_H_
