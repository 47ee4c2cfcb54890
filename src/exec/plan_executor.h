// PlanExecutor: instantiates an execution plan shape as a tree of
// MJoin operators, wires punctuation/result propagation between them,
// and routes raw stream elements to the right leaf inputs. This is
// the "query processor" box of the paper's Figure 2.

#ifndef PUNCTSAFE_EXEC_PLAN_EXECUTOR_H_
#define PUNCTSAFE_EXEC_PLAN_EXECUTOR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/plan_safety.h"
#include "exec/checkpoint.h"
#include "exec/mjoin.h"
#include "exec/tuple_batch.h"
#include "obs/observability.h"
#include "query/cjq.h"
#include "query/plan_shape.h"
#include "stream/element.h"
#include "stream/scheme.h"
#include "util/status.h"

namespace punctsafe {

/// \brief How QueryRegister instantiates an admitted query's plan.
enum class ExecutionMode {
  kSerial,    ///< single-threaded PlanExecutor (the default)
  kParallel,  ///< pipelined ParallelExecutor, one thread per operator
};

struct ExecutorConfig {
  MJoinConfig mjoin;
  /// Retain emitted result tuples (tests/examples; benchmarks count
  /// only).
  bool keep_results = false;
  /// Serial vs pipelined execution (honored by QueryRegister).
  ExecutionMode mode = ExecutionMode::kSerial;
  /// Bounded-queue capacity per operator under kParallel; pushes block
  /// when full (backpressure). Capacity counts messages, and one
  /// message carries a whole batch, so the queue bound scales with
  /// batch_size.
  size_t queue_capacity = 1024;
  /// The unit of batched execution — one knob across the serial,
  /// pipelined, and sharded modes. Consecutive same-stream tuples are
  /// accumulated into a TupleBatch of this capacity and pushed through
  /// the operator tree (and, under kParallel, through the queues) as
  /// one unit; the open batch is flushed before any punctuation is
  /// forwarded, so results from a batch always precede punctuations
  /// that arrived after it. Under kParallel it also sizes the
  /// per-parent-shard result staging (the former hard-coded emit flush
  /// batch of 128). 1 (the default) reproduces tuple-at-a-time
  /// execution exactly; 0 is normalized to 1. Throughput-oriented
  /// setups use 64-256 (bench/bench_hot_path.cc sweeps the knob).
  size_t batch_size = 1;
  /// Under kParallel: shard workers per operator (hash-partitioned
  /// intra-operator parallelism). Each operator whose join predicates
  /// admit an exact partitioning runs as this many single-threaded
  /// shard replicas behind a key-hashing router; punctuations and
  /// drain markers are broadcast to all shards. Operators that cannot
  /// be partitioned exactly (see exec/partition_router.h) fall back to
  /// one shard. 0 is normalized to 1; 1 disables sharding. Total
  /// thread count is (#operators x shards), so size against the
  /// machine's core count.
  size_t shards = 1;
  /// Runtime observability (src/obs/): trace rings + latency /
  /// punctuation-lag / sweep / queue histograms per shard operator.
  /// Off by default — every hook short-circuits on a null pointer —
  /// and compiled out entirely under PUNCTSAFE_NO_OBS.
  obs::ObserveOptions observe;
  /// Automatic punctuation-aligned snapshots (exec/checkpoint.h):
  /// every `interval_punctuations` punctuations, a StateSnapshot is
  /// written to `path` once the triggering cascade has settled (under
  /// kParallel: after a checkpoint barrier drains the pipeline).
  /// Disabled by default; Checkpoint() can always be called manually.
  CheckpointConfig checkpoint;
};

/// \brief Identity string tying a snapshot to (query, plan shape);
/// restore paths refuse a snapshot whose fingerprint differs.
std::string PlanFingerprint(const ContinuousJoinQuery& query,
                            const PlanShape& shape);

class PlanExecutor {
 public:
  /// \brief Builds the operator tree for `shape` over `query`.
  /// Unsafe shapes are built too (their states simply grow); callers
  /// that must not run unsafe plans go through QueryRegister.
  static Result<std::unique_ptr<PlanExecutor>> Create(
      const ContinuousJoinQuery& query, const SchemeSet& schemes,
      const PlanShape& shape, ExecutorConfig config = {});

  /// \brief Routes one trace event by stream name.
  Status Push(const TraceEvent& event);

  /// \brief Routes by query stream index. With batch_size > 1 the
  /// tuple may be buffered in the open ingest batch; it is delivered
  /// at the next flush point (batch full, stream change, punctuation,
  /// SweepAll, or an explicit FlushIngest).
  void PushTuple(size_t stream, const Tuple& tuple, int64_t ts);
  void PushPunctuation(size_t stream, const Punctuation& punctuation,
                       int64_t ts);

  /// \brief Delivers the open ingest batch downstream (no-op when
  /// empty). Call at end of input, and before Checkpoint when pushes
  /// did not end on a punctuation.
  void FlushIngest();

  /// \brief Flushes lazy purge batches across all operators (the open
  /// ingest batch is delivered first).
  void SweepAll(int64_t now);

  /// \brief Captures the executor's complete logical state
  /// (exec/checkpoint.h). Serial execution is quiescent between
  /// pushes, so this is callable at any push boundary; the result is
  /// canonical (sorted), so equal states serialize to equal bytes.
  /// Snapshots are taken at batch boundaries: the ingest buffer must
  /// be empty (checked) — call FlushIngest() first.
  StateSnapshot Checkpoint() const;

  /// \brief Rebuilds executor state from a snapshot. Must be called on
  /// a freshly created executor (same query/schemes/shape/config
  /// structure, nothing pushed); afterwards, resume by replaying each
  /// stream's suffix from `snapshot.progress[s].events_consumed`.
  Status RestoreState(const StateSnapshot& snapshot);

  /// \brief Per-stream consumption positions (for checkpoint replay).
  const std::vector<InputProgress>& progress() const { return progress_; }

  size_t TotalLiveTuples() const;
  size_t TotalLivePunctuations() const;
  /// \brief Max of TotalLiveTuples observed after any push — the
  /// quantity the safety guarantee bounds.
  size_t tuple_high_water() const { return tuple_high_water_; }
  size_t punctuation_high_water() const { return punct_high_water_; }

  uint64_t num_results() const { return num_results_; }
  const std::vector<Tuple>& kept_results() const { return kept_results_; }

  /// \brief Moves out the results retained since the last take
  /// (requires keep_results) — the subscriber-streaming drain of the
  /// ingestion server, which must not hold every result forever.
  /// num_results() stays cumulative. Snapshots taken after a take no
  /// longer carry the drained results.
  std::vector<Tuple> TakeResults() {
    std::vector<Tuple> out = std::move(kept_results_);
    kept_results_.clear();
    return out;
  }

  /// \brief Full observability snapshot (null-safe: returns an empty
  /// snapshot when observability is off). Feed to obs::MetricsExporter
  /// via a lambda.
  obs::ObsSnapshot ObservabilitySnapshot() const;
  /// \brief The observability registry, or nullptr when off.
  obs::Observability* observability() const { return obs_.get(); }

  const PlanSafetyReport& safety() const { return safety_; }
  const ContinuousJoinQuery& query() const { return query_; }
  const PlanShape& shape() const { return shape_; }
  const std::vector<std::unique_ptr<MJoinOperator>>& operators() const {
    return operators_;
  }

 private:
  PlanExecutor() = default;

  void RecordHighWater();
  void NoteProgress(size_t stream, int64_t ts);
  void MaybeAutoCheckpoint();

  ContinuousJoinQuery query_;
  PlanShape shape_;
  ExecutorConfig config_;
  PlanSafetyReport safety_;

  std::vector<std::unique_ptr<MJoinOperator>> operators_;  // post-order
  // Per query stream: the operator and input index consuming it.
  std::vector<std::pair<MJoinOperator*, size_t>> leaf_route_;

  uint64_t num_results_ = 0;
  std::vector<Tuple> kept_results_;
  size_t tuple_high_water_ = 0;
  size_t punct_high_water_ = 0;
  std::vector<InputProgress> progress_;  // per query stream
  size_t punctuations_since_checkpoint_ = 0;
  // Open ingest batch (batch_size > 1 only): consecutive tuples of
  // pending_stream_, delivered as one PushBatch at the next flush
  // point. Storage is recycled across flushes.
  TupleBatch pending_batch_{1};
  size_t pending_stream_ = 0;
  // One OperatorObs per operator (shard 0: serial execution), indexed
  // in step with operators_. Null when observability is off.
  std::unique_ptr<obs::Observability> obs_;
};

/// \brief Pushes a whole trace through an executor in trace order,
/// returning the first error a Push reports (an unknown stream name).
Status FeedTrace(PlanExecutor* executor, const Trace& trace);

}  // namespace punctsafe

#endif  // PUNCTSAFE_EXEC_PLAN_EXECUTOR_H_
