// ParallelExecutor: the pipelined + partitioned counterpart of
// PlanExecutor. Every MJoin operator of the plan tree runs as a group
// of K single-threaded shard workers (K = ExecutorConfig::shards when
// the operator's predicates admit an exact partitioning, else 1; see
// exec/partition_router.h). Edges are bounded MPSC queues per shard,
// so a fast producer blocks once the consumer's queue fills
// (backpressure) instead of buffering unboundedly — the engine-level
// analogue of the paper's bounded-state guarantee.
//
// Routing model (docs/CONCURRENCY.md has the full argument):
//  * tuples hash on the operator's partition-key attribute to exactly
//    one shard; a punctuation that pins its input's key attribute to c
//    goes to ShardOf(c) only, while punctuations that leave the key
//    open and drain markers are *broadcast* to all shards (serialized
//    per group so every shard sees the same punctuation order). Every
//    shard thus holds every promise that can touch its key slice, so
//    chained purge fires shard-locally exactly as it would unsharded
//    (a shard retires only values none of its live tuples carries)
//    and drains stay a quiescence barrier; the same rule routes
//    punctuations forwarded between groups and the restore re-split;
//  * ingest — the driver stages each tuple, of any stream, in its
//    shard's buffer in arrival order; a key-routed punctuation rides in
//    the same buffer behind the tuples it may cover. A buffer ships as
//    one queue message as soon as that shard's worker is parked on an
//    empty queue, else once it holds batch_size items, before a
//    broadcast punctuation into its group, and before a barrier; a
//    stream change ships nothing. The one hold: an item whose shard was
//    busy when it was staged waits for the next call. Shipped buffers
//    come back through the destination worker's free list;
//  * per-edge FIFO — elements from one producer are consumed in
//    production order per shard, so a punctuation never overtakes the
//    tuples it covers on any shard's queue;
//  * output merge — shard result tuples are staged in per-parent-shard
//    buffers (the same recycled transport) and flushed as one queue
//    message per buffer once ExecutorConfig::batch_size rows are
//    staged; a shard's output
//    punctuation first flushes that shard's staged tuples, then passes
//    a per-group PunctuationAligner and is forwarded only once every
//    shard that can still hold matching tuples has emitted it (the key
//    owner alone for a key-pinned punctuation, else all of them),
//    which preserves the propagation contract downstream;
//  * best-effort timestamp merge — each shard worker drains its queue
//    into reorder lanes (one per child-fed input, one shared by the
//    driver-fed inputs, whose buffers are already in arrival order) and
//    delivers buffered messages in ascending timestamp order (ties:
//    lowest lane), which keeps purges timely without risking
//    cross-input deadlock;
//  * confluence — symmetric joins emit each matching combination
//    exactly once regardless of interleaving, partitioning puts every
//    joinable combination on one shard exactly once, and chained
//    purge removability is monotone in punctuation knowledge, so
//    after Drain() the result multiset and the final join state equal
//    the serial executor's at every shard count
//    (tests/parallel_differential_test.cc checks this over randomized
//    queries and traces; tests/partition_purge_test.cc pins the
//    purge equivalence and the punctuation routing directly).
//
// Thread contract: one external driver thread calls
// Push*/Drain/Stop. Metric accessors are safe from any thread at any
// time (relaxed atomics); they are exact once Drain() has returned
// and no further pushes have been issued.

#ifndef PUNCTSAFE_EXEC_PARALLEL_EXECUTOR_H_
#define PUNCTSAFE_EXEC_PARALLEL_EXECUTOR_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/plan_safety.h"
#include "exec/metrics.h"
#include "exec/mjoin.h"
#include "exec/partition_router.h"
#include "exec/plan_executor.h"
#include "obs/observability.h"
#include "query/cjq.h"
#include "query/plan_shape.h"
#include "stream/element.h"
#include "stream/scheme.h"
#include "util/status.h"

namespace punctsafe {

/// \brief Marker kinds broadcast through the shard queues as barrier
/// messages. All of them use the same leaves-first handshake (the
/// drain protocol); they differ only in what the worker runs before
/// acking:
///  * kDrain      — purge sweep at the marker timestamp (Drain);
///  * kCheckpoint — nothing: pure quiescence, so the driver can
///    capture a consistent snapshot (Checkpoint);
///  * kRecheck    — re-evaluate pending punctuation propagations
///    (RestoreState phase 2: shards whose state is already clear
///    re-emit to the aligner, reconstructing votes a crash
///    discarded — docs/RECOVERY.md).
enum class PipelineMarker : uint8_t {
  kNone = 0,
  kDrain = 1,
  kCheckpoint = 2,
  kRecheck = 3,
};

struct OpMessage;
struct ShardBuffer;

class ParallelExecutor {
 public:
  /// \brief Per logical operator: the shard layout plus per-shard and
  /// aggregated state accounting, so state-boundedness claims stay
  /// checkable operator-by-operator under partitioning.
  struct OperatorGroupSnapshot {
    size_t num_shards = 1;  ///< shard workers
    bool partitioned = false;       ///< spec admitted > 1 shard
    std::string partition_detail;   ///< chosen key class / fallback reason
    /// Summed over the group's shards and inputs (high_water is the
    /// sum of per-shard marks — an upper bound of the joint peak).
    StateMetricsSnapshot aggregate;
    std::vector<size_t> shard_live;        ///< live tuples per shard
    std::vector<size_t> shard_high_water;  ///< per-shard state high water
    /// Logical count: key-routed punctuations summed over shards (each
    /// lives on one), plus the max over shards of the broadcast ones
    /// (each shard holds the broadcast set minus its retired values).
    size_t punctuations_live = 0;
  };

  /// \brief Builds the operator tree and starts shards x operators
  /// workers. Mirrors PlanExecutor::Create (unsafe shapes build too).
  static Result<std::unique_ptr<ParallelExecutor>> Create(
      const ContinuousJoinQuery& query, const SchemeSet& schemes,
      const PlanShape& shape, ExecutorConfig config = {});

  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  /// \brief Resolves the stream by name and hands the event to
  /// PushTuple or PushPunctuation. NotFound for a stream outside the
  /// query; FailedPrecondition once the executor is stopped.
  Status Push(const TraceEvent& event);

  /// \brief Routes by query stream index (blocks on a full leaf queue
  /// — backpressure to the source). A tuple, or a punctuation routed
  /// to one shard, is staged in that shard's buffer, which ships as one
  /// message at once if the shard's worker is idle, else when it holds
  /// batch_size items, before a broadcast punctuation into its group,
  /// or before a barrier. Each call also ships every staged buffer
  /// whose shard has gone idle. A punctuation that leaves the key open
  /// goes to every shard (see above).
  void PushTuple(size_t stream, const Tuple& tuple, int64_t ts);
  void PushPunctuation(size_t stream, const Punctuation& punctuation,
                       int64_t ts);

  /// \brief Barrier: waits until every queued element has been
  /// processed, then runs a purge sweep at `now` on each shard,
  /// leaves-first (all shards of a group drain before its parent's
  /// markers go in). On return the pipeline is quiescent and all
  /// accessors are exact. The parallel analogue of SweepAll.
  Status Drain(int64_t now);

  /// \brief Stops the workers (closing all queues; undelivered
  /// elements are dropped). Called by the destructor; use Drain first
  /// for a clean shutdown. Idempotent.
  void Stop();

  /// \brief Punctuation-aligned consistent snapshot (exec/checkpoint.h):
  /// broadcasts a kCheckpoint barrier leaves-first (same handshake as
  /// Drain, but without sweeping — a checkpoint must observe state, not
  /// change it), then, with every worker provably quiescent, folds each
  /// group's shard captures into one logical OperatorStateSnapshot via
  /// MergeOperatorSnapshots. Driver thread only.
  Result<StateSnapshot> Checkpoint(int64_t now);

  /// \brief Rebuilds executor state from a snapshot. Must be called on
  /// a freshly created executor before anything is pushed. Tuples are
  /// re-routed to shards by PartitionSpec::ShardOf (the split inverse
  /// of the snapshot merge, and the same route live tuples take);
  /// stored punctuations go to their key's shard or to every shard by
  /// the live routing rule (PartitionSpec::PunctuationShard), a pending
  /// propagation to the shard whose aligner vote it feeds
  /// (PartitionSpec::PendingShard). A kRecheck barrier then runs on
  /// the worker threads so already-clear shards re-emit pending
  /// punctuations to the aligner.
  /// Afterwards, resume by replaying each stream's suffix from
  /// `snapshot.progress[s].events_consumed`.
  Status RestoreState(const StateSnapshot& snapshot);

  /// \brief Per-stream consumption positions (driver thread only;
  /// exact counts of successful pushes, for checkpoint replay).
  const std::vector<InputProgress>& progress() const { return progress_; }

  size_t TotalLiveTuples() const;
  /// \brief Logical count: per operator group, the key-routed
  /// punctuations summed over shards plus the max over shards of the
  /// broadcast ones (OperatorGroupSnapshot::punctuations_live).
  size_t TotalLivePunctuations() const;
  /// \brief Sampled after every delivered element; a lower bound of
  /// the instantaneous global maximum (exact at quiescence).
  size_t tuple_high_water() const {
    return tuple_high_water_.load(std::memory_order_relaxed);
  }
  size_t punctuation_high_water() const {
    return punct_high_water_.load(std::memory_order_relaxed);
  }

  uint64_t num_results() const {
    return num_results_.load(std::memory_order_relaxed);
  }
  /// \brief Copy of the retained results (requires keep_results).
  std::vector<Tuple> kept_results() const;

  /// \brief Moves out the results retained since the last take
  /// (requires keep_results; safe from any thread). The parallel
  /// counterpart of PlanExecutor::TakeResults — results that arrived
  /// by the take are returned exactly once; in-flight results land in
  /// a later take (exact after Drain).
  std::vector<Tuple> TakeResults();

  const PlanSafetyReport& safety() const { return safety_; }
  const ContinuousJoinQuery& query() const { return query_; }
  const PlanShape& shape() const { return shape_; }
  /// \brief All shard operator instances, grouped by logical operator
  /// in post-order (a group's shards are contiguous). With shards=1
  /// this is exactly the plan's operator list. Summing state metrics
  /// over it matches the serial executor (tuples partition across
  /// shards); broadcast punctuations are stored once per shard — use
  /// GroupSnapshots()/TotalLivePunctuations for logical counts.
  const std::vector<std::unique_ptr<MJoinOperator>>& operators() const {
    return operators_;
  }
  /// \brief Number of logical operators (= plan internal nodes).
  size_t num_operator_groups() const { return groups_.size(); }
  /// \brief Per logical operator: shard layout + aggregated metrics.
  std::vector<OperatorGroupSnapshot> GroupSnapshots() const;

  /// \brief Full observability snapshot: one OperatorObsEntry per
  /// shard worker (latency/punct-lag/sweep/queue histograms, routing
  /// and stall counters, aligner gauges) plus executor-level totals.
  /// Empty operator list when observability is off. Safe from any
  /// thread (relaxed-atomic reads; exact at quiescence). Feed to
  /// obs::MetricsExporter via a lambda.
  obs::ObsSnapshot ObservabilitySnapshot() const;
  /// \brief The observability registry, or nullptr when off.
  obs::Observability* observability() const { return obs_.get(); }

 private:
  struct Worker;
  struct OpGroup;

  ParallelExecutor() = default;

  void WorkerLoop(size_t index);
  /// Delivers one message to the worker's operator and, for a buffer,
  /// hands the buffer back to the worker's free list.
  void Deliver(Worker& worker, OpMessage& message);
  void ProcessPending(Worker& worker);
  void SampleHighWater();
  /// Non-root group `group_idx`, shard `shard` emitted the output
  /// punctuation `element`: flush, align across the expected shards,
  /// route into the parent group.
  void EmitFromShard(size_t group_idx, size_t shard,
                     const StreamElement& element);
  /// Shard `shard` of group `group_idx` emitted a result batch — the
  /// one result channel. Interior results are routed and staged into
  /// the parent's shard queues; root results take one atomic add and
  /// one results_mu_ section for the batch. The rows are views over
  /// operator scratch, so everything kept is copied before return.
  void EmitBatchFromShard(size_t group_idx, size_t shard, TupleBatch& batch);
  /// Pushes the worker's staged result tuples into the parent group's
  /// shard queues (one queue Push per non-empty staged buffer, the
  /// whole buffer as one message). Runs on the worker's own thread;
  /// no-op when nothing is staged.
  void FlushEmits(Worker& worker);
  /// A punctuation -> shard `target` of the group, or every shard for
  /// PartitionSpec::kAllShards; serialized per group so all shards
  /// observe the same punctuation order. False iff stopped.
  bool SendPunctuation(OpGroup& group, size_t input,
                       const Punctuation& punctuation, int64_t ts,
                       size_t target);
  /// The shared leaves-first barrier handshake behind Drain /
  /// Checkpoint / restore-recheck (see PipelineMarker). Ships every
  /// staged ingest buffer first.
  Status BarrierAll(PipelineMarker marker, int64_t now);
  void NoteProgress(size_t stream, int64_t ts);
  /// Splits `logical` across the group's shards (SplitOperatorSnapshot
  /// by PartitionSpec::ShardOf) and restores each piece into the
  /// group's (freshly created) shard operators.
  Status RestoreGroupFromLogical(OpGroup& group,
                                 const OperatorStateSnapshot& logical);
  /// Logical live punctuations of one group (see
  /// OperatorGroupSnapshot::punctuations_live).
  size_t GroupLivePunctuations(const OpGroup& group) const;
  /// Worker `w`'s open ingest buffer, taken from its free list when
  /// none is staged.
  ShardBuffer& Stage(size_t w);
  /// Worker `w`'s staged buffer -> one message on its queue, weighing
  /// its item count. False iff stopped.
  bool Ship(size_t w, obs::IngestCause cause);
  /// Ships every staged buffer of workers in [begin, end). False iff
  /// stopped.
  bool ShipStaged(obs::IngestCause cause, size_t begin, size_t end);
  /// Ships every staged buffer of worker w for which cause_of(w) names
  /// a cause (std::optional<obs::IngestCause>). False iff stopped.
  template <typename CauseOf>
  bool ShipStagedWhere(CauseOf cause_of);
  /// Ships every staged buffer that is full or whose worker is idle.
  void ShipReady();

  ContinuousJoinQuery query_;
  PlanShape shape_;
  ExecutorConfig config_;
  PlanSafetyReport safety_;

  // All shard instances, grouped by logical operator in post-order.
  std::vector<std::unique_ptr<MJoinOperator>> operators_;
  std::vector<std::unique_ptr<Worker>> workers_;  // parallel to operators_
  std::vector<std::unique_ptr<OpGroup>> groups_;  // logical, post-order
  // Per query stream: (group index, input index) consuming it.
  std::vector<std::pair<size_t, size_t>> leaf_route_;

  std::atomic<uint64_t> num_results_{0};
  mutable std::mutex results_mu_;
  std::vector<Tuple> kept_results_;
  std::atomic<size_t> tuple_high_water_{0};
  std::atomic<size_t> punct_high_water_{0};
  std::atomic<bool> stopped_{false};
  // Driver-thread-only bookkeeping (the thread contract makes Push*
  // single-threaded): per-stream positions.
  std::vector<InputProgress> progress_;
  // Driver-side ingest staging: per worker (leaf shards only), the
  // open buffer (null when nothing is staged), and the workers holding
  // one.
  std::vector<std::unique_ptr<ShardBuffer>> stage_;
  std::vector<size_t> staged_;
  // One OperatorObs per shard worker, indexed in step with workers_.
  // Null when observability is off.
  std::unique_ptr<obs::Observability> obs_;
};

/// \brief Convenience: pushes a whole trace, then drains at the last
/// timestamp (mirrors FeedTrace for the serial executor).
Status FeedTraceParallel(ParallelExecutor* executor, const Trace& trace);

}  // namespace punctsafe

#endif  // PUNCTSAFE_EXEC_PARALLEL_EXECUTOR_H_
