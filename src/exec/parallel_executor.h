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
//    one shard; punctuations and drain markers are *broadcast* to all
//    shards (serialized per group so every shard sees the same
//    punctuation order), so chained purge fires shard-locally against
//    full punctuation stores and drains stay a quiescence barrier;
//  * per-edge FIFO — elements from one producer are consumed in
//    production order per shard, so a punctuation never overtakes the
//    tuples it covers on any shard's queue;
//  * output merge — shard result tuples are staged in per-parent-shard
//    TupleBatches and flushed as one queue message per batch once
//    ExecutorConfig::batch_size rows are staged (first-class batch
//    hand-off: one queue op moves the whole batch); a shard's output
//    punctuation first flushes that shard's staged tuples, then passes
//    a per-group PunctuationAligner and is forwarded only once every
//    shard of the group has emitted it (another shard may still hold
//    matching tuples), which preserves the propagation contract
//    downstream;
//  * best-effort timestamp merge — each shard worker drains its queue
//    into per-input reorder buffers and delivers buffered elements in
//    ascending timestamp order (ties: lowest input), which keeps
//    purges timely without risking cross-input deadlock;
//  * confluence — symmetric joins emit each matching combination
//    exactly once regardless of interleaving, partitioning puts every
//    joinable combination on one shard exactly once, and chained
//    purge removability is monotone in punctuation knowledge, so
//    after Drain() the result multiset and the final join state equal
//    the serial executor's at every shard count
//    (tests/parallel_differential_test.cc checks this over randomized
//    queries and traces; tests/partition_purge_test.cc pins the
//    broadcast-purge equivalence directly).
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
///    discarded — docs/RECOVERY.md);
///  * kMigrate    — nothing: pure quiescence like kCheckpoint, but
///    broadcast by the rebalancer. With every worker parked, the
///    driver captures + merges the group's shard states, installs a
///    new ShardMap assignment, re-splits the merged state under it
///    into fresh operator replicas, then runs a kRecheck barrier so
///    aligner votes are rebuilt (docs/CONCURRENCY.md, "Rebalancing
///    and the migration marker").
enum class PipelineMarker : uint8_t {
  kNone = 0,
  kDrain = 1,
  kCheckpoint = 2,
  kRecheck = 3,
  kMigrate = 4,
};

struct OpMessage;

class ParallelExecutor {
 public:
  /// \brief Per logical operator: the shard layout plus per-shard and
  /// aggregated state accounting, so state-boundedness claims stay
  /// checkable operator-by-operator under partitioning.
  struct OperatorGroupSnapshot {
    size_t num_shards = 1;  ///< allocated shard workers
    bool partitioned = false;       ///< spec admitted > 1 shard
    std::string partition_detail;   ///< chosen key class / fallback reason
    /// Summed over the group's shards and inputs (high_water is the
    /// sum of per-shard marks — an upper bound of the joint peak).
    StateMetricsSnapshot aggregate;
    std::vector<size_t> shard_live;        ///< live tuples per shard
    std::vector<size_t> shard_high_water;  ///< per-shard state high water
    /// Max over shards (each shard stores the full broadcast set, so
    /// the max — not the sum — is the logical operator's count).
    size_t punctuations_live = 0;
    /// Shards the current ShardMap routes to (<= num_shards; the rest
    /// are allocated-but-idle elasticity headroom).
    size_t active_shards = 1;
    /// ShardMap::version() — how many migrations this group has seen.
    uint64_t shard_map_version = 0;
    /// Cumulative tuples routed / queue-stall events per shard worker
    /// (populated only while ExecutorConfig::rebalance.enabled tracks
    /// routing pressure; empty otherwise).
    std::vector<uint64_t> shard_routed;
    std::vector<uint64_t> shard_stalls;
    /// max/mean of shard_routed over the active shards (1.0 when
    /// untracked or unloaded) — the rebalance trigger signal.
    double skew = 1.0;
  };

  /// \brief Builds the operator tree and starts shards x operators
  /// workers. Mirrors PlanExecutor::Create (unsafe shapes build too).
  static Result<std::unique_ptr<ParallelExecutor>> Create(
      const ContinuousJoinQuery& query, const SchemeSet& schemes,
      const PlanShape& shape, ExecutorConfig config = {});

  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  /// \brief Routes one trace event by stream name (blocks on a full
  /// leaf queue — backpressure to the source). With batch_size > 1,
  /// consecutive same-stream tuples are accumulated driver-side into a
  /// TupleBatch that is scattered into per-shard sub-batches in a
  /// single pass and enqueued as one message per shard; the open batch
  /// is flushed before any punctuation or barrier goes in.
  Status Push(const TraceEvent& event);

  /// \brief Routes by query stream index.
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
  /// re-routed to shards via each group's ShardMap over the partition
  /// key hash (the split inverse of the snapshot merge, and the same
  /// route live tuples take); punctuation stores and
  /// pending propagations are replicated to every shard (broadcast
  /// state). A kRecheck barrier then runs on the worker threads so
  /// already-clear shards re-emit pending punctuations to the aligner.
  /// Afterwards, resume by replaying each stream's suffix from
  /// `snapshot.progress[s].events_consumed`.
  Status RestoreState(const StateSnapshot& snapshot);

  /// \brief Forces one rebalance pass now (driver thread only): for
  /// every partitioned group, computes a fresh greedy-LPT ShardMap
  /// assignment from the routed-load counters accumulated since the
  /// last pass and — when it differs from the installed map — runs a
  /// punctuation-aligned migration (kMigrate barrier, capture + merge
  /// + re-split under the new map, kRecheck). Requires
  /// ExecutorConfig::rebalance.enabled (the load counters otherwise
  /// do not exist). A no-op pass (no group's assignment changed)
  /// returns OK without migrating.
  Status RebalanceNow(int64_t now);

  /// \brief Elastic resize (driver thread only): re-routes every
  /// partitioned group onto `active` shards (clamped to [1, allocated
  /// workers]) via the same migration protocol. Growing activates
  /// idle pre-allocated workers; shrinking drains their state into
  /// the survivors. Requires rebalance.enabled.
  Status ResizeShards(size_t active, int64_t now);

  /// \brief Completed punctuation-aligned migrations (group x pass).
  uint64_t rebalance_migrations() const {
    return rebalance_migrations_.load(std::memory_order_relaxed);
  }
  /// \brief Tuples whose owning shard changed across all migrations.
  uint64_t rebalance_tuples_moved() const {
    return rebalance_tuples_moved_.load(std::memory_order_relaxed);
  }

  /// \brief Per-stream consumption positions (driver thread only;
  /// exact counts of successful pushes, for checkpoint replay).
  const std::vector<InputProgress>& progress() const { return progress_; }

  size_t TotalLiveTuples() const;
  /// \brief Logical count: per operator group the max over shards
  /// (punctuations are broadcast, so every shard holds the full set).
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
  /// shards); punctuation-store sizes are replicated per shard — use
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
  void Deliver(Worker& worker, const OpMessage& message);
  void ProcessPending(Worker& worker);
  void SampleHighWater();
  /// Child group `group_idx`, shard `shard` emitted `element`.
  void EmitFromShard(size_t group_idx, size_t shard,
                     const StreamElement& element);
  /// Batch-granular flavor of EmitFromShard (tuples only — operators
  /// never batch punctuations): the whole staged result batch is
  /// routed/staged in one call. Root results take one atomic add and
  /// one results_mu_ section for the batch; the rows are views over
  /// operator scratch, so everything kept is copied before return.
  void EmitBatchFromShard(size_t group_idx, size_t shard, TupleBatch& batch);
  /// Pushes the worker's staged result tuples into the parent group's
  /// shard queues (one batched PushAll per non-empty buffer). Runs on
  /// the worker's own thread; no-op when nothing is staged.
  void FlushEmits(Worker& worker);
  /// Tuple -> one shard by hash. Returns false iff stopped.
  bool RouteTuple(OpGroup& group, size_t input, const StreamElement& element);
  /// Punctuation/drain -> every shard, serialized per group so all
  /// shards observe the same punctuation order. False iff stopped.
  bool Broadcast(OpGroup& group, size_t input, const StreamElement& element);
  /// The shared leaves-first barrier handshake behind Drain /
  /// Checkpoint / restore-recheck (see PipelineMarker). Flushes the
  /// open ingest batch first.
  Status BarrierAll(PipelineMarker marker, int64_t now);
  void NoteProgress(size_t stream, int64_t ts);
  void MaybeAutoCheckpoint(int64_t ts);
  /// Rebalance controller tick (driver thread, punctuation path):
  /// every rebalance.interval_punctuations punctuations, check each
  /// partitioned group's routed-load skew since the last check and
  /// migrate the groups that exceed rebalance.skew_threshold (plus
  /// auto-grow on queue-stall pressure when configured).
  void MaybeRebalance(int64_t ts);
  /// One rebalance pass shared by MaybeRebalance / RebalanceNow /
  /// ResizeShards. `target_active` == 0 keeps each group's current
  /// active count; `force` migrates even below the skew threshold
  /// (explicit calls), otherwise the per-group trigger applies.
  Status RebalancePass(int64_t now, size_t target_active, bool force);
  /// Migrates one quiesced group onto (assignment, active): capture +
  /// merge all allocated shards, install the map, re-split into fresh
  /// operator replicas, reset the aligner. Caller holds the kMigrate
  /// barrier and runs the kRecheck barrier afterwards.
  Status MigrateGroup(size_t group_idx, std::vector<uint32_t> assignment,
                      size_t active);
  /// Splits `logical` across the group's shards under its current
  /// ShardMap and restores each piece into the group's (freshly
  /// created) shard operators. Shared by RestoreState and migration.
  Status RestoreGroupFromLogical(OpGroup& group,
                                 const OperatorStateSnapshot& logical);
  /// Tuple -> shard under the group's ShardMap, bumping the group's
  /// per-slot load counter when rebalance tracking is on.
  size_t RouteShard(OpGroup& group, size_t input, const Tuple& tuple);
  /// Worker-side routing-pressure accounting (routed count + racy
  /// full-queue stall heuristic); no-op unless rebalance tracking is
  /// on.
  void NotePressure(Worker& target, uint64_t routed);
  /// Delivers the driver-side ingest batch: scatter into per-shard
  /// sub-batches (one pass), one queue message per non-empty shard.
  /// False iff stopped. No-op (true) when empty.
  bool FlushIngest();
  /// One scattered sub-batch -> one message on `shard`'s queue
  /// (batches of one ride as legacy per-tuple messages, so
  /// batch_size == 1 reproduces tuple-at-a-time execution exactly).
  bool PushIngestBatch(OpGroup& group, size_t shard, size_t input,
                       TupleBatch* batch);

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
  // single-threaded): per-stream positions and the auto-checkpoint
  // punctuation counter.
  std::vector<InputProgress> progress_;
  size_t punctuations_since_checkpoint_ = 0;
  size_t punctuations_since_rebalance_ = 0;
  // True when ExecutorConfig::rebalance.enabled: per-worker routed /
  // stall counters and per-slot load counters are maintained.
  bool track_pressure_ = false;
  std::atomic<uint64_t> rebalance_migrations_{0};
  std::atomic<uint64_t> rebalance_tuples_moved_{0};
  // Driver-side ingest batching (batch_size > 1 only): the open batch
  // of consecutive ingest_stream_ tuples, plus the recycled per-shard
  // scatter buffers FlushIngest fills (see partition_router.h,
  // ScatterBatch).
  TupleBatch ingest_batch_{1};
  size_t ingest_stream_ = 0;
  std::vector<TupleBatch> scatter_scratch_;
  // One OperatorObs per shard worker, indexed in step with workers_.
  // Null when observability is off.
  std::unique_ptr<obs::Observability> obs_;
};

/// \brief Convenience: pushes a whole trace, then drains at the last
/// timestamp (mirrors FeedTrace for the serial executor).
Status FeedTraceParallel(ParallelExecutor* executor, const Trace& trace);

}  // namespace punctsafe

#endif  // PUNCTSAFE_EXEC_PARALLEL_EXECUTOR_H_
