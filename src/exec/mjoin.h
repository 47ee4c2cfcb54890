// The MJoin operator [Viglas et al. 2003]: a generalized symmetric
// join over n >= 2 inputs, extended with punctuation-driven state
// purging via the paper's chained purge strategy (Sections 3.2 and
// 4.2).
//
// Inputs may be raw streams or sub-plan outputs; each input carries a
// composite row whose layout is the concatenation of its covered
// query streams' schemas in ascending stream order (the operator's
// output uses the same convention over the union of its covers, so
// operators nest without glue).
//
// Runtime behavior per input i:
//  * new tuple  — joined symmetrically against the other states
//    (index-accelerated expansion along the operator's predicate
//    graph), results emitted, tuple inserted; under the eager policy
//    its removability is tested immediately so already-closed arrivals
//    never occupy state ("purging future tuples", Section 5.1).
//  * new punctuation — stored until retirement or its lifespan drops
//    it (see "Punctuation retirement" below); it wakes only
//    the stored tuples whose removability check stalled on a value
//    combination the punctuation closes (the wait index below), and a
//    purge pass runs per policy (eager: now; lazy: every lazy_batch
//    punctuations): woken tuples are re-checked, the removable ones
//    dropped, and each drop wakes the partner tuples whose joinable
//    set it shrank — to a fixpoint. If the punctuation instantiates a
//    propagatable scheme, an output punctuation is emitted once the
//    matching stored tuples are gone (pending until then) — the
//    propagation rule plan trees rely on.
//
// Output channels. Results always leave through EmitBatch (the batch
// emitter, or per element through the element emitter when no batch
// emitter is set). Output punctuations exist only for a parent to
// purge with, so the operator queues and emits them only while an
// element emitter is attached: executors attach one only to operators
// that have a parent, and a plan root keeps no pending propagations.
// A tuple arriving on an input whose own stored punctuations exclude
// it (late, or violating its stream's contract) is dropped on
// arrival.
//
// Punctuation retirement (Section 5.1, "punctuation purgeability").
// The equi-join predicates union the join attributes into classes
// (JoinAttrClasses). A value c of a class is *finished* once every
// member (input, attribute) has promised c and no live tuple of any
// member carries c: then nothing can join on c any more, and every
// stored punctuation constraining a class attribute to c is retired.
// Only two events can finish a value, so only they test it: a
// punctuation's arrival and a tuple's purge. An all-wildcard
// punctuation or a restore schedules one scan at the next purge pass.
// Trade-off: a promise is forgotten once its value finishes, so a
// later tuple violating it is admitted (it joins nothing and stays);
// before the finish such a tuple is dropped on arrival.
//
// Removability of tuple t in input i follows the chained purge plan
// derived from the operator-local generalized punctuation graph
// (core/local_graph.h): walk the plan's steps, at each step verify
// that the joinable-value combinations accumulated so far are all
// excluded by the target input's punctuation store, then extend the
// joinable set T_t[Υ] through the target's state.
//
// Wait index. A check that stalls leaves one blocking key per edge
// that was ready (its sources closed) but not closed: the edge's first
// uncovered value combination. Only two events can make the tuple
// removable later — a punctuation closing that combination, or the
// purge of a partner tuple in a joinable row carrying it — so the
// tuple is parked under (target input, scheme signature, projected
// combination) and under (partner input, partner join value), and is
// re-checked only when one of those fires. A purge pass therefore
// costs what the change can unblock, not O(live) per punctuation.
// Tuples whose check hit kMaxJoinableSet have no key and are re-checked
// on every pass instead.

#ifndef PUNCTSAFE_EXEC_MJOIN_H_
#define PUNCTSAFE_EXEC_MJOIN_H_

#include <compare>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/local_graph.h"
#include "exec/batch_frontier.h"
#include "exec/checkpoint.h"
#include "exec/operator.h"
#include "exec/punctuation_store.h"
#include "exec/tuple_store.h"
#include "query/cjq.h"
#include "util/status.h"

namespace punctsafe {

struct MJoinConfig {
  PurgePolicy purge_policy = PurgePolicy::kEager;
  /// Punctuations between sweeps under the lazy policy.
  size_t lazy_batch = 64;
  /// Lifespan (timestamp units) for stored punctuations, for recycled
  /// identifiers (Section 5.1); nullopt keeps each until it retires
  /// (see the file comment), which one constraining no join attribute
  /// never does.
  std::optional<int64_t> punctuation_lifespan;

  bool operator==(const MJoinConfig&) const = default;
};

class MJoinOperator : public JoinOperator {
 public:
  /// Joinable-set size cap during removability checks; exceeding it
  /// aborts the check conservatively (tuple stays, re-checked on every
  /// purge pass).
  static constexpr size_t kMaxJoinableSet = 4096;
  /// Input-count cap: the removability fixpoint tracks closed inputs
  /// in one 64-bit mask.
  static constexpr size_t kMaxInputs = 64;

  /// \brief Builds an MJoin over `inputs` (>= 2) of `query`.
  ///
  /// `inputs[k].streams` are the query streams covered by input k;
  /// `inputs[k].schemes` the punctuation schemes deliverable on it
  /// (for raw-stream inputs, LocalInput::Leaf). Covers must be
  /// disjoint. Inputs whose operator-local state is not purgeable get
  /// no purge plan: the operator still runs, its state just grows —
  /// exactly the unsafe behavior the safety checker exists to reject,
  /// kept executable for the paper's unbounded-state experiments.
  /// More than kMaxInputs inputs is InvalidArgument.
  static Result<std::unique_ptr<MJoinOperator>> Create(
      const ContinuousJoinQuery& query, std::vector<LocalInput> inputs,
      MJoinConfig config);

  size_t num_inputs() const override { return inputs_.size(); }
  /// A one-row view batch over `tuple` handed to PushBatch.
  void PushTuple(size_t input, const Tuple& tuple, int64_t ts) override;
  /// The one arrival path (PushTuple is a one-row batch of it). The
  /// per-tuple overheads are amortized to the batch boundary: the
  /// punctuation-exclusion scan and the eager removability check are
  /// skipped wholesale when no punctuation can affect them (stores
  /// cannot change mid-batch), and the whole selection is seeded as
  /// one frontier, so every expansion hop (Expand) resolves one index
  /// bucket per same-key run across the batch.
  void PushBatch(size_t input, TupleBatch& batch) override;
  void PushPunctuation(size_t input, const Punctuation& punctuation,
                       int64_t ts) override;
  size_t TotalLiveTuples() const override;
  size_t TotalLivePunctuations() const override;

  /// \brief Per-input join-state metrics.
  const StateMetrics& state_metrics(size_t input) const {
    return states_[input]->metrics();
  }
  /// \brief All inputs' state snapshots summed into one operator-level
  /// view (under partitioned execution, one shard's contribution to
  /// the logical operator's aggregate).
  StateMetricsSnapshot AggregateStateSnapshot() const;
  /// \brief Summed probe-run statistics over all input stores
  /// (TupleStore::ProbeRunStats): the mean same-key run length of the
  /// batched probe path.
  TupleStore::ProbeRunStats ProbeRunStatsTotal() const {
    TupleStore::ProbeRunStats total;
    for (const auto& state : states_) {
      total.rows += state->probe_run_stats().rows;
      total.runs += state->probe_run_stats().runs;
    }
    return total;
  }
  /// \brief Whether input k's state is purgeable (Theorem 3 on the
  /// operator-local generalized graph).
  bool InputPurgeable(size_t input) const {
    return input_purgeable_[input];
  }
  /// \brief The input this operator exposes to a parent: its output
  /// streams and the schemes of its purgeable inputs (CheckOperator).
  const LocalInput& output() const { return output_; }
  /// \brief Output composite width (attribute count).
  size_t output_width() const { return output_width_; }

  /// \brief Runs a purge pass: re-checks every woken tuple (and every
  /// tuple not checked since it arrived), drops the removable ones and
  /// follows the wakes their drops cause, to a fixpoint. Eager purging
  /// runs one per punctuation, lazy purging one per lazy_batch
  /// punctuations; `SweepAll` and `Drain` call it for a final flush.
  void Sweep(int64_t now);

  /// \brief Names, per input, the composite offset of the partition
  /// key a sharded executor routes by (PartitionSpec::hash_offsets).
  /// From then on OperatorMetrics::punctuations_keyed_live counts the
  /// live punctuations pinning it. Call before the first push.
  void SetPartitionKey(std::vector<size_t> key_offsets);

  /// \brief Stored punctuations retired because their join value
  /// finished (see the file comment).
  uint64_t punctuations_purged() const { return punctuations_purged_; }

  /// \brief Captures this operator's logical state for a
  /// punctuation-aligned checkpoint (exec/checkpoint.h): live tuples,
  /// punctuation-store entries with arrivals, pending propagations,
  /// and metric counters. Must run while the operator is quiescent
  /// (between pushes; under the parallel executor, behind a barrier).
  OperatorStateSnapshot CaptureState() const;

  /// \brief Rebuilds the captured state into this operator, which must
  /// be freshly created (same query/inputs/config shape, empty state).
  /// Tuples are re-inserted through the normal path (so indexes and
  /// arena layout rebuild), then the metric counters are overwritten
  /// with their captured values. The wait index is derived state and
  /// is not snapshotted: every restored tuple is queued for the next
  /// purge pass, whose check parks it again. That pass also retires
  /// the restored punctuations whose values are finished here.
  Status RestoreState(const OperatorStateSnapshot& snapshot);

  /// \brief Re-evaluates every pending propagation as if all inputs
  /// had changed. Restore paths call this after state is rebuilt: a
  /// shard that had already reported a punctuation to the alignment
  /// barrier before the snapshot re-emits it, reconstructing the
  /// aligner votes a crash discards (docs/RECOVERY.md). A no-op
  /// without an element emitter (restored entries stay inert).
  void RecheckPropagations(int64_t now);

 private:
  friend class MJoinTestPeer;  // tests/mjoin_test_peer.h

  // A join predicate localized to operator inputs and composite
  // offsets.
  struct LocalPredicate {
    size_t input_a, offset_a;
    size_t input_b, offset_b;
  };
  // One generalized edge in composite-offset space. Removability runs
  // a fixpoint over ALL of these (the chained purge strategy is
  // existential: any instantiated alternative may close an input).
  struct RuntimeEdge {
    size_t target_input = 0;
    std::vector<size_t> target_offsets;  // punctuatable attrs (composite)
    // Per target offset: where the required values come from.
    struct Source {
      size_t input;
      size_t offset;
    };
    std::vector<Source> sources;
    std::vector<size_t> source_inputs;  // sorted, deduplicated
    uint64_t source_mask = 0;           // source_inputs as a bitmask
  };
  struct PendingPropagation {
    size_t input;
    Punctuation punctuation;  // in the input's composite space
  };
  enum class Check { kRemovable, kBlocked, kAborted };
  // A parked tuple. Each park bumps the slot's generation, so entries
  // left under keys of an older check are recognized as stale.
  struct Waiter {
    size_t slot;
    uint32_t input;
    uint32_t gen;
  };
  // A blocking key. A punctuation key names the target input
  // (`owner`), one of its scheme signatures and the hash of the
  // blocking combination projected onto it; a partner key
  // (signature kPartnerKey) names a partner input and the hash of the
  // join value of a partner tuple in a blocking row. Keys are hashes:
  // a collision only causes a spurious re-check.
  static constexpr uint32_t kPartnerKey = static_cast<uint32_t>(-1);
  struct WaitKey {
    uint32_t owner;
    uint32_t signature;
    uint64_t hash;
    auto operator<=>(const WaitKey&) const = default;
  };
  // Blocking key -> parked tuples: intrusive lists in one node pool
  // behind one open-addressing table, so filing and waking allocate
  // only when the pool or the table grows.
  class WaitIndex {
   public:
    void File(const WaitKey& key, const Waiter& waiter);
    /// Calls fn(waiter) for every waiter filed under `key`, then drops
    /// them.
    template <typename Fn>
    void Take(const WaitKey& key, Fn&& fn);
    /// Take over every punctuation key of `owner`.
    template <typename Fn>
    void TakePunctuationKeys(uint32_t owner, Fn&& fn);
    /// Drops the waiters failing `keep`; returns how many remain.
    template <typename Keep>
    size_t Compact(Keep&& keep);
    size_t entries() const { return entries_; }

   private:
    static constexpr uint32_t kNil = static_cast<uint32_t>(-1);
    enum class SlotState : uint8_t { kFree, kUsed, kErased };
    struct Slot {
      WaitKey key{};
      uint32_t head = kNil;
      SlotState state = SlotState::kFree;
    };
    struct Node {
      Waiter waiter;
      uint32_t next;
    };
    static size_t Mix(const WaitKey& key);
    /// Index of key's slot, or npos.
    size_t Find(const WaitKey& key) const;
    /// Calls fn on the list of slot i, frees its nodes, erases it.
    template <typename Fn>
    void TakeSlot(size_t i, Fn&& fn);
    /// Resizes for `live` used slots, dropping erased ones.
    void Rehash(size_t live);

    std::vector<Slot> slots_;  // power-of-two size, at most half used
    std::vector<Node> nodes_;
    uint32_t free_ = kNil;     // free-node list
    size_t used_ = 0;          // kUsed + kErased slots
    size_t live_ = 0;          // kUsed slots
    size_t entries_ = 0;       // filed waiters
  };

  MJoinOperator() = default;

  size_t OffsetOf(size_t input, size_t stream, size_t attr) const;
  /// Extends each partial assignment of `in` through input v's state
  /// into `out` (cleared first), batch-at-a-time: the probe-key hashes
  /// of the whole frontier are gathered into one column, SIMD run
  /// detection resolves one index bucket per same-key run (runs span
  /// source rows, not just one row's children), and the verification
  /// predicates run as a cached-hash prefilter over the (row,
  /// candidate) pair list before exact Value equality touches the
  /// survivors (cross product when no probe predicate applies). `in`
  /// and `out` must be distinct; callers ping-pong the two
  /// per-operator scratch buffers.
  void Expand(size_t v, const BatchFrontier& in, BatchFrontier* out) const;
  /// Compacts the (pair_rows_, pair_cands_) pair list in place to the
  /// pairs satisfying every predicate in verify_scratch_: per
  /// predicate, SIMD equal-hash prefilter, then exact equality on the
  /// survivors (order-preserving, so emission order matches a per-row
  /// verify loop).
  void VerifyPairs(size_t v, const BatchFrontier& in) const;
  /// Assembles one output row per frontier row via copy_plan_ into the
  /// flat out_values_ staging area, wraps them as view tuples in
  /// out_batch_, and emits the whole batch (EmitBatch). Timestamps come
  /// from the arrival batch `src` through the frontier's provenance
  /// column.
  void EmitFrontier(const BatchFrontier& frontier, const TupleBatch& src);
  /// Summed capacities of every expansion scratch structure; growth
  /// across a push/sweep is charged to StateMetrics::expand_allocs.
  size_t ExpandScratchCapacity() const;
  /// The chained-purge fixpoint for one tuple of `input`. On kBlocked,
  /// wait_keys_ holds the deduplicated blocking keys. Allocation-free
  /// once the scratch has warmed up.
  Check Removable(size_t input, const Tuple& tuple, int64_t now);
  /// Whether every distinct value combination of `joinable` projected
  /// onto the edge's sources is excluded by the target's punctuation
  /// store; if not, *blocking_row is a row carrying an uncovered one.
  bool CombosExcluded(const RuntimeEdge& edge, const BatchFrontier& joinable,
                      int64_t now, size_t* blocking_row);
  /// Fills wait_keys_ from the stalled (edge, row) pairs of the check
  /// that just ended over `joinable`.
  void CollectWaitKeys(size_t input, uint64_t covered,
                       const BatchFrontier& joinable);
  /// Hash a purged tuple of `input` is woken under (its join value).
  uint64_t PartnerHash(size_t input, const Tuple& tuple) const;
  /// Hash and equality over a tuple's join attributes — everything a
  /// removability check reads of it.
  uint64_t JoinHash(size_t input, const Tuple& tuple) const;
  bool SameJoinValues(size_t input, const Tuple& a, const Tuple& b) const;
  /// Queues slots [first, first + count) of `input`, stored without a
  /// check, for the next purge pass.
  void QueueUnchecked(size_t input, size_t first, size_t count);
  /// Files a kept tuple per its check outcome: under wait_keys_
  /// (kBlocked) or on the re-check-every-pass list (kAborted).
  void Park(size_t input, size_t slot, Check outcome);
  /// Whether a wait entry still belongs to a live tuple's current park.
  bool Current(const Waiter& waiter) const;
  /// Queues a current waiter for the next pass.
  void Wake(const Waiter& waiter);
  /// Moves the current waiters filed under `key` to their pending
  /// queues and drops the key.
  void WakeKey(const WaitKey& key);
  /// Wakes the tuples a punctuation on `input` may unblock; `sig` is
  /// SignatureOf(input, punctuation).
  void WakeOnPunctuation(size_t input, const Punctuation& punctuation,
                         size_t sig);
  /// Index of the scheme signature `punctuation` instantiates on
  /// `input`, or npos.
  size_t SignatureOf(size_t input, const Punctuation& punctuation) const;
  /// Queues every live tuple of every purgeable input for re-check.
  void WakeAll();
  /// Drops stale wait entries once they outnumber the threshold.
  void MaybeCompactWaits();
  /// The purge pass behind Sweep; returns the inputs (bitmask) that
  /// lost tuples.
  uint64_t WakePass(int64_t now);
  /// Test-only reference purge (MJoinTestPeer): re-checks every live
  /// tuple of every input once, in input order.
  uint64_t FullSweepPass(int64_t now);
  /// Re-checks pending propagations for the inputs (bitmask) whose
  /// punctuation store or join state changed.
  void TryPropagate(int64_t now, uint64_t changed_inputs);
  /// Retires the punctuations of class `cls` on `value` if the value
  /// is finished (see the file comment); its lookups count no probe.
  void RetireIfFinished(size_t cls, const Value& value, int64_t now);
  /// RetireIfFinished on every (class, value) stored punctuations
  /// constrain; the full-sweep reference runs it on every pass.
  void RetireFinishedScan(int64_t now);
  Punctuation RebaseToOutput(size_t input, const Punctuation& p) const;
  /// Publishes the live-punctuation gauges (total, keyed) and folds the
  /// total into the high water.
  void NotePunctuationsLive();
  /// The part of TotalLivePunctuations pinning partition_key_.
  size_t KeyedLivePunctuations() const;

  std::vector<LocalInput> inputs_;
  MJoinConfig config_;
  LocalInput output_;
  size_t output_width_ = 0;

  // Per input: composite width and (stream, attr) -> offset map.
  std::vector<size_t> widths_;
  std::vector<std::vector<std::pair<size_t, size_t>>> offset_keys_;  // parallel
  std::vector<std::vector<size_t>> offset_values_;

  // Output assembly: for each input, where its composite lands in the
  // output row (per covered stream segment).
  struct CopySegment {
    size_t input, from, len, to;
  };
  std::vector<CopySegment> copy_plan_;

  std::vector<LocalPredicate> predicates_;
  // predicate indices touching each input.
  std::vector<std::vector<size_t>> predicates_of_input_;
  // Per start input: the BFS expansion order over the predicate graph
  // (precomputed at Create so PushBatch allocates nothing).
  std::vector<std::vector<size_t>> expand_orders_;
  uint64_t punctuations_purged_ = 0;
  // Per input: the partition-key offset (SetPartitionKey); empty when
  // the operator is not sharded by key.
  std::vector<size_t> partition_key_;

  // Per-operator scratch, reused across arrivals/sweeps so the
  // steady-state expansion and chained-purge loops are allocation-free
  // (mutable: Expand is logically const). The operator is
  // single-threaded (one shard worker), so no synchronization.
  mutable BatchFrontier expand_bufs_[2];
  mutable std::vector<size_t> verify_scratch_;
  // Probe-key hash column over the frontier (lives across the whole
  // run loop of one hop).
  mutable std::vector<uint64_t> probe_hashes_;
  // Live candidates of the current run's bucket, filtered once and
  // replayed per row.
  mutable std::vector<const Tuple*> run_cands_;
  // (frontier row, candidate) pair list under verification, plus the
  // per-predicate hash columns and survivor indices of the prefilter.
  mutable std::vector<uint32_t> pair_rows_;
  mutable std::vector<const Tuple*> pair_cands_;
  mutable std::vector<uint64_t> verify_hashes_a_;
  mutable std::vector<uint64_t> verify_hashes_b_;
  mutable std::vector<uint32_t> filter_scratch_;
  // Batched result staging: flat output values (all rows built before
  // any view points into the vector) wrapped as view tuples.
  std::vector<Value> out_values_;
  TupleBatch out_batch_;
  // PushTuple's one-row arrival batch (a view over the caller's tuple).
  TupleBatch arrival_batch_{1};
  // Removability scratch: per joinable row, the edge-source values as
  // pointers (row-major), their chained hash, and the dedup order; the
  // stalled (edge, row) pairs seen since the check's last closure; the
  // blocking keys of the last stalled check.
  std::vector<const Value*> combo_values_;
  std::vector<uint64_t> combo_hashes_;
  std::vector<uint32_t> combo_order_;
  std::vector<std::pair<size_t, size_t>> stalled_;
  std::vector<WaitKey> wait_keys_;
  std::vector<size_t> sweep_scratch_;

  std::vector<std::unique_ptr<TupleStore>> states_;
  std::vector<std::unique_ptr<PunctuationStore>> punct_stores_;
  std::vector<RuntimeEdge> runtime_edges_;
  std::vector<bool> input_purgeable_;

  // Per input: its punctuation schemes as composite constrained-offset
  // signatures (sorted). The wait index files punctuation keys under
  // them; those of purgeable inputs are propagatable on the output.
  std::vector<std::vector<std::vector<size_t>>> scheme_signatures_;
  std::vector<PendingPropagation> pending_propagations_;

  // Wait index (see the file comment).
  WaitIndex waits_;
  // Per input: its join attributes (the offsets its store indexes).
  // The first one's value keys a purged tuple's partner wake.
  std::vector<std::vector<size_t>> join_offsets_;
  // Join-attribute classes: members, and per input the class by offset.
  struct ClassMember {
    size_t input;
    std::vector<size_t> attr;  // {offset}, as CoversSubspace takes it
  };
  std::vector<std::vector<ClassMember>> class_members_;
  std::vector<std::vector<size_t>> class_of_;
  // A RetireFinishedScan is due at the next purge pass.
  bool retire_scan_pending_ = false;
  struct PurgeQueues {
    // Per slot: generation of the slot's current park.
    std::vector<uint32_t> park_gen;
    // Slots to re-check at the next pass (woken, or never checked).
    std::vector<size_t> pending;
    // Slots whose check aborted at kMaxJoinableSet.
    std::vector<size_t> recheck;
  };
  std::vector<PurgeQueues> queues_;  // per input
  // One purge-pass batch: (join-value hash, slot), sorted.
  std::vector<std::pair<uint64_t, size_t>> pass_rows_;
  // Filed wait entries (current or stale) at which the next compaction
  // runs.
  static constexpr size_t kWaitCompactMin = 1024;
  size_t wait_compact_at_ = 0;
  // Latest `now` any check ran at: with lifespans, a pass at an earlier
  // time can see punctuations unexpired that a parked check saw
  // expired, so such a pass re-checks everything.
  int64_t max_check_ts_ = std::numeric_limits<int64_t>::min();
  bool warned_joinable_cap_ = false;
  // Test-only: purge by FullSweepPass instead (MJoinTestPeer).
  bool full_sweep_reference_ = false;

  size_t punctuations_since_sweep_ = 0;
};

}  // namespace punctsafe

#endif  // PUNCTSAFE_EXEC_MJOIN_H_
