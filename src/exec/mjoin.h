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
//  * new punctuation — stored (with optional lifespan), then a purge
//    sweep runs per policy: every stored tuple whose chained purge
//    plan is fully covered by the punctuation stores is dropped.
//    If the punctuation instantiates a propagatable scheme, an output
//    punctuation is emitted once the matching stored tuples are gone
//    (pending until then) — the propagation rule plan trees rely on.
//
// Removability of tuple t in input i follows the chained purge plan
// derived from the operator-local generalized punctuation graph
// (core/local_graph.h): walk the plan's steps, at each step verify
// that the joinable-value combinations accumulated so far are all
// excluded by the target input's punctuation store, then extend the
// joinable set T_t[Υ] through the target's state.

#ifndef PUNCTSAFE_EXEC_MJOIN_H_
#define PUNCTSAFE_EXEC_MJOIN_H_

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
  /// Lifespan (timestamp units) for stored punctuations; nullopt
  /// keeps them forever (see Section 5.1 on the trade-off).
  std::optional<int64_t> punctuation_lifespan;
  /// Drop arriving tuples already excluded by a stored punctuation on
  /// their own input (late/contract-violating arrivals).
  bool drop_excluded_arrivals = true;
  /// Emit output punctuations for propagatable schemes.
  bool propagate_punctuations = true;
  /// Purge stored punctuations once partner punctuations prove them
  /// obsolete (paper Section 5.1, "punctuation purgeability"): a
  /// punctuation can go when, for every join predicate touching one of
  /// its constrained attributes, the partner input is itself closed on
  /// the corresponding value and holds no matching live tuple.
  bool purge_punctuations = false;
};

class MJoinOperator : public JoinOperator {
 public:
  /// Joinable-set size cap during removability checks; exceeding it
  /// aborts the check conservatively (tuple stays).
  static constexpr size_t kMaxJoinableSet = 4096;

  /// \brief Builds an MJoin over `inputs` (>= 2) of `query`.
  ///
  /// `inputs[k].streams` are the query streams covered by input k;
  /// `inputs[k].schemes` the punctuation schemes deliverable on it
  /// (for raw-stream inputs, RawAvailableSchemes). Covers must be
  /// disjoint. Inputs whose operator-local state is not purgeable get
  /// no purge plan: the operator still runs, its state just grows —
  /// exactly the unsafe behavior the safety checker exists to reject,
  /// kept executable for the paper's unbounded-state experiments.
  static Result<std::unique_ptr<MJoinOperator>> Create(
      const ContinuousJoinQuery& query, std::vector<LocalInput> inputs,
      MJoinConfig config);

  size_t num_inputs() const override { return inputs_.size(); }
  void PushTuple(size_t input, const Tuple& tuple, int64_t ts) override;
  /// Batch arrival path: result-identical to per-row PushTuple, with
  /// the per-tuple overheads amortized to the batch boundary — the
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
  /// \brief Streams covered by the operator output (sorted).
  const std::vector<size_t>& output_streams() const {
    return output_streams_;
  }
  /// \brief Output composite width (attribute count).
  size_t output_width() const { return output_width_; }

  /// \brief Forces a purge sweep (used by lazy-policy drivers that
  /// want a final flush, and by tests).
  void Sweep(int64_t now);

  /// \brief Stored punctuations dropped by the Section 5.1
  /// punctuation-purgeability pass.
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
  /// with their captured values.
  Status RestoreState(const OperatorStateSnapshot& snapshot);

  /// \brief Re-evaluates every pending propagation as if all inputs
  /// had changed. Restore paths call this after state is rebuilt: a
  /// shard that had already reported a punctuation to the alignment
  /// barrier before the snapshot re-emits it, reconstructing the
  /// aligner votes a crash discards (docs/RECOVERY.md).
  void RecheckPropagations(int64_t now);

 protected:
  void OnObserverSet() override;

 private:
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
  };
  struct PendingPropagation {
    size_t input;
    Punctuation punctuation;  // in the input's composite space
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
  /// from `src` through the frontier's provenance column, or from
  /// `single_ts` for tuple-at-a-time pushes (src == nullptr).
  void EmitFrontier(const BatchFrontier& frontier, const TupleBatch* src,
                    int64_t single_ts);
  /// Summed capacities of every expansion scratch structure; growth
  /// across a push/sweep is charged to StateMetrics::expand_allocs.
  size_t ExpandScratchCapacity() const;
  bool Removable(size_t input, const Tuple& tuple, int64_t now);
  void ProduceResults(size_t input, const Tuple& tuple, int64_t ts);
  /// Re-checks pending propagations for the inputs whose punctuation
  /// store or join state changed.
  void TryPropagate(int64_t now, const std::vector<bool>& changed_inputs);
  /// Section 5.1 punctuation purgeability pass (see MJoinConfig).
  void PurgeObsoletePunctuations(int64_t now);
  Punctuation RebaseToOutput(size_t input, const Punctuation& p) const;

  std::vector<LocalInput> inputs_;
  MJoinConfig config_;
  std::vector<size_t> output_streams_;
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
  // (precomputed at Create so ProduceResults allocates nothing).
  std::vector<std::vector<size_t>> expand_orders_;
  uint64_t punctuations_purged_ = 0;

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
  std::vector<Tuple> combos_scratch_;
  std::vector<size_t> sweep_scratch_;

  std::vector<std::unique_ptr<TupleStore>> states_;
  std::vector<std::unique_ptr<PunctuationStore>> punct_stores_;
  std::vector<RuntimeEdge> runtime_edges_;
  std::vector<bool> input_purgeable_;

  // Schemes propagatable on the output, per input, as composite
  // constrained-offset signatures.
  std::vector<std::vector<std::vector<size_t>>> propagatable_signatures_;
  std::vector<PendingPropagation> pending_propagations_;

  size_t punctuations_since_sweep_ = 0;
};

}  // namespace punctsafe

#endif  // PUNCTSAFE_EXEC_MJOIN_H_
