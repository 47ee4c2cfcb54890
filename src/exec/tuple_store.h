// The join state Υ of one operator input: a tuple store with
// hash indexes on the attributes used for probing and purging.
//
// Storage is a slot vector with tombstoned removal; per-attribute
// indexes map values to slots and are filtered/rebuilt lazily, the
// standard symmetric-hash-join bookkeeping [Wilschut & Apers 1991].
//
// Hot-path layout (docs/PERF.md):
//  * tuple payloads live in a per-store **epoch arena**
//    (exec/arena.h): Insert lays out the value array plus any long
//    string bytes as ONE bump allocation, and purge sweeps release
//    whole blocks at epoch boundaries instead of freeing tuples one by
//    one;
//  * indexes are FlatKeyIndex (exec/flat_index.h): open-addressing
//    tables probed 16 tags per SIMD step, keyed by Value under the
//    *cached* hash (stream/value.h) — inserting or probing a string
//    key never re-walks its bytes, a lookup does exactly one key
//    equality, and bucket members need no per-slot equality re-check
//    (each bucket is exact for its key, modulo tombstones); buckets
//    are SmallVector<size_t, 4>, inline in the entry for the common
//    few-slot case;
//  * `offset_to_index_` maps attribute offset -> index position in
//    O(1), replacing the old linear scan of `indexed_offsets_`;
//  * the probe path is allocation-free and has exactly two entry
//    points, the ones the MJoin calls: FindBucket + ForBucketLive, a
//    split cursor so batch-aware expansion (MJoinOperator::Expand)
//    resolves one bucket for a whole run of same-key rows, and the
//    early-exit AnyMatch used by punctuation propagation.
//
// Lifetime contract: `const Tuple&`/`const Value&` references obtained
// from At() or probes stay valid until the *next* AdvanceEpoch() —
// removal only tombstones; payload release (and arena block reuse) is
// deferred to the epoch boundary, which operators place at the end of
// a purge sweep. References must not be held across AdvanceEpoch.
//
// Not thread-safe: each store is owned by exactly one operator (one
// shard worker under the parallel executor). Probes are logically
// const but may lazily compact the indexes, so even const methods must
// not run concurrently with anything else on the same store.

#ifndef PUNCTSAFE_EXEC_TUPLE_STORE_H_
#define PUNCTSAFE_EXEC_TUPLE_STORE_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "exec/arena.h"
#include "exec/flat_index.h"
#include "exec/metrics.h"
#include "exec/tuple_batch.h"
#include "stream/tuple.h"
#include "util/logging.h"
#include "util/small_vector.h"

namespace punctsafe {

class TupleStore {
 public:
  /// Index compaction fires once at least kCompactMinDead tombstones
  /// accumulated AND dead slots outnumber live ones by
  /// kCompactDeadFactor (the remove path), or once a single probe
  /// filtered out kCompactMinDead+ dead slots and more dead than live
  /// (the probe path — a store that is only ever probed must not keep
  /// paying for tombstones it never removes).
  static constexpr size_t kCompactMinDead = 64;
  static constexpr size_t kCompactDeadFactor = 2;

  /// Inline bucket capacity: most buckets hold a handful of slots, so
  /// they fit inside the index entry with no heap spill.
  using Bucket = FlatKeyIndex::Bucket;

  /// \param indexed_offsets attribute positions to maintain hash
  ///        indexes on (the input's join attributes).
  explicit TupleStore(std::vector<size_t> indexed_offsets);

  /// \brief Stores an arena-laid-out copy of the tuple; returns its
  /// slot id.
  size_t Insert(const Tuple& tuple);

  /// \brief Stores every *selected* row of the batch. Single-index
  /// stores (the common operator shape) resolve one index bucket per
  /// same-key run across the batch — the insert-side twin of
  /// Expand's run amortization — and the slot bookkeeping grows
  /// once per batch instead of amortized-doubling inside the row
  /// loop. Returns the number of rows inserted.
  size_t InsertBatch(const TupleBatch& batch);

  /// \brief Tombstones a slot (idempotent). The payload stays
  /// addressable until the next AdvanceEpoch (see lifetime contract).
  void Remove(size_t slot);

  /// \brief Epoch boundary: releases the payloads of every slot
  /// removed since the previous call and lets the arena reclaim
  /// all-dead blocks wholesale. Operators call this at the end of a
  /// purge sweep — the one point where no probe results are in flight.
  void AdvanceEpoch();

  bool IsLive(size_t slot) const {
    return slot < live_.size() && live_[slot];
  }
  const Tuple& At(size_t slot) const { return handles_[slot]; }

  size_t live_count() const { return live_count_; }
  /// \brief Slots ever assigned; the next Insert gets this id (slot
  /// ids are dense and never reused).
  size_t num_slots() const { return handles_.size(); }
  const StateMetrics& metrics() const { return metrics_; }

  /// \brief Observed same-key run structure of the batched probe path:
  /// `rows` selected rows collapsed into `runs` bucket resolutions, so
  /// rows/runs is the mean hash-run length. Deliberately separate from
  /// StateMetrics: run stats are a local diagnostic, not logical
  /// operator state, so they stay out of the PSCK checkpoint byte
  /// format.
  struct ProbeRunStats {
    uint64_t rows = 0;
    uint64_t runs = 0;
  };
  const ProbeRunStats& probe_run_stats() const { return probe_run_stats_; }

  /// \brief Accounts one same-key run of `rows` probe rows that shared
  /// a single bucket resolution (the frontier expansion calls it once
  /// per run): folds the run into ProbeRunStats and counts the rows
  /// beyond the first as probes — the first row's probe is counted by
  /// the accompanying ForBucketLive, so per-run totals equal a per-row
  /// probe loop exactly (checkpointed counters stay mode-independent).
  void NoteProbeRun(size_t rows) const {
    probe_run_stats_.rows += rows;
    ++probe_run_stats_.runs;
    if (rows > 1) metrics_.OnProbes(rows - 1);
  }

  /// \brief Charges expansion-scratch allocation events against this
  /// store's metrics (the arrival input's store carries the expansion
  /// cost of its pushes; see StateMetrics::expand_allocs).
  void CountExpandAllocs(uint64_t n) const { metrics_.OnExpandAllocs(n); }

  /// \brief Counts an arriving tuple that was never stored because its
  /// removability already held ("purging future tuples", Sec 5.1).
  void CountDroppedArrival() { ++metrics_.dropped_on_arrival; }

  /// \brief Checkpoint restore: after the live tuples have been
  /// re-Inserted (which bumps inserted/live/high_water), overwrites
  /// the counters with their captured values so accounting resumes
  /// exactly where the snapshot left off (exec/checkpoint.h).
  void RestoreMetrics(const StateMetricsSnapshot& snapshot) {
    metrics_.RestoreFrom(snapshot);
  }

  /// \brief Calls fn(slot, tuple) for every live tuple. The callback
  /// must not mutate the store.
  void ForEachLive(const std::function<void(size_t, const Tuple&)>& fn) const;

  /// \brief True iff some live tuple satisfies the predicate (early
  /// exit on the first hit).
  bool AnyLive(const std::function<bool(const Tuple&)>& pred) const;

  /// \brief Whether a hash index exists on the given offset (O(1)).
  bool HasIndexOn(size_t offset) const {
    return offset < offset_to_index_.size() &&
           offset_to_index_[offset] != kNoIndex;
  }

  /// \brief Resolves the index bucket for (offset, value); nullptr
  /// when no key matches. Runs any pending probe-triggered compaction
  /// first, so the returned pointer is valid until the next FindBucket
  /// / Remove / Insert on this store — which is what lets batch-aware
  /// expansion visit one bucket for a whole run of same-key rows
  /// (ForBucketLive never invalidates it).
  const Bucket* FindBucket(size_t offset, const Value& value) const {
    if (pending_compact_) CompactIndexes();
    PUNCTSAFE_CHECK(HasIndexOn(offset))
        << "probe on non-indexed offset " << offset;
    return indexes_[offset_to_index_[offset]].Find(value.Hash(), value);
  }

  /// \brief Visits every live member of a FindBucket result (nullptr
  /// allowed: counts the probe, visits nothing). The callback must not
  /// mutate the store.
  template <typename Fn>
  void ForBucketLive(const Bucket* bucket, Fn&& fn) const {
    metrics_.OnProbe();
    if (bucket == nullptr) return;
    size_t dead = 0;
    size_t hit = 0;
    for (size_t slot : *bucket) {
      if (!live_[slot]) {
        ++dead;
        continue;
      }
      // The bucket is exact for its key (Value-keyed index), so every
      // live member is a match.
      ++hit;
      fn(slot, handles_[slot]);
    }
    NoteProbeFilter(dead, hit);
  }

  /// \brief Early-exit probe: true iff some live tuple whose `offset`
  /// attribute equals `value` satisfies `pred`. `offset` must be
  /// indexed; `pred` must not mutate the store.
  template <typename Pred>
  bool AnyMatch(size_t offset, const Value& value, Pred&& pred) const {
    metrics_.OnProbe();
    const Bucket* bucket = FindBucket(offset, value);
    if (bucket == nullptr) return false;
    for (size_t slot : *bucket) {
      if (live_[slot] && pred(handles_[slot])) return true;
    }
    return false;
  }

  /// \brief Whether a live tuple's indexed `offset` attribute equals
  /// `value`. Not a probe: it counts nothing and never compacts, so
  /// the StateMetrics checkpoints serialize stay as they were.
  bool HoldsLive(size_t offset, const Value& value) const {
    const Bucket* bucket =
        indexes_[offset_to_index_[offset]].Find(value.Hash(), value);
    return bucket != nullptr &&
           std::any_of(bucket->begin(), bucket->end(),
                       [&](size_t slot) { return live_[slot]; });
  }

  /// \brief Marks `slots` purged and updates metrics.
  void PurgeSlots(const std::vector<size_t>& slots);

 private:
  static constexpr size_t kNoIndex = static_cast<size_t>(-1);

  /// Probe-path compaction trigger: a probe that filtered out more
  /// dead than live slots schedules a rebuild, executed at the next
  /// FindBucket entry (never mid-iteration).
  void NoteProbeFilter(size_t dead, size_t live_hits) const {
    if (dead >= kCompactMinDead && dead > live_hits) {
      pending_compact_ = true;
    }
  }

  void MaybeCompactIndexes();
  void CompactIndexes() const;

  /// Core of Insert without the per-row metrics tail: index insert,
  /// storage layout, live bookkeeping. The caller accounts the arena
  /// growth (once per row for Insert, once per batch for InsertBatch —
  /// same totals either way).
  size_t InsertRow(const Tuple& tuple);

  /// Storage half of InsertRow (arena layout + live bookkeeping), no
  /// index insert — InsertBatch's run-amortized path resolves the
  /// bucket itself, once per same-key run.
  size_t AppendRowStorage(const Tuple& tuple);

  /// Payload half of AppendRowStorage (arena copy, handle, block id)
  /// WITHOUT the live-slot bookkeeping: InsertBatch appends payloads
  /// per row and fills the live structures in bulk — the new slots are
  /// consecutive, so three per-row push_backs (one into a bit vector)
  /// become three sequential fills per batch.
  size_t AppendRowPayload(const Tuple& tuple);

  /// Insert-side metrics tail: counts fresh arena blocks since the
  /// last call as insert allocations and refreshes the arena gauges.
  void NoteArenaGrowth();

  std::vector<size_t> indexed_offsets_;
  // offset -> position in indexes_ (kNoIndex when not indexed).
  std::vector<size_t> offset_to_index_;
  // Per-slot tuple handles: non-owning views into arena blocks. A
  // removed slot's handle is cleared at the next AdvanceEpoch (slot
  // ids stay stable; payload memory does not outlive the epoch).
  std::vector<Tuple> handles_;
  std::vector<bool> live_;
  // Dense list of live slots (swap-remove maintained) so iteration
  // costs O(live), not O(ever inserted).
  std::vector<size_t> live_slots_;
  std::vector<size_t> pos_in_live_;
  size_t live_count_ = 0;
  EpochArena arena_;
  // Slot -> arena block owning its payload.
  std::vector<uint32_t> slot_block_;
  // Slots removed since the last AdvanceEpoch, awaiting payload
  // release at the epoch boundary.
  std::vector<size_t> released_;
  uint64_t last_block_allocs_ = 0;
  // One index per indexed offset: key Value -> slots (buckets may
  // contain dead slots until compaction; never slots with a different
  // key). Keyed by Value so a bucket's slots all carry exactly that
  // key; the key Value is an owning *copy*, so index keys never dangle
  // into the arena. `mutable` because logically-const probes trigger
  // the lazy compaction (a full rebuild of each table from survivors).
  mutable std::vector<FlatKeyIndex> indexes_;
  mutable size_t dead_count_ = 0;
  mutable bool pending_compact_ = false;
  mutable StateMetrics metrics_;
  // Probe-run statistics (see ProbeRunStats); mutable because
  // NoteProbeRun is logically const.
  mutable ProbeRunStats probe_run_stats_;
};

}  // namespace punctsafe

#endif  // PUNCTSAFE_EXEC_TUPLE_STORE_H_
