// Runtime accounting for join operators: the quantities the paper's
// safety property is *about* (join-state size staying bounded) plus
// the punctuation-side costs that the Section 5.2 cost/benefit
// discussion weighs.
//
// All counters are relaxed atomics so that a monitoring thread (or the
// parallel executor's high-water sampler) can read them while the
// owning operator thread mutates them. Each counter is independently
// coherent; use Snapshot() when a mutually consistent view is wanted
// (it is still only quiescently consistent — exact once the operator
// has drained).

#ifndef PUNCTSAFE_EXEC_METRICS_H_
#define PUNCTSAFE_EXEC_METRICS_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>

namespace punctsafe {

namespace internal {

/// \brief Lock-free max update (relaxed; monotone so order is moot).
inline void AtomicMax(std::atomic<size_t>& target, size_t value) {
  size_t cur = target.load(std::memory_order_relaxed);
  while (cur < value &&
         !target.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace internal

/// \brief Plain-value copy of StateMetrics for cross-thread consumers.
struct StateMetricsSnapshot {
  uint64_t inserted = 0;
  uint64_t purged = 0;
  uint64_t dropped_on_arrival = 0;
  uint64_t probes = 0;
  uint64_t probe_allocs = 0;
  uint64_t index_compactions = 0;
  uint64_t insert_allocs = 0;
  uint64_t expand_allocs = 0;
  uint64_t arena_blocks_reclaimed = 0;
  size_t arena_bytes_reserved = 0;
  size_t arena_bytes_live = 0;
  size_t live = 0;
  size_t high_water = 0;

  /// \brief Element-wise accumulation, for rolling per-input (and,
  /// under partitioned execution, per-shard) snapshots up into one
  /// operator-level view. Note the high-water sum is an upper bound of
  /// the true joint high water (the parts need not peak together).
  StateMetricsSnapshot& operator+=(const StateMetricsSnapshot& other) {
    inserted += other.inserted;
    purged += other.purged;
    dropped_on_arrival += other.dropped_on_arrival;
    probes += other.probes;
    probe_allocs += other.probe_allocs;
    index_compactions += other.index_compactions;
    insert_allocs += other.insert_allocs;
    expand_allocs += other.expand_allocs;
    arena_blocks_reclaimed += other.arena_blocks_reclaimed;
    arena_bytes_reserved += other.arena_bytes_reserved;
    arena_bytes_live += other.arena_bytes_live;
    live += other.live;
    high_water += other.high_water;
    return *this;
  }
  bool operator==(const StateMetricsSnapshot&) const = default;
};

/// \brief Per-input join-state accounting (atomic; see file comment).
struct StateMetrics {
  std::atomic<uint64_t> inserted{0};       ///< tuples added to the state
  std::atomic<uint64_t> purged{0};         ///< tuples removed via punctuations
  std::atomic<uint64_t> dropped_on_arrival{0};  ///< immediately removable
  std::atomic<uint64_t> probes{0};         ///< index probes (any flavor)
  /// Always 0: it counted the allocating TupleStore::Probe, which no
  /// longer exists (every probe goes through FindBucket/ForBucketLive
  /// or AnyMatch, neither of which allocates). The field is kept only
  /// because the PSCK checkpoint format carries it and
  /// perfbench/cjq_bench.cc reads it; dropping it needs a format
  /// version bump and a benchmark change.
  std::atomic<uint64_t> probe_allocs{0};
  std::atomic<uint64_t> index_compactions{0};  ///< dead-slot index rebuilds
  /// Fresh arena block mallocs performed by Insert for tuple storage
  /// (free-list block reuse does not count). Once the block working
  /// set has warmed up `insert_allocs` stops moving — the steady-state
  /// "no alloc per insert" property benchmarked in bench_arena (E17)
  /// and pinned in tests/tuple_store_test.cc.
  std::atomic<uint64_t> insert_allocs{0};
  /// Scratch-capacity growth events on the batched expansion path
  /// (MJoinOperator charges one per push/sweep whose frontier, hash,
  /// pair, or staged-output scratch had to grow). Once the working-set
  /// capacities have warmed up the expansion pipeline reuses them, so
  /// `expand_allocs` stops moving — the steady-state "no alloc per
  /// result" property pinned in tests alongside insert_allocs.
  std::atomic<uint64_t> expand_allocs{0};
  /// Arena blocks reclaimed wholesale at epoch boundaries.
  std::atomic<uint64_t> arena_blocks_reclaimed{0};
  /// Gauges mirroring EpochArena::bytes_reserved/bytes_live; refreshed
  /// by the owning store after inserts and epoch advances.
  std::atomic<size_t> arena_bytes_reserved{0};
  std::atomic<size_t> arena_bytes_live{0};
  std::atomic<size_t> live{0};             ///< currently stored tuples
  std::atomic<size_t> high_water{0};       ///< max live ever observed

  void OnProbe() { probes.fetch_add(1, std::memory_order_relaxed); }
  /// \brief Batched probe accounting: n probes in one relaxed add (the
  /// run-replay path counts its extra rows wholesale).
  void OnProbes(uint64_t n) {
    if (n != 0) probes.fetch_add(n, std::memory_order_relaxed);
  }
  void OnExpandAllocs(uint64_t count) {
    if (count != 0) expand_allocs.fetch_add(count, std::memory_order_relaxed);
  }
  void OnIndexCompaction() {
    index_compactions.fetch_add(1, std::memory_order_relaxed);
  }
  void OnInsertAllocs(uint64_t count) {
    if (count != 0) insert_allocs.fetch_add(count, std::memory_order_relaxed);
  }
  void OnArenaEpoch(uint64_t reclaimed, size_t bytes_reserved,
                    size_t bytes_live) {
    if (reclaimed != 0) {
      arena_blocks_reclaimed.fetch_add(reclaimed, std::memory_order_relaxed);
    }
    arena_bytes_reserved.store(bytes_reserved, std::memory_order_relaxed);
    arena_bytes_live.store(bytes_live, std::memory_order_relaxed);
  }

  void OnInsert() {
    inserted.fetch_add(1, std::memory_order_relaxed);
    size_t now_live = live.fetch_add(1, std::memory_order_relaxed) + 1;
    internal::AtomicMax(high_water, now_live);
  }
  /// \brief Batched insert accounting: end-state identical to n
  /// OnInsert calls (intermediate high waters during a pure-insert
  /// batch are all <= the final one, so one max fold is exact).
  void OnInserts(size_t n) {
    if (n == 0) return;
    inserted.fetch_add(n, std::memory_order_relaxed);
    size_t now_live = live.fetch_add(n, std::memory_order_relaxed) + n;
    internal::AtomicMax(high_water, now_live);
  }
  void OnPurge(size_t count) {
    purged.fetch_add(count, std::memory_order_relaxed);
    // A purge can never remove more tuples than are live; clamp instead
    // of wrapping the unsigned counter if accounting ever races or
    // double-counts (and flag it loudly in debug builds).
    size_t cur = live.load(std::memory_order_relaxed);
    assert(count <= cur && "StateMetrics::OnPurge exceeds live count");
    size_t next;
    do {
      next = count <= cur ? cur - count : 0;
    } while (!live.compare_exchange_weak(cur, next,
                                         std::memory_order_relaxed));
  }

  /// \brief Overwrites every counter from a snapshot (checkpoint
  /// restore: the rebuild re-runs Insert, so the counters must be
  /// reset to their captured values afterwards, not accumulated).
  void RestoreFrom(const StateMetricsSnapshot& s) {
    inserted.store(s.inserted, std::memory_order_relaxed);
    purged.store(s.purged, std::memory_order_relaxed);
    dropped_on_arrival.store(s.dropped_on_arrival,
                             std::memory_order_relaxed);
    probes.store(s.probes, std::memory_order_relaxed);
    probe_allocs.store(s.probe_allocs, std::memory_order_relaxed);
    index_compactions.store(s.index_compactions, std::memory_order_relaxed);
    insert_allocs.store(s.insert_allocs, std::memory_order_relaxed);
    expand_allocs.store(s.expand_allocs, std::memory_order_relaxed);
    arena_blocks_reclaimed.store(s.arena_blocks_reclaimed,
                                 std::memory_order_relaxed);
    arena_bytes_reserved.store(s.arena_bytes_reserved,
                               std::memory_order_relaxed);
    arena_bytes_live.store(s.arena_bytes_live, std::memory_order_relaxed);
    live.store(s.live, std::memory_order_relaxed);
    high_water.store(s.high_water, std::memory_order_relaxed);
  }

  StateMetricsSnapshot Snapshot() const {
    StateMetricsSnapshot s;
    s.inserted = inserted.load(std::memory_order_relaxed);
    s.purged = purged.load(std::memory_order_relaxed);
    s.dropped_on_arrival = dropped_on_arrival.load(std::memory_order_relaxed);
    s.probes = probes.load(std::memory_order_relaxed);
    s.probe_allocs = probe_allocs.load(std::memory_order_relaxed);
    s.index_compactions =
        index_compactions.load(std::memory_order_relaxed);
    s.insert_allocs = insert_allocs.load(std::memory_order_relaxed);
    s.expand_allocs = expand_allocs.load(std::memory_order_relaxed);
    s.arena_blocks_reclaimed =
        arena_blocks_reclaimed.load(std::memory_order_relaxed);
    s.arena_bytes_reserved =
        arena_bytes_reserved.load(std::memory_order_relaxed);
    s.arena_bytes_live = arena_bytes_live.load(std::memory_order_relaxed);
    s.live = live.load(std::memory_order_relaxed);
    s.high_water = high_water.load(std::memory_order_relaxed);
    return s;
  }
};

/// \brief Plain-value copy of OperatorMetrics.
struct OperatorMetricsSnapshot {
  uint64_t results_emitted = 0;
  uint64_t punctuations_received = 0;
  uint64_t punctuations_stored = 0;
  uint64_t punctuations_propagated = 0;
  uint64_t punctuations_expired = 0;
  uint64_t purge_sweeps = 0;
  uint64_t removability_checks = 0;
  size_t punctuations_live = 0;
  size_t punctuations_high_water = 0;
  bool operator==(const OperatorMetricsSnapshot&) const = default;
};

/// \brief Per-operator accounting (atomic; see file comment).
struct OperatorMetrics {
  std::atomic<uint64_t> results_emitted{0};
  std::atomic<uint64_t> punctuations_received{0};
  std::atomic<uint64_t> punctuations_stored{0};      ///< after dedup/expiry
  std::atomic<uint64_t> punctuations_propagated{0};  ///< emitted on output
  std::atomic<uint64_t> punctuations_expired{0};     ///< lifespan expiry
  std::atomic<uint64_t> purge_sweeps{0};
  std::atomic<uint64_t> removability_checks{0};
  std::atomic<size_t> punctuations_live{0};
  std::atomic<size_t> punctuations_high_water{0};
  /// The part of punctuations_live that pins the operator's partition
  /// key (MJoinOperator::SetPartitionKey; 0 when none is set). Under
  /// key-routed punctuations those live on one shard each, the rest on
  /// every shard, which is how the parallel executor derives the
  /// logical count. Derived from the stores, so not snapshotted.
  std::atomic<size_t> punctuations_keyed_live{0};

  /// \brief Records the current live-punctuation count and folds it
  /// into the high-water mark.
  void OnPunctuationsLive(size_t count) {
    punctuations_live.store(count, std::memory_order_relaxed);
    internal::AtomicMax(punctuations_high_water, count);
  }

  /// \brief Overwrites every counter from a snapshot (checkpoint
  /// restore; see StateMetrics::RestoreFrom).
  void RestoreFrom(const OperatorMetricsSnapshot& s) {
    results_emitted.store(s.results_emitted, std::memory_order_relaxed);
    punctuations_received.store(s.punctuations_received,
                                std::memory_order_relaxed);
    punctuations_stored.store(s.punctuations_stored,
                              std::memory_order_relaxed);
    punctuations_propagated.store(s.punctuations_propagated,
                                  std::memory_order_relaxed);
    punctuations_expired.store(s.punctuations_expired,
                               std::memory_order_relaxed);
    purge_sweeps.store(s.purge_sweeps, std::memory_order_relaxed);
    removability_checks.store(s.removability_checks,
                              std::memory_order_relaxed);
    punctuations_live.store(s.punctuations_live, std::memory_order_relaxed);
    punctuations_high_water.store(s.punctuations_high_water,
                                  std::memory_order_relaxed);
  }

  OperatorMetricsSnapshot Snapshot() const {
    OperatorMetricsSnapshot s;
    s.results_emitted = results_emitted.load(std::memory_order_relaxed);
    s.punctuations_received =
        punctuations_received.load(std::memory_order_relaxed);
    s.punctuations_stored =
        punctuations_stored.load(std::memory_order_relaxed);
    s.punctuations_propagated =
        punctuations_propagated.load(std::memory_order_relaxed);
    s.punctuations_expired =
        punctuations_expired.load(std::memory_order_relaxed);
    s.purge_sweeps = purge_sweeps.load(std::memory_order_relaxed);
    s.removability_checks =
        removability_checks.load(std::memory_order_relaxed);
    s.punctuations_live = punctuations_live.load(std::memory_order_relaxed);
    s.punctuations_high_water =
        punctuations_high_water.load(std::memory_order_relaxed);
    return s;
  }
};

}  // namespace punctsafe

#endif  // PUNCTSAFE_EXEC_METRICS_H_
