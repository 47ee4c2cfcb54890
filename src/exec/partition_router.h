// Hash-partitioned intra-operator parallelism: the routing layer that
// lets one MJoin operator run as K shard workers (PanJoin-style
// partition parallelism) while keeping the paper's purge semantics
// exact.
//
// The contract the parallel executor relies on:
//  * Tuples are hashed on one join-key attribute per input and routed
//    to exactly one shard; punctuations (and drain markers) are
//    broadcast to every shard.
//  * A shard therefore owns a key-disjoint slice of the operator's
//    join state but receives every punctuation (it retires only values
//    none of its own tuples can need), so the chained
//    purge removability check evaluated shard-locally returns exactly
//    the unpartitioned answer (see "exactness" below), and the union
//    of per-shard purges equals the unpartitioned purge — no double
//    purge (each tuple lives on one shard), no stranded state (the
//    punctuation reaches every shard regardless of which shard its
//    key's tuples hash to).
//  * A shard's output punctuation is only valid for the *merged*
//    output once every shard has emitted it (another shard may still
//    hold matching tuples); PunctuationAligner is the merge barrier
//    that enforces this.
//
// Exactness: an operator is partitioned only when its localized
// equi-join predicates admit an attribute equivalence class with a
// member in every input — and, for operators with three or more
// inputs, when every predicate lies inside that class. Then every
// predicate equates partition keys, so all tuples of any joinable
// assignment (partial assignments during the removability fixpoint
// included) carry one shared key value and are co-located on its
// shard: shard-local probes and joinable-set expansions see exactly
// the tuples the unpartitioned operator would. For binary operators
// the single-class restriction is unnecessary (the only other input
// is always part of the assignment, so every predicate — class or
// not — is verified on expansion) and any covering class works.
// Operators that do not qualify simply run with one shard.

#ifndef PUNCTSAFE_EXEC_PARTITION_ROUTER_H_
#define PUNCTSAFE_EXEC_PARTITION_ROUTER_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/local_graph.h"
#include "exec/tuple_batch.h"
#include "query/cjq.h"
#include "stream/punctuation.h"
#include "stream/tuple.h"

namespace punctsafe {

/// \brief How one operator's inputs partition across shard workers.
struct PartitionSpec {
  /// True iff the operator's predicates admit an exact partitioning
  /// (see file comment). False forces a single shard.
  bool partitionable = false;
  /// Per input: the composite-row offset of the partition-key
  /// attribute (the input's representative of the chosen equivalence
  /// class). Only meaningful when partitionable.
  std::vector<size_t> hash_offsets;
  /// Human-readable: the chosen class, or why partitioning is off.
  std::string detail;

  /// \brief Shard for a tuple arriving on `input`: the mixed hash of
  /// its partition-key attribute modulo `num_shards` (>= 1). This is
  /// the one routing function: live tuples, batched ingest scatter,
  /// inter-operator re-hashing and restore's re-split all call it.
  /// Pure function of (input, key value, num_shards) — the checkpoint
  /// layer relies on this determinism: restore re-splits a merged
  /// logical snapshot by calling ShardOf on each stored tuple, so
  /// every tuple lands back on the shard that would have received it
  /// live, for any shard count (exec/checkpoint.h, docs/RECOVERY.md).
  size_t ShardOf(size_t input, const Tuple& tuple, size_t num_shards) const;
};

/// \brief Derives the partition spec for an operator over `inputs`
/// from the query's equi-join predicates (localized to composite-row
/// offsets exactly as MJoinOperator lays them out).
PartitionSpec ComputePartitionSpec(const ContinuousJoinQuery& query,
                                   const std::vector<LocalInput>& inputs);

/// \brief Scatters one input batch into per-shard sub-batches in a
/// single pass (one ShardOf per row). `out` is resized to `num_shards`
/// and each sub-batch cleared first; rows keep their arrival order
/// within a shard, so per-edge FIFO is preserved when the sub-batches
/// are enqueued. Sub-batch storage is recycled across calls.
void ScatterBatch(const PartitionSpec& spec, size_t input,
                  const TupleBatch& batch, size_t num_shards,
                  std::vector<TupleBatch>* out);

/// \brief Merge barrier for output punctuations of a sharded
/// operator: forwards a punctuation downstream only once every shard
/// has emitted it since the last forward.
///
/// Tracks per-shard bits (not a count) so a shard that re-emits the
/// same punctuation — e.g. the input punctuation arrived twice and the
/// shard held no matching tuples either time — cannot make up for a
/// shard that has not yet cleared its matching state. Thread-safe; the
/// forwarding shard (the one completing the bitmask) performs the
/// downstream push, which preserves the per-producer FIFO argument:
/// every shard's pre-emission tuples are already enqueued downstream
/// when its bit was set.
class PunctuationAligner {
 public:
  explicit PunctuationAligner(size_t num_shards) : num_shards_(num_shards) {}

  PunctuationAligner(const PunctuationAligner&) = delete;
  PunctuationAligner& operator=(const PunctuationAligner&) = delete;

  /// \brief Records that `shard` emitted `p` at `ts`. Returns true iff
  /// this arrival completes the shard set; then `*forward_ts` is the
  /// max timestamp across the contributing emissions and the entry is
  /// reset (a later round re-aligns from scratch).
  bool Arrive(size_t shard, const Punctuation& p, int64_t ts,
              int64_t* forward_ts);

  /// \brief Punctuations currently waiting on at least one shard.
  size_t pending() const;

  /// \brief Largest pending() ever observed (tracked under the same
  /// mutex as Arrive, so it is exact): an alignment-backlog gauge for
  /// the observability exporter — a growing high water means some
  /// shard chronically trails its siblings in clearing matching state.
  size_t pending_high_water() const;

 private:
  struct Entry {
    std::vector<bool> seen;
    size_t seen_count = 0;
    int64_t max_ts = 0;
  };

  const size_t num_shards_;
  mutable std::mutex mu_;
  std::unordered_map<Punctuation, Entry, PunctuationHash> entries_;
  size_t pending_high_water_ = 0;
};

}  // namespace punctsafe

#endif  // PUNCTSAFE_EXEC_PARTITION_ROUTER_H_
