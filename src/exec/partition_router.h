// Hash-partitioned intra-operator parallelism: the routing layer that
// lets one MJoin operator run as K shard workers (PanJoin-style
// partition parallelism) while keeping the paper's purge semantics
// exact.
//
// The contract the parallel executor relies on:
//  * Tuples are hashed on one join-key attribute per input and routed
//    to exactly one shard.
//  * A punctuation that pins its input's key attribute to c goes only
//    to ShardOf(c); one that leaves the key open, and every barrier
//    marker, is broadcast to every shard. A shard therefore owns a
//    key-disjoint slice of the operator's join state and holds exactly
//    the punctuations that can touch that slice, so the chained purge
//    removability check evaluated shard-locally returns exactly the
//    unpartitioned answer (see "exactness" below), and the union of
//    per-shard purges equals the unpartitioned purge — no double purge
//    (each tuple lives on one shard), no stranded state (a punctuation
//    reaches every shard that can hold a tuple it covers).
//  * A shard's output punctuation is only valid for the *merged*
//    output once every shard that can still produce matching results
//    has emitted it; PunctuationAligner is the merge barrier that
//    enforces this. An output punctuation that pins a key-class member
//    to c needs only ShardOf(c)'s vote (every output row carrying c
//    there was produced on that shard); any other needs all K.
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
//
// Punctuation routing is exact when the key class has exactly one
// member per input (routes_punctuations): a punctuation pinning input
// i's key to c covers no tuple, and no value combination a
// removability check projects, on any shard but ShardOf(c), and every
// other promise on the key class value c is routed there too. With two
// key members on one input, a tuple whose members differ can be closed
// by a promise on either value, so such operators broadcast.
// docs/CONCURRENCY.md ("Punctuation routing") has the full argument.

#ifndef PUNCTSAFE_EXEC_PARTITION_ROUTER_H_
#define PUNCTSAFE_EXEC_PARTITION_ROUTER_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/local_graph.h"
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
  /// True iff the key class has exactly one member per input, so a
  /// punctuation pinning an input's key can be routed to one shard
  /// (see "Punctuation routing" above).
  bool routes_punctuations = false;
  /// Per input: the composite offsets of its key-class members.
  std::vector<std::vector<size_t>> key_members;
  /// Output-row offsets of the key class's members (the operator's
  /// output layout): the aligner's key test (OutputPunctuationShard).
  std::vector<size_t> output_key_offsets;
  /// Human-readable: the chosen class, or why partitioning is off.
  std::string detail;

  /// Returned by the punctuation routers for "every shard".
  static constexpr size_t kAllShards = static_cast<size_t>(-1);

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

  /// \brief Where a punctuation arriving on `input` must go: ShardOf
  /// its key constant when it pins the input's key attribute and the
  /// spec routes punctuations, else kAllShards. All three routers
  /// return 0 for one shard (also on a spec that does not partition).
  size_t PunctuationShard(size_t input, const Punctuation& punctuation,
                          size_t num_shards) const;

  /// \brief Whose vote completes an output punctuation at the
  /// aligner: ShardOf the constant it pins on a key-class member, else
  /// kAllShards. Holds for every partitioned operator, routed or not:
  /// each output row carries one value on all key-class members.
  size_t OutputPunctuationShard(const Punctuation& punctuation,
                                size_t num_shards) const;

  /// \brief The shard whose vote a pending propagation of `punctuation`
  /// on `input` feeds: the same owner OutputPunctuationShard names for
  /// its rebased output punctuation, else kAllShards. A copy pending
  /// on any other shard can never complete a round, so checkpoints
  /// drop it and restores place the propagation on its owner only.
  size_t PendingShard(size_t input, const Punctuation& punctuation,
                      size_t num_shards) const;
};

/// \brief Derives the partition spec for an operator over `inputs`
/// from the query's equi-join predicates (localized to composite-row
/// offsets exactly as MJoinOperator lays them out).
PartitionSpec ComputePartitionSpec(const ContinuousJoinQuery& query,
                                   const std::vector<LocalInput>& inputs);

/// \brief Merge barrier for output punctuations of a sharded
/// operator: forwards a punctuation downstream only once every shard
/// expected to vote for it has emitted it since the last forward.
///
/// Each round names its expected shard set: one shard (a key-pinned
/// output punctuation, OutputPunctuationShard) or all of them. A
/// one-shard round completes on that shard's vote without touching
/// the pending table, and votes from shards outside it are ignored
/// (they can hold no matching state). An all-shard round tracks
/// per-shard bits (not a count) so a shard that re-emits the same
/// punctuation — e.g. the input punctuation arrived twice and the
/// shard held no matching tuples either time — cannot make up for a
/// shard that has not yet cleared its matching state. Thread-safe; the
/// forwarding shard (the one completing the round) performs the
/// downstream push, which preserves the per-producer FIFO argument:
/// every voting shard's pre-emission tuples are already enqueued
/// downstream when its vote was recorded.
class PunctuationAligner {
 public:
  explicit PunctuationAligner(size_t num_shards) : num_shards_(num_shards) {}

  PunctuationAligner(const PunctuationAligner&) = delete;
  PunctuationAligner& operator=(const PunctuationAligner&) = delete;

  /// \brief Records that `shard` emitted `p` at `ts`; `expected` is
  /// the round's voter (a shard index) or PartitionSpec::kAllShards.
  /// Returns true iff this arrival completes the round; then
  /// `*forward_ts` is the max timestamp across the contributing
  /// emissions and the entry is reset (a later round re-aligns from
  /// scratch).
  bool Arrive(size_t shard, const Punctuation& p, int64_t ts,
              size_t expected, int64_t* forward_ts);

  /// \brief All-shard rounds currently waiting on at least one shard.
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
