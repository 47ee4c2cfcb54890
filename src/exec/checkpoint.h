// Punctuation-aligned checkpoint/restore of executor state.
//
// A StateSnapshot is the *logical* state of one plan execution at a
// quiescent, punctuation-aligned point: per operator input the live
// join tuples, the stored punctuations (with arrival timestamps, so
// lifespans survive a restore), the pending output-punctuation
// propagations, the metric counters the safety experiments report,
// plus executor-level progress (per-stream event counts / watermarks)
// and result accounting. Punctuations are the paper's natural epoch
// barriers: a sweep ends with AdvanceEpoch on every store, so a
// snapshot taken between pushes never sees half-applied purges.
//
// Snapshots form a commutative monoid under MergeSnapshots
// ("Stream programs are monoid homomorphisms with state",
// arXiv:2507.10799): the identity is the default-constructed
// StateSnapshot, and Merge combines two shard snapshots of the same
// plan into one logical snapshot. Field semantics (docs/RECOVERY.md):
//  * tuples / results — multiset union (tuples partition across
//    shards, so union restores the logical state);
//  * punctuations / pending propagations — set union (a key-routed
//    punctuation lives on one shard, a broadcast one on every shard;
//    a union of stores whose shards retired different values is still
//    valid), duplicate punctuations keep the max arrival timestamp;
//  * tuple-side and punctuation-side counters and gauges — sums: each
//    shard counts the punctuations delivered to it, so a key-routed
//    punctuation counts once and a broadcast one once per shard (high
//    waters sum to an upper bound, as for tuples);
//  * per-stream progress — element-wise max.
// SplitSnapshot is the inverse up to Merge: it re-partitions the
// tuples over K pieces (by ShardOf-style hashing or a caller-supplied
// assignment), sends each punctuation and pending propagation to the
// piece a caller-supplied router names or replicates it into every
// piece, and leaves the summed counters on piece 0, so
// Merge(Split(s, K)) == s exactly. The parallel executor's restore
// path loads one snapshot into K shard workers through the same
// per-operator split (SplitOperatorSnapshot).
//
// The byte format is versioned and length-prefixed with a per-section
// CRC32 so truncated or bit-flipped files are rejected with a clean
// error instead of being half-applied:
//
//   "PSCK" | u32 version
//   section*:  u32 section_id | u64 payload_len | payload | u32 crc32
//
// Section 1 (meta) carries the fingerprint, progress, result
// accounting, and the operator-section count; one section 2 per
// operator follows. All integers are little-endian.

#ifndef PUNCTSAFE_EXEC_CHECKPOINT_H_
#define PUNCTSAFE_EXEC_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "exec/metrics.h"
#include "stream/punctuation.h"
#include "stream/tuple.h"
#include "util/status.h"

namespace punctsafe {

/// \brief One stored punctuation plus its arrival timestamp (needed so
/// lifespan expiry keeps working after a restore).
struct PunctuationEntry {
  Punctuation punctuation;
  int64_t arrival = 0;
};

/// \brief Logical state of one operator input: the live join tuples,
/// the punctuation store contents, and the input's metric counters.
struct InputStateSnapshot {
  std::vector<Tuple> tuples;                    // canonical: sorted
  std::vector<PunctuationEntry> punctuations;   // canonical: sorted
  StateMetricsSnapshot state_metrics;
};

/// \brief An output punctuation still blocked on matching state.
struct PendingPropagationSnapshot {
  uint32_t input = 0;
  Punctuation punctuation;
};

/// \brief Logical state of one MJoin operator (for sharded execution:
/// the merge over its shard replicas).
struct OperatorStateSnapshot {
  std::vector<InputStateSnapshot> inputs;
  std::vector<PendingPropagationSnapshot> pending;  // canonical: sorted
  OperatorMetricsSnapshot op_metrics;
  uint64_t punctuations_purged = 0;
  uint64_t punctuations_since_sweep = 0;
};

/// \brief Per query stream: how far the input was consumed. A restore
/// resumes replay from `events_consumed` on each stream.
struct InputProgress {
  uint64_t events_consumed = 0;
  int64_t watermark_ts = 0;  ///< max timestamp seen on the stream
};

/// \brief One whole-executor snapshot (see file comment).
struct StateSnapshot {
  /// Query + plan-shape identity; Restore refuses a mismatch.
  std::string fingerprint;
  std::vector<InputProgress> progress;  // per query stream
  uint64_t num_results = 0;
  std::vector<Tuple> results;  // kept results (canonical: sorted)
  uint64_t tuple_high_water = 0;
  uint64_t punct_high_water = 0;
  std::vector<OperatorStateSnapshot> operators;  // post-order
};

/// \brief CRC-32 (IEEE 802.3, reflected 0xEDB88320) of `size` bytes.
uint32_t Crc32(const void* data, size_t size);

/// \brief Normalizes to merge's canonical form: tuples and results
/// sorted (multisets), punctuations and pending propagations sorted
/// and deduplicated (sets; duplicate punctuations keep the max
/// arrival), so equal logical snapshots have equal serializations.
/// Merge/Split outputs are already canonical; hand-built snapshots
/// should be canonicalized before comparing.
void CanonicalizeSnapshot(StateSnapshot* snapshot);

/// \brief Serializes to the versioned, CRC-protected byte format.
/// Canonicalize first (the executors' capture paths already do) if
/// byte-equality comparisons are intended.
std::string SerializeSnapshot(const StateSnapshot& snapshot);

/// \brief Parses a serialized snapshot. Truncated input, unknown
/// magic/version/section ids, trailing garbage, and CRC mismatches
/// all return InvalidArgument without crashing.
Result<StateSnapshot> DeserializeSnapshot(std::string_view bytes);

/// \brief Serializes and writes atomically-ish (tmp file + rename).
Status WriteSnapshotFile(const StateSnapshot& snapshot,
                         const std::string& path);

/// \brief Reads and parses a snapshot file.
Result<StateSnapshot> ReadSnapshotFile(const std::string& path);

/// \brief The monoid merge over two shard snapshots of the same plan
/// (see file comment for the per-field semantics). The identity is
/// the default-constructed StateSnapshot; merging snapshots with
/// different non-empty fingerprints or operator structures is a
/// caller error (checked). Associative and, for same-plan snapshots,
/// commutative; the result is canonical.
StateSnapshot MergeSnapshots(const StateSnapshot& a, const StateSnapshot& b);

/// \brief Merge of one operator's shard states (the per-operator core
/// of MergeSnapshots, exposed so the parallel executor can fold its
/// shard captures into one logical snapshot).
OperatorStateSnapshot MergeOperatorSnapshots(const OperatorStateSnapshot& a,
                                             const OperatorStateSnapshot& b);

/// \brief Assigns a tuple of one operator's `input` to one of
/// `pieces` split targets.
using OperatorShardFn =
    std::function<size_t(size_t input, const Tuple& tuple, size_t pieces)>;

/// \brief Assigns a punctuation of one operator's `input` (stored, or
/// a pending propagation) to one of `pieces` split targets, or to
/// every piece with any value >= `pieces`.
using OperatorPunctuationShardFn = std::function<size_t(
    size_t input, const Punctuation& punctuation, size_t pieces)>;

/// \brief Splits one operator's snapshot into `pieces` shard states
/// such that folding them back with MergeOperatorSnapshots reproduces
/// it exactly (the per-operator core of SplitSnapshot): tuples are
/// partitioned by `shard_of`, stored punctuations go where
/// `punctuation_shard_of` says and pending propagations where
/// `pending_shard_of` says (each replicated when its router is empty),
/// counters stay on piece 0. The parallel executor's restore path
/// calls it with PartitionSpec::ShardOf, PunctuationShard and
/// PendingShard.
std::vector<OperatorStateSnapshot> SplitOperatorSnapshot(
    const OperatorStateSnapshot& snapshot, size_t pieces,
    const OperatorShardFn& shard_of,
    const OperatorPunctuationShardFn& punctuation_shard_of = nullptr,
    const OperatorPunctuationShardFn& pending_shard_of = nullptr);

/// \brief Assigns a tuple of (operator, input) to one of `pieces`
/// split targets. The default hashes the whole tuple.
using SnapshotShardFn = std::function<size_t(
    size_t op, size_t input, const Tuple& tuple, size_t pieces)>;

/// \brief Splits one snapshot into `pieces` shard snapshots such that
/// folding them back with MergeSnapshots (in any association order)
/// reproduces `snapshot` exactly. Tuples are partitioned by
/// `shard_of` (default: whole-tuple hash — the ShardOf-style
/// re-hashing inverse of Merge); punctuations, pending propagations
/// and progress are replicated into every piece; counters stay on
/// piece 0.
std::vector<StateSnapshot> SplitSnapshot(const StateSnapshot& snapshot,
                                         size_t pieces,
                                         SnapshotShardFn shard_of = nullptr);

}  // namespace punctsafe

#endif  // PUNCTSAFE_EXEC_CHECKPOINT_H_
