// Open-addressing hash index from join-key Values to slot buckets —
// the storage behind TupleStore's per-attribute indexes.
//
// Layout follows the flat "swiss table" scheme: slots live in groups
// of 16, and a parallel control-byte array holds a 7-bit tag of each
// occupant's hash (0x80 = empty). A lookup compares all 16 tags of a
// group in one SIMD step (exec/simd.h — SSE2/NEON, scalar fallback
// under PUNCTSAFE_NO_SIMD), touching full entries only on tag hits, so
// the common miss costs one cache line and zero Value comparisons.
//
// This replaced the previous std::unordered_map<Value, Bucket> index:
// the node-based map paid an allocation per new key plus a pointer
// chase per probe, which is where the PR 3 insert-rate regression
// lived (BENCH_hot_path.json int_insert_per_sec 6.41M -> 3.77M when
// Value began caching its hash; the map, not the hashing, was the
// cost). Entries here are stored flat and the cached Value hash is
// spread through a 64-bit finalizer before use, so sequential integer
// keys still scatter across groups.
//
// Deletion is rebuild-only: TupleStore purges by tombstoning slots and
// periodically reconstructs the whole index from survivors
// (CompactIndexes), so the table needs no tombstone machinery and
// probe chains never degrade. Pointers returned by Find/FindOrCreate
// are invalidated by any subsequent FindOrCreate (growth moves
// entries) — the same contract TupleStore::FindBucket documents.
//
// Not thread-safe; owned by a single TupleStore.

#ifndef PUNCTSAFE_EXEC_FLAT_INDEX_H_
#define PUNCTSAFE_EXEC_FLAT_INDEX_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "exec/simd.h"
#include "stream/value.h"
#include "util/small_vector.h"

namespace punctsafe {

class FlatKeyIndex {
 public:
  /// Inline bucket capacity matches TupleStore::Bucket: most buckets
  /// hold a handful of slots and stay inside the entry.
  using Bucket = SmallVector<size_t, 4>;

  FlatKeyIndex() = default;
  FlatKeyIndex(FlatKeyIndex&&) = default;
  FlatKeyIndex& operator=(FlatKeyIndex&&) = default;
  FlatKeyIndex(const FlatKeyIndex&) = delete;
  FlatKeyIndex& operator=(const FlatKeyIndex&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// \brief Pre-sizes the table for `n` keys (no-op if already large
  /// enough). Used by the compaction rebuild to avoid regrowth.
  void Reserve(size_t n) {
    size_t cap = kGroupWidth;
    while (n * 8 > cap * 7) cap *= 2;
    if (cap > capacity_) Rehash(cap);
  }

  /// \brief Bucket stored under `key`, or nullptr. `hash` must be
  /// key.Hash() (the Value's cached hash, so no key bytes are re-read).
  const Bucket* Find(size_t hash, const Value& key) const {
    if (capacity_ == 0) return nullptr;
    const uint64_t spread = Spread(hash);
    const uint8_t tag = Tag(spread);
    size_t group = GroupOf(spread);
    while (true) {
      const uint8_t* tags = ctrl_.data() + group * kGroupWidth;
      uint32_t match = simd::MatchTags16(tags, tag);
      while (match != 0) {
        const unsigned lane = std::countr_zero(match);
        match &= match - 1;
        const Entry& e = entries_[group * kGroupWidth + lane];
        if (e.hash == hash && e.key == key) return &e.bucket;
      }
      if (simd::MatchTags16(tags, kEmptyTag) != 0) return nullptr;
      group = (group + 1) & group_mask_;
    }
  }

  /// \brief Bucket stored under `key`, inserting an empty one first if
  /// absent. May grow the table: any previously returned bucket
  /// pointer is invalidated.
  Bucket* FindOrCreate(const Value& key) {
    if ((size_ + 1) * 8 > capacity_ * 7) Rehash(NextCapacity());
    const size_t hash = key.Hash();
    const uint64_t spread = Spread(hash);
    const uint8_t tag = Tag(spread);
    size_t group = GroupOf(spread);
    while (true) {
      uint8_t* tags = ctrl_.data() + group * kGroupWidth;
      uint32_t match = simd::MatchTags16(tags, tag);
      while (match != 0) {
        const unsigned lane = std::countr_zero(match);
        match &= match - 1;
        Entry& e = entries_[group * kGroupWidth + lane];
        if (e.hash == hash && e.key == key) return &e.bucket;
      }
      const uint32_t empty = simd::MatchTags16(tags, kEmptyTag);
      if (empty != 0) {
        // Probing stops at the first group with an empty slot, so the
        // key (absent) must be placed in this group to stay findable.
        const unsigned lane = std::countr_zero(empty);
        tags[lane] = tag;
        Entry& e = entries_[group * kGroupWidth + lane];
        e.hash = hash;
        e.key = key;  // owning copy: index keys never dangle
        ++size_;
        return &e.bucket;
      }
      group = (group + 1) & group_mask_;
    }
  }

  /// \brief Visits every (key, bucket) pair, in table order.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (size_t i = 0; i < capacity_; ++i) {
      if (ctrl_[i] != kEmptyTag) fn(entries_[i].key, entries_[i].bucket);
    }
  }

 private:
  static constexpr size_t kGroupWidth = 16;
  static constexpr uint8_t kEmptyTag = 0x80;

  struct Entry {
    size_t hash = 0;
    Value key;
    Bucket bucket;
  };

  /// 64-bit finalizer over the cached Value hash: Value's own mix
  /// keeps sequential int64 keys nearly sequential, which would pile
  /// whole ranges into a few groups; one multiply + xor-shift spreads
  /// them. Tag and group position both come from the spread form.
  static uint64_t Spread(size_t hash) {
    uint64_t x = static_cast<uint64_t>(hash);
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    return x;
  }
  static uint8_t Tag(uint64_t spread) {
    return static_cast<uint8_t>(spread & 0x7F);
  }
  size_t GroupOf(uint64_t spread) const {
    return (spread >> 7) & group_mask_;
  }

  size_t NextCapacity() const {
    return capacity_ == 0 ? kGroupWidth : capacity_ * 2;
  }

  void Rehash(size_t new_capacity) {
    std::vector<uint8_t> old_ctrl = std::move(ctrl_);
    std::vector<Entry> old_entries = std::move(entries_);
    const size_t old_capacity = capacity_;
    capacity_ = new_capacity;
    group_mask_ = new_capacity / kGroupWidth - 1;
    ctrl_.assign(new_capacity, kEmptyTag);
    entries_.clear();
    entries_.resize(new_capacity);
    for (size_t i = 0; i < old_capacity; ++i) {
      if (old_ctrl[i] == kEmptyTag) continue;
      Entry& src = old_entries[i];
      const uint64_t spread = Spread(src.hash);
      size_t group = GroupOf(spread);
      while (true) {
        uint8_t* tags = ctrl_.data() + group * kGroupWidth;
        const uint32_t empty = simd::MatchTags16(tags, kEmptyTag);
        if (empty != 0) {
          const unsigned lane = std::countr_zero(empty);
          tags[lane] = Tag(spread);
          entries_[group * kGroupWidth + lane] = std::move(src);
          break;
        }
        group = (group + 1) & group_mask_;
      }
    }
  }

  std::vector<uint8_t> ctrl_;
  std::vector<Entry> entries_;
  size_t capacity_ = 0;
  size_t group_mask_ = 0;
  size_t size_ = 0;
};

}  // namespace punctsafe

#endif  // PUNCTSAFE_EXEC_FLAT_INDEX_H_
