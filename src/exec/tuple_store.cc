#include "exec/tuple_store.h"

#include <cstring>
#include <new>

#include "util/logging.h"

namespace punctsafe {

TupleStore::TupleStore(std::vector<size_t> indexed_offsets,
                       TupleStoreOptions options)
    : indexed_offsets_(std::move(indexed_offsets)),
      arena_(options.arena_block_bytes) {
  indexes_.resize(indexed_offsets_.size());
  for (size_t i = 0; i < indexed_offsets_.size(); ++i) {
    size_t offset = indexed_offsets_[i];
    if (offset >= offset_to_index_.size()) {
      offset_to_index_.resize(offset + 1, kNoIndex);
    }
    PUNCTSAFE_CHECK(offset_to_index_[offset] == kNoIndex)
        << "duplicate indexed offset " << offset;
    offset_to_index_[offset] = i;
  }
}

size_t TupleStore::InsertRow(const Tuple& tuple) {
  size_t slot = handles_.size();
  for (size_t i = 0; i < indexed_offsets_.size(); ++i) {
    PUNCTSAFE_CHECK(indexed_offsets_[i] < tuple.size())
        << "indexed offset beyond tuple arity";
    // The cached hash makes this O(1) even for string keys; the Value
    // key is copied (into owning storage) only the first time a key
    // appears in the index.
    indexes_[i].FindOrCreate(tuple.at(indexed_offsets_[i]))->push_back(slot);
  }
  return AppendRowStorage(tuple);
}

size_t TupleStore::AppendRowStorage(const Tuple& tuple) {
  size_t slot = AppendRowPayload(tuple);
  live_.push_back(true);
  pos_in_live_.push_back(live_slots_.size());
  live_slots_.push_back(slot);
  ++live_count_;
  return slot;
}

size_t TupleStore::AppendRowPayload(const Tuple& tuple) {
  size_t slot = handles_.size();
  // One bump allocation holds the whole tuple: the Value array first,
  // then the payload bytes of every string too long for Value's inline
  // buffer. One allocation means one owning block per tuple, which is
  // what makes per-block live counting exact.
  size_t n = tuple.size();
  size_t payload = 0;
  for (const Value& v : tuple.values()) payload += v.ExternalBytes();
  EpochArena::Allocation alloc = arena_.Allocate(n * sizeof(Value) + payload);
  Value* values = reinterpret_cast<Value*>(alloc.ptr);
  char* bytes = alloc.ptr + n * sizeof(Value);
  for (size_t i = 0; i < n; ++i) {
    const Value& src = tuple.at(i);
    size_t extern_bytes = src.ExternalBytes();
    if (extern_bytes > 0) {
      std::string_view sv = src.AsString();
      std::memcpy(bytes, sv.data(), extern_bytes);
      new (values + i) Value(Value::ExternalString(
          bytes, static_cast<uint32_t>(extern_bytes), src.Hash()));
      bytes += extern_bytes;
    } else {
      // Scalars and inline-capable strings are self-contained; the
      // copy is a plain payload copy, no allocation.
      new (values + i) Value(src);
    }
  }
  handles_.emplace_back(Tuple::ExternalRef{}, values, n);
  slot_block_.push_back(alloc.block);
  return slot;
}

size_t TupleStore::Insert(const Tuple& tuple) {
  size_t slot = InsertRow(tuple);
  NoteArenaGrowth();
  metrics_.OnInsert();
  return slot;
}

void TupleStore::NoteArenaGrowth() {
  uint64_t block_allocs = arena_.blocks_allocated();
  metrics_.OnInsertAllocs(block_allocs - last_block_allocs_);
  last_block_allocs_ = block_allocs;
  metrics_.OnArenaEpoch(0, arena_.bytes_reserved(), arena_.bytes_live());
}

size_t TupleStore::InsertBatch(const TupleBatch& batch) {
  const std::vector<uint32_t>& sel = batch.selection();
  if (sel.empty()) return 0;
  // The metrics tail — two atomic adds, the arena block-alloc delta,
  // and the gauge refresh — runs once per batch; the delta
  // accumulation makes the final counter values identical to a
  // per-row Insert loop. Slot bookkeeping that would grow mid-batch
  // grows once up front — keeping the at-least-doubling step so
  // repeated batches stay amortized O(1) (reserving to the exact
  // size every batch would degrade growth to quadratic).
  const size_t total = handles_.size() + sel.size();
  auto reserve_geometric = [total](auto& v) {
    if (total > v.capacity()) v.reserve(std::max(total, v.capacity() * 2));
  };
  reserve_geometric(handles_);
  reserve_geometric(live_);
  reserve_geometric(pos_in_live_);
  reserve_geometric(live_slots_);
  reserve_geometric(slot_block_);
  if (indexed_offsets_.size() == 1) {
    // Single-index store (the common operator shape): one bucket
    // resolution per same-key run across the batch — the insert-side
    // twin of Expand's run amortization. The bucket pointer stays
    // valid for the whole run because nothing calls FindOrCreate (the
    // only operation that can grow the index) until the key changes.
    const size_t off = indexed_offsets_[0];
    FlatKeyIndex::Bucket* bucket = nullptr;
    const Value* run_key = nullptr;
    for (uint32_t row : sel) {
      const Tuple& tuple = batch.tuple(row);
      PUNCTSAFE_CHECK(off < tuple.size())
          << "indexed offset beyond tuple arity";
      const Value& key = tuple.at(off);
      if (run_key == nullptr || !(*run_key == key)) {
        bucket = indexes_[0].FindOrCreate(key);
        run_key = &key;
      }
      bucket->push_back(handles_.size());
      AppendRowPayload(tuple);
    }
    // Bulk live bookkeeping: the batch's slots are consecutive
    // [first_slot, total) and all live, so the three per-row
    // push_backs (one into a bit vector) collapse into sequential
    // fills.
    const size_t first_slot = total - sel.size();
    const size_t first_pos = live_slots_.size();
    live_.resize(total, true);
    pos_in_live_.resize(total);
    live_slots_.resize(first_pos + sel.size());
    for (size_t i = 0; i < sel.size(); ++i) {
      pos_in_live_[first_slot + i] = first_pos + i;
      live_slots_[first_pos + i] = first_slot + i;
    }
    live_count_ += sel.size();
  } else {
    for (uint32_t row : sel) InsertRow(batch.tuple(row));
  }
  NoteArenaGrowth();
  metrics_.OnInserts(sel.size());
  return sel.size();
}

void TupleStore::Remove(size_t slot) {
  PUNCTSAFE_CHECK(slot < live_.size());
  if (!live_[slot]) return;
  live_[slot] = false;
  // Swap-remove from the dense live list.
  size_t pos = pos_in_live_[slot];
  size_t last = live_slots_.back();
  live_slots_[pos] = last;
  pos_in_live_[last] = pos;
  live_slots_.pop_back();
  --live_count_;
  ++dead_count_;
  // Payload release is deferred to the epoch boundary: probe results
  // referencing this slot stay valid for the rest of the step.
  released_.push_back(slot);
  MaybeCompactIndexes();
}

void TupleStore::AdvanceEpoch() {
  for (size_t slot : released_) {
    arena_.NoteDead(slot_block_[slot]);
    // Clear the handle: the slot id stays tombstoned forever, but the
    // block's claim on its payload goes now.
    handles_[slot] = Tuple();
  }
  released_.clear();
  size_t reclaimed = arena_.AdvanceEpoch();
  metrics_.OnArenaEpoch(reclaimed, arena_.bytes_reserved(),
                        arena_.bytes_live());
  if (obs::kCompiled && obs_ != nullptr) {
    obs_->Note(obs::TraceKind::kEpochAdvance, reclaimed, arena_.bytes_live());
  }
}

void TupleStore::ForEachLive(
    const std::function<void(size_t, const Tuple&)>& fn) const {
  for (size_t slot : live_slots_) fn(slot, handles_[slot]);
}

bool TupleStore::AnyLive(
    const std::function<bool(const Tuple&)>& pred) const {
  for (size_t slot : live_slots_) {
    if (pred(handles_[slot])) return true;
  }
  return false;
}

void TupleStore::PurgeSlots(const std::vector<size_t>& slots) {
  size_t removed = 0;
  for (size_t slot : slots) {
    if (IsLive(slot)) {
      Remove(slot);
      ++removed;
    }
  }
  metrics_.OnPurge(removed);
}

void TupleStore::MaybeCompactIndexes() {
  // Rebuild once dead slots dominate, keeping probe cost proportional
  // to live data (same thresholds as the probe-path trigger; see the
  // constants in the header).
  if (dead_count_ < kCompactMinDead ||
      dead_count_ < live_count_ * kCompactDeadFactor) {
    return;
  }
  CompactIndexes();
}

void TupleStore::CompactIndexes() const {
  // Dead slots stay tombstoned in `live_` (slot ids must remain
  // stable); only the indexes are cleaned, by full rebuild: FlatKeyIndex
  // has no per-entry deletion (rebuild-only by design, so probe chains
  // never carry tombstones), and compaction is the one infrequent spot
  // where a rebuild amortizes. Per-bucket slot order is preserved, so
  // probe emission order is unchanged.
  metrics_.OnIndexCompaction();
  for (size_t i = 0; i < indexes_.size(); ++i) {
    FlatKeyIndex fresh;
    fresh.Reserve(indexes_[i].size());
    indexes_[i].ForEachEntry([&](const Value& key, const Bucket& slots) {
      Bucket* kept = nullptr;
      for (size_t slot : slots) {
        if (!live_[slot]) continue;
        if (kept == nullptr) kept = fresh.FindOrCreate(key);
        kept->push_back(slot);
      }
    });
    indexes_[i] = std::move(fresh);
  }
  dead_count_ = 0;
  pending_compact_ = false;
}

}  // namespace punctsafe
