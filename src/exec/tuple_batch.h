// The unit of batched execution: a fixed-capacity run of tuples from
// one input, carried through ingestion, queues, and operators as a
// single object (docs/PERF.md, "Batched & vectorized execution").
//
// The **selection vector** lists the active row indices, so
// predicate / punctuation-exclusion filtering drops rows without
// moving tuple payloads — downstream stages iterate the selection,
// not the raw rows.
//
// Tuple slots are POOLED: Clear() resets the logical size but keeps
// the constructed Tuples, so a recycled batch re-fills by
// copy/move-assignment into warm slots — Tuple's copy-assign reuses
// the slot's value-vector capacity, which makes the steady-state
// build-append-clear cycle allocation-free for rows whose values fit
// Value's inline buffer (this is what fixed the str-insert batch
// regression: push_back-into-cleared-vector paid one tuple copy
// allocation per append). Move-appending a *view* tuple keeps the
// view (no payload copy); avoid mixing view moves and value copies
// through the same batch, or the recycled slots' capacity churns.
//
// A batch never mixes inputs and never contains punctuations: the
// executors flush the open batch before forwarding a punctuation,
// which is the batch-boundary ordering guarantee (results produced
// from a batch are emitted before any punctuation that arrived after
// it). Timestamps stay per-row — batching changes granularity, not
// semantics, and a batch of capacity 1 reproduces tuple-at-a-time
// execution exactly.
//
// Not thread-safe; a batch has exactly one consumer at a time.

#ifndef PUNCTSAFE_EXEC_TUPLE_BATCH_H_
#define PUNCTSAFE_EXEC_TUPLE_BATCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "stream/tuple.h"

namespace punctsafe {

class TupleBatch {
 public:
  /// Default unit of batched hand-off; ExecutorConfig::batch_size
  /// overrides it per executor.
  static constexpr size_t kDefaultCapacity = 128;

  TupleBatch() : TupleBatch(kDefaultCapacity) {}
  explicit TupleBatch(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    tuples_.reserve(capacity_);
    timestamps_.reserve(capacity_);
  }

  TupleBatch(const TupleBatch&) = default;
  TupleBatch& operator=(const TupleBatch&) = default;
  // Explicit moves so the source's logical size resets with its moved
  // vectors: a moved-from batch is empty and safely reusable (the
  // parallel emit staging moves a staged batch out and keeps filling
  // the same object).
  TupleBatch(TupleBatch&& other) noexcept
      : capacity_(other.capacity_),
        size_(other.size_),
        tuples_(std::move(other.tuples_)),
        timestamps_(std::move(other.timestamps_)),
        selection_(std::move(other.selection_)) {
    other.size_ = 0;
  }
  TupleBatch& operator=(TupleBatch&& other) noexcept {
    if (this != &other) {
      capacity_ = other.capacity_;
      size_ = other.size_;
      tuples_ = std::move(other.tuples_);
      timestamps_ = std::move(other.timestamps_);
      selection_ = std::move(other.selection_);
      other.size_ = 0;
    }
    return *this;
  }

  size_t capacity() const { return capacity_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ >= capacity_; }

  void Append(const Tuple& tuple, int64_t ts) {
    if (size_ < tuples_.size()) {
      tuples_[size_] = tuple;  // copy-assign reuses slot capacity
    } else {
      tuples_.push_back(tuple);
    }
    ++size_;
    timestamps_.push_back(ts);
  }
  void Append(Tuple&& tuple, int64_t ts) {
    if (size_ < tuples_.size()) {
      tuples_[size_] = std::move(tuple);
    } else {
      tuples_.push_back(std::move(tuple));
    }
    ++size_;
    timestamps_.push_back(ts);
  }

  /// \brief Appends a non-owning view row without constructing a
  /// temporary Tuple: a warm slot is rebound in place (pooled
  /// value-vector capacity retained), a cold slot is emplaced as a
  /// view. Same contract as Append of a view tuple — `data` must stay
  /// valid until the batch is consumed.
  void AppendView(const Value* data, size_t width, int64_t ts) {
    if (size_ < tuples_.size()) {
      tuples_[size_].BindExternal(data, width);
    } else {
      tuples_.emplace_back(Tuple::ExternalRef{}, data, width);
    }
    ++size_;
    timestamps_.push_back(ts);
  }

  const Tuple& tuple(size_t i) const { return tuples_[i]; }
  int64_t timestamp(size_t i) const { return timestamps_[i]; }

  /// \brief Timestamp of the first row (queue-merge ordering key).
  int64_t first_timestamp() const { return timestamps_.front(); }
  /// \brief Largest row timestamp (watermark fold, one pass).
  int64_t max_timestamp() const {
    return *std::max_element(timestamps_.begin(), timestamps_.end());
  }

  /// \brief Empties the batch for reuse; capacity, vector storage, AND
  /// the constructed tuple slots are retained (see the pooling note in
  /// the file comment), so a recycled batch allocates nothing
  /// steady-state.
  void Clear() {
    size_ = 0;
    timestamps_.clear();
    selection_.clear();
  }

  /// \brief Selects every row (identity selection). Call before
  /// filtering; the operators iterate the selection.
  void SelectAll() {
    selection_.resize(size_);
    std::iota(selection_.begin(), selection_.end(), 0u);
  }

  const std::vector<uint32_t>& selection() const { return selection_; }
  /// \brief In-place filtering: operators rewrite the selection to
  /// drop rows (ascending row order must be preserved).
  std::vector<uint32_t>* mutable_selection() { return &selection_; }

  /// \brief Capacity of the pooled tuple-slot vector (expand_allocs
  /// accounting input for operators that stage output batches).
  size_t TupleCapacity() const { return tuples_.capacity(); }

 private:
  size_t capacity_;
  size_t size_ = 0;  // logical rows; tuples_ may hold more (pooled)
  std::vector<Tuple> tuples_;
  std::vector<int64_t> timestamps_;
  std::vector<uint32_t> selection_;
};

}  // namespace punctsafe

#endif  // PUNCTSAFE_EXEC_TUPLE_BATCH_H_
