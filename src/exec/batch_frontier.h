// Columnar storage for the expansion frontier of a whole TupleBatch:
// partial join assignments carried as per-input tuple-pointer COLUMNS
// plus a row-provenance column mapping each frontier row back to the
// source batch row it descends from (docs/PERF.md, "Batched
// expansion").
//
// The predecessor (AssignmentBuffer) stored assignments row-major, one
// frontier per *source row*: every hop re-resolved buckets per row and
// verification touched Values pointer-by-pointer. Column-major layout
// over the whole batch is what lets a hop
//  * gather the probe-key hashes of every frontier row into one
//    contiguous column (SIMD run detection then spans source rows, not
//    just the children of one row), and
//  * run the cached-hash verification prefilter over a (row, candidate)
//    pair list before exact Value equality sees the survivors.
//
// Reset() keeps every column's capacity, so the steady-state expansion
// path allocates nothing; the operators charge any capacity growth to
// StateMetrics::expand_allocs. Rows are only appended from a
// *different* frontier (the expand loops ping-pong two buffers), so
// AppendExtended never invalidates the row it copies from.

#ifndef PUNCTSAFE_EXEC_BATCH_FRONTIER_H_
#define PUNCTSAFE_EXEC_BATCH_FRONTIER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/tuple_batch.h"
#include "stream/tuple.h"

namespace punctsafe {

class BatchFrontier {
 public:
  /// \brief Empties the frontier (column capacities retained) and fixes
  /// the input count for subsequent appends.
  void Reset(size_t width) {
    if (cols_.size() != width) cols_.resize(width);
    for (auto& col : cols_) col.clear();
    src_row_.clear();
  }

  size_t width() const { return cols_.size(); }
  size_t size() const { return src_row_.size(); }
  bool empty() const { return src_row_.empty(); }

  /// \brief The stored-tuple pointer of `row` for `input` (nullptr =
  /// that input is not expanded yet).
  const Tuple* cell(size_t row, size_t input) const {
    return cols_[input][row];
  }
  /// \brief The source-batch row this frontier row descends from (0
  /// for single-tuple seeds). Timestamps of emitted results are looked
  /// up through this column.
  uint32_t src_row(size_t row) const { return src_row_[row]; }

  /// \brief Raw base of one input's tuple-pointer column (valid until
  /// the next append) — lets emission walk a column sequentially
  /// instead of re-resolving cell(row, input) per row.
  const Tuple* const* column(size_t input) const {
    return cols_[input].data();
  }

  /// \brief Seeds one row from a single tuple on `input` (the
  /// removability check's joinable set; provenance row 0).
  void SeedSingle(const Tuple* tuple, size_t input) {
    for (size_t c = 0; c < cols_.size(); ++c) {
      cols_[c].push_back(c == input ? tuple : nullptr);
    }
    src_row_.push_back(0);
  }

  /// \brief Seeds one row per *selected* row of `batch` on `input`,
  /// with provenance pointing at the selected row ids — the whole
  /// selection vector becomes the initial frontier in one pass.
  void SeedFromBatch(const TupleBatch& batch, size_t input) {
    const std::vector<uint32_t>& sel = batch.selection();
    for (size_t c = 0; c < cols_.size(); ++c) {
      if (c == input) {
        for (uint32_t row : sel) cols_[c].push_back(&batch.tuple(row));
      } else {
        cols_[c].resize(cols_[c].size() + sel.size(), nullptr);
      }
    }
    src_row_.insert(src_row_.end(), sel.begin(), sel.end());
  }

  /// \brief Appends a copy of row `row` of `in` with input `at`
  /// overwritten by `cand`; provenance carries over. `in` must be a
  /// different frontier.
  void AppendExtended(const BatchFrontier& in, size_t row, size_t at,
                      const Tuple* cand) {
    for (size_t c = 0; c < cols_.size(); ++c) {
      cols_[c].push_back(c == at ? cand : in.cols_[c][row]);
    }
    src_row_.push_back(in.src_row_[row]);
  }

  /// \brief Bulk row-major product append: for every row in
  /// [row0, row0 + len) of `in`, one output row per candidate, with
  /// input `at` set to that candidate — exactly the rows a loop of
  /// AppendExtended(in, r, at, cands[j]) would append, in the same
  /// (r outer, j inner) order, but written column-segment-at-a-time.
  /// This is the batch path's replacement for per-pair appends when a
  /// whole same-key run shares one candidate list; `in` must be a
  /// different frontier.
  void AppendProduct(const BatchFrontier& in, size_t row0, size_t len,
                     size_t at, const Tuple* const* cands, size_t ncands) {
    const size_t old = src_row_.size();
    const size_t add = len * ncands;
    for (size_t c = 0; c < cols_.size(); ++c) {
      std::vector<const Tuple*>& col = cols_[c];
      col.resize(old + add);
      const Tuple** dst = col.data() + old;
      if (c == at) {
        for (size_t r = 0; r < len; ++r) {
          for (size_t j = 0; j < ncands; ++j) *dst++ = cands[j];
        }
      } else {
        const Tuple* const* src = in.cols_[c].data() + row0;
        for (size_t r = 0; r < len; ++r) {
          const Tuple* v = src[r];
          for (size_t j = 0; j < ncands; ++j) *dst++ = v;
        }
      }
    }
    src_row_.resize(old + add);
    uint32_t* dst = src_row_.data() + old;
    const uint32_t* src = in.src_row_.data() + row0;
    for (size_t r = 0; r < len; ++r) {
      for (size_t j = 0; j < ncands; ++j) *dst++ = src[r];
    }
  }

  /// \brief Summed column capacities, the expand_allocs accounting
  /// input: growth between two readings means the steady state
  /// allocated.
  size_t CapacitySum() const {
    size_t total = src_row_.capacity();
    for (const auto& col : cols_) total += col.capacity();
    return total;
  }

 private:
  std::vector<std::vector<const Tuple*>> cols_;  // cols_[input][row]
  std::vector<uint32_t> src_row_;
};

}  // namespace punctsafe

#endif  // PUNCTSAFE_EXEC_BATCH_FRONTIER_H_
