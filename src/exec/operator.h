// Push-based operator interface. Operators consume tuples and
// punctuations per input and emit output elements (join results and
// propagated punctuations) through an emitter callback, so they
// compose into arbitrary plan trees (paper Section 2.2's plan space:
// binary trees, MJoin trees, mixed).

#ifndef PUNCTSAFE_EXEC_OPERATOR_H_
#define PUNCTSAFE_EXEC_OPERATOR_H_

#include <cstdint>
#include <functional>
#include <utility>

#include "exec/metrics.h"
#include "exec/tuple_batch.h"
#include "obs/observability.h"
#include "stream/element.h"

namespace punctsafe {

/// \brief How a join operator reacts to punctuations (paper Section
/// 5.2, Plan Parameter II, after [Ding et al. 2004]).
enum class PurgePolicy {
  kEager,  ///< purge sweep on every new punctuation
  kLazy,   ///< purge sweep every `lazy_batch` punctuations
  kNone,   ///< never purge (the unbounded baseline)
};

class JoinOperator {
 public:
  using Emitter = std::function<void(const StreamElement&)>;
  /// Batch-granular result emission: the operator hands a whole staged
  /// TupleBatch downstream in one call. The batch (and any view tuples
  /// inside it — batched expansion stages rows as views over operator
  /// scratch) is only valid DURING the call: consumers must copy what
  /// they keep and must not hold references past their return. The
  /// reference is mutable so consumers can filter the selection in
  /// place.
  using BatchEmitter = std::function<void(TupleBatch&)>;

  virtual ~JoinOperator() = default;

  virtual size_t num_inputs() const = 0;

  /// \brief Consumes one data tuple on `input` at logical time `ts`.
  /// Result-identical to a PushBatch of one row (the MJoin implements
  /// it as exactly that). The executors ingest through PushBatch; the
  /// parallel executor's single-row queue messages arrive here.
  virtual void PushTuple(size_t input, const Tuple& tuple, int64_t ts) = 0;

  /// \brief Consumes a whole batch of tuples on `input`, each row at
  /// its own timestamp. Must be result-identical to pushing the rows
  /// one at a time (batching changes granularity, not semantics);
  /// operators override it to amortize punctuation/purge checks to
  /// batch boundaries and expand the whole batch as one frontier.
  /// The batch is mutable so overrides can filter its selection vector
  /// in place.
  virtual void PushBatch(size_t input, TupleBatch& batch) {
    for (size_t i = 0; i < batch.size(); ++i) {
      PushTuple(input, batch.tuple(i), batch.timestamp(i));
    }
  }

  /// \brief Consumes one punctuation on `input` at logical time `ts`.
  virtual void PushPunctuation(size_t input, const Punctuation& punctuation,
                               int64_t ts) = 0;

  /// \brief Tuples currently held across all join states.
  virtual size_t TotalLiveTuples() const = 0;

  /// \brief Punctuations currently held across all inputs.
  virtual size_t TotalLivePunctuations() const = 0;

  /// \brief Per-element channel: output punctuations, and results when
  /// no batch emitter is set. Executors attach it only to operators
  /// with a parent (an MJoin without one propagates no punctuations).
  void SetEmitter(Emitter emitter) { emitter_ = std::move(emitter); }
  /// \brief Batch-granular result channel; the executors always set it.
  /// When unset, EmitBatch falls back to the element emitter in row
  /// order, so operators call EmitBatch unconditionally.
  void SetBatchEmitter(BatchEmitter emitter) {
    batch_emitter_ = std::move(emitter);
  }

  /// \brief Attaches this operator's observation point (may be null
  /// to detach). The executor owns the OperatorObs; operators only
  /// borrow it and treat null as "observability off".
  void SetObserver(obs::OperatorObs* observer) { obs_ = observer; }
  obs::OperatorObs* observer() const { return obs_; }

  const OperatorMetrics& metrics() const { return metrics_; }

 protected:
  void Emit(const StreamElement& element) {
    if (element.is_tuple()) ++metrics_.results_emitted;
    if (emitter_) emitter_(element);
  }

  /// \brief Emits every row of `batch` (all rows are results; no
  /// selection is consulted). Counts results once for the whole batch
  /// — the fallback loop below must NOT route through Emit, or rows
  /// would double-count.
  void EmitBatch(TupleBatch& batch) {
    if (batch.empty()) return;
    metrics_.results_emitted.fetch_add(batch.size(),
                                       std::memory_order_relaxed);
    if (batch_emitter_) {
      batch_emitter_(batch);
      return;
    }
    if (!emitter_) return;
    for (size_t i = 0; i < batch.size(); ++i) {
      emitter_(StreamElement::OfTuple(batch.tuple(i), batch.timestamp(i)));
    }
  }

  Emitter emitter_;
  BatchEmitter batch_emitter_;
  OperatorMetrics metrics_;
  obs::OperatorObs* obs_ = nullptr;
};

}  // namespace punctsafe

#endif  // PUNCTSAFE_EXEC_OPERATOR_H_
