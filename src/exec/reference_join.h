// A deliberately naive n-way nested-loop join that stores every input
// tuple forever and ignores punctuations. It plays two roles:
//  * ground truth for differential tests — any punctuation-driven
//    operator must emit exactly the same result set on the same trace
//    (purging must never lose results: Definition 1's guarantee);
//  * the unbounded baseline of the paper's motivation — its join state
//    grows linearly with the input, which the E1/E11 benchmarks plot
//    against the punctuated operators.

#ifndef PUNCTSAFE_EXEC_REFERENCE_JOIN_H_
#define PUNCTSAFE_EXEC_REFERENCE_JOIN_H_

#include <memory>
#include <vector>

#include "exec/operator.h"
#include "query/cjq.h"
#include "stream/element.h"
#include "util/status.h"

namespace punctsafe {

class ReferenceJoinOperator : public JoinOperator {
 public:
  /// \brief One input per query stream; output layout matches the
  /// single-MJoin operator (streams concatenated ascending).
  static Result<std::unique_ptr<ReferenceJoinOperator>> Create(
      const ContinuousJoinQuery& query);

  size_t num_inputs() const override { return states_.size(); }
  void PushTuple(size_t input, const Tuple& tuple, int64_t ts) override;
  void PushPunctuation(size_t input, const Punctuation& punctuation,
                       int64_t ts) override;
  size_t TotalLiveTuples() const override;
  size_t TotalLivePunctuations() const override { return 0; }

 private:
  ReferenceJoinOperator() = default;

  // Recursive nested-loop expansion over streams != `fixed`.
  void Extend(size_t fixed, const Tuple& tuple, size_t next,
              std::vector<const Tuple*>* current, int64_t ts);
  bool PredicatesHold(const std::vector<const Tuple*>& bound,
                      size_t upto) const;

  const ContinuousJoinQuery* query_ = nullptr;
  ContinuousJoinQuery query_copy_;
  std::vector<std::vector<Tuple>> states_;
};

/// \brief Runs `trace` through a fresh ReferenceJoinOperator and
/// returns its result multiset, sorted — the ground truth a
/// punctuation-driven plan's sorted results must equal. NotFound if an
/// event names a stream outside `query`.
Result<std::vector<Tuple>> ReferenceJoinResults(
    const ContinuousJoinQuery& query, const Trace& trace);

}  // namespace punctsafe

#endif  // PUNCTSAFE_EXEC_REFERENCE_JOIN_H_
