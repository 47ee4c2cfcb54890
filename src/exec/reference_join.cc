#include "exec/reference_join.h"

#include <algorithm>

#include "util/string_util.h"

namespace punctsafe {

Result<std::unique_ptr<ReferenceJoinOperator>> ReferenceJoinOperator::Create(
    const ContinuousJoinQuery& query) {
  auto op =
      std::unique_ptr<ReferenceJoinOperator>(new ReferenceJoinOperator());
  op->query_copy_ = query;
  op->query_ = &op->query_copy_;
  op->states_.resize(query.num_streams());
  return op;
}

bool ReferenceJoinOperator::PredicatesHold(
    const std::vector<const Tuple*>& bound, size_t upto) const {
  for (const ResolvedPredicate& p : query_->predicates()) {
    if (!p.Involves(upto)) continue;
    size_t other = p.OtherStream(upto);
    if (bound[other] == nullptr) continue;
    if (!(bound[upto]->at(p.AttrOn(upto)) ==
          bound[other]->at(p.AttrOn(other)))) {
      return false;
    }
  }
  return true;
}

void ReferenceJoinOperator::Extend(size_t fixed, const Tuple& tuple,
                                   size_t next,
                                   std::vector<const Tuple*>* current,
                                   int64_t ts) {
  if (next == query_->num_streams()) {
    std::vector<const Tuple*> parts(current->begin(), current->end());
    Emit(StreamElement::OfTuple(ConcatTuples(parts), ts));
    return;
  }
  if (next == fixed) {
    Extend(fixed, tuple, next + 1, current, ts);
    return;
  }
  for (const Tuple& candidate : states_[next]) {
    (*current)[next] = &candidate;
    if (PredicatesHold(*current, next)) {
      Extend(fixed, tuple, next + 1, current, ts);
    }
    (*current)[next] = nullptr;
  }
}

void ReferenceJoinOperator::PushTuple(size_t input, const Tuple& tuple,
                                      int64_t ts) {
  std::vector<const Tuple*> current(query_->num_streams(), nullptr);
  current[input] = &tuple;
  // Verify predicates touching `input` lazily as streams bind; start
  // the recursion from stream 0.
  Extend(input, tuple, 0, &current, ts);
  states_[input].push_back(tuple);
}

void ReferenceJoinOperator::PushPunctuation(size_t /*input*/,
                                            const Punctuation& /*p*/,
                                            int64_t /*ts*/) {
  ++metrics_.punctuations_received;  // observed, deliberately unused
}

size_t ReferenceJoinOperator::TotalLiveTuples() const {
  size_t total = 0;
  for (const auto& s : states_) total += s.size();
  return total;
}

Result<std::vector<Tuple>> ReferenceJoinResults(
    const ContinuousJoinQuery& query, const Trace& trace) {
  PUNCTSAFE_ASSIGN_OR_RETURN(std::unique_ptr<ReferenceJoinOperator> op,
                             ReferenceJoinOperator::Create(query));
  std::vector<Tuple> results;
  op->SetEmitter([&](const StreamElement& e) {
    if (e.is_tuple()) results.push_back(e.tuple);
  });
  for (const TraceEvent& e : trace) {
    std::optional<size_t> idx = query.StreamIndex(e.stream);
    if (!idx.has_value()) {
      return Status::NotFound(
          StrCat("stream '", e.stream, "' is not in the query"));
    }
    if (e.element.is_tuple()) {
      op->PushTuple(*idx, e.element.tuple, e.element.timestamp);
    }
  }
  std::sort(results.begin(), results.end());
  return results;
}

}  // namespace punctsafe
