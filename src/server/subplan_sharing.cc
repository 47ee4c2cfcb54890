#include "server/subplan_sharing.h"

#include <algorithm>

#include "core/safety_checker.h"
#include "util/string_util.h"

namespace punctsafe {
namespace server {

namespace {

// Stream names of the given query-stream indices, sorted ascending.
std::vector<std::string> SortedStreamNames(const ContinuousJoinQuery& query,
                                           const std::vector<size_t>& streams) {
  std::vector<std::string> names;
  names.reserve(streams.size());
  for (size_t s : streams) names.push_back(query.stream(s));
  std::sort(names.begin(), names.end());
  return names;
}

// "s.a=s.b" rendering of a resolved predicate with the
// lexicographically smaller side first.
std::string CanonicalPredicate(const ContinuousJoinQuery& query,
                               const ResolvedPredicate& pred) {
  std::string left =
      StrCat(query.stream(pred.left_stream), ".",
             query.schema(pred.left_stream).attribute(pred.left_attr).name);
  std::string right =
      StrCat(query.stream(pred.right_stream), ".",
             query.schema(pred.right_stream).attribute(pred.right_attr).name);
  if (right < left) std::swap(left, right);
  return StrCat(left, "=", right);
}

// Predicates of `query` with both sides inside the stream set.
std::vector<const ResolvedPredicate*> PredicatesWithin(
    const ContinuousJoinQuery& query, const std::vector<size_t>& streams) {
  std::vector<const ResolvedPredicate*> out;
  auto contains = [&streams](size_t s) {
    return std::find(streams.begin(), streams.end(), s) != streams.end();
  };
  for (const ResolvedPredicate& pred : query.predicates()) {
    if (contains(pred.left_stream) && contains(pred.right_stream)) {
      out.push_back(&pred);
    }
  }
  return out;
}

// Collects the internal nodes of `shape` in post-order.
void CollectInternal(const PlanShape& shape,
                     std::vector<const PlanShape*>* out) {
  if (shape.IsLeaf()) return;
  for (const PlanShape& child : shape.children()) {
    CollectInternal(child, out);
  }
  out->push_back(&shape);
}

// Runs the safety check on the restriction of `query` to `streams`
// (false for disconnected/invalid restrictions or checker errors).
bool RestrictedSubjoinSafe(const ContinuousJoinQuery& query,
                           const SchemeSet& schemes,
                           const std::vector<size_t>& streams) {
  StreamCatalog sub_catalog;
  std::vector<std::string> names;
  for (size_t s : streams) {
    if (!sub_catalog.Register(query.stream(s), query.schema(s)).ok()) {
      return false;
    }
    names.push_back(query.stream(s));
  }
  std::vector<JoinPredicateSpec> preds;
  for (const ResolvedPredicate* pred : PredicatesWithin(query, streams)) {
    preds.push_back(
        Eq({query.stream(pred->left_stream),
            query.schema(pred->left_stream).attribute(pred->left_attr).name},
           {query.stream(pred->right_stream),
            query.schema(pred->right_stream)
                .attribute(pred->right_attr)
                .name}));
  }
  auto sub_query = ContinuousJoinQuery::Create(sub_catalog, names, preds);
  if (!sub_query.ok()) return false;  // disconnected: never shareable
  SafetyChecker checker(schemes.Restrict(names));
  auto report = checker.CheckQuery(*sub_query);
  return report.ok() && report->safe;
}

}  // namespace

std::string SubjoinSignature(const ContinuousJoinQuery& query,
                             const std::vector<size_t>& streams,
                             const SchemeSet& schemes) {
  std::vector<std::string> names = SortedStreamNames(query, streams);
  std::vector<std::string> preds;
  for (const ResolvedPredicate* pred : PredicatesWithin(query, streams)) {
    preds.push_back(CanonicalPredicate(query, *pred));
  }
  std::sort(preds.begin(), preds.end());
  // Scheme strings are sorted so registration order cannot split a
  // shareable pair.
  std::vector<std::string> scheme_strs;
  SchemeSet restricted = schemes.Restrict(names);
  for (const PunctuationScheme& s : restricted.schemes()) {
    scheme_strs.push_back(s.ToString());
  }
  std::sort(scheme_strs.begin(), scheme_strs.end());
  return StrCat("streams{", Join(names, ","), "} preds{", Join(preds, ","),
                "} schemes{", Join(scheme_strs, ","), "}");
}

std::vector<SubjoinSpec> EnumerateSubjoins(const ContinuousJoinQuery& query,
                                           const SchemeSet& schemes,
                                           const PlanShape& shape) {
  std::vector<const PlanShape*> internal;
  CollectInternal(shape, &internal);
  std::vector<SubjoinSpec> out;
  for (const PlanShape* node : internal) {
    std::vector<size_t> leaves = node->Leaves();
    if (leaves.size() < 2) continue;
    SubjoinSpec spec;
    spec.signature = SubjoinSignature(query, leaves, schemes);
    spec.streams = SortedStreamNames(query, leaves);
    spec.safe = RestrictedSubjoinSafe(query, schemes, leaves);
    // The same signature can appear once per node; report it once.
    bool seen = false;
    for (const SubjoinSpec& prev : out) {
      if (prev.signature == spec.signature) {
        seen = true;
        break;
      }
    }
    if (!seen) out.push_back(std::move(spec));
  }
  return out;
}

SharedSubjoinHandle SubjoinSharingTable::Acquire(const SubjoinSpec& spec,
                                                 bool* was_shared) {
  std::erase_if(by_signature_,
                [](const auto& entry) { return entry.second.expired(); });
  auto it = by_signature_.find(spec.signature);
  if (it != by_signature_.end()) {
    SharedSubjoinHandle live = it->second.lock();
    if (was_shared != nullptr) *was_shared = true;
    return live;
  }
  auto fresh = std::make_shared<const SubjoinSpec>(spec);
  by_signature_[spec.signature] = fresh;
  if (was_shared != nullptr) *was_shared = false;
  return fresh;
}

size_t SubjoinSharingTable::Sharers(const std::string& signature) const {
  auto it = by_signature_.find(signature);
  if (it == by_signature_.end()) return 0;
  // The table holds only a weak reference, so use_count counts the
  // query-held handles exactly.
  return static_cast<size_t>(it->second.use_count());
}

std::vector<SharedSubjoinHandle> SubjoinSharingTable::LiveStates() const {
  std::vector<SharedSubjoinHandle> out;
  for (const auto& [signature, weak] : by_signature_) {
    if (SharedSubjoinHandle live = weak.lock()) out.push_back(std::move(live));
  }
  return out;
}

}  // namespace server
}  // namespace punctsafe
