// Cross-query sub-plan sharing for the multi-query ingestion server
// (docs/SERVER.md): when two registered queries contain syntactically
// identical *safe* sub-joins, the state those sub-joins accumulate is
// identical too — "Safe Subjoins in Acyclic Joins" (PAPERS.md) gives
// the theory for why safety of the sub-join is the sharing
// precondition. This module detects such sub-joins and records the
// sharing decision behind a refcounted handle per signature; executing
// a shared sub-join once for all its holders is the recorded
// follow-up, and the handle carries the decision it needs.
//
// Identity is syntactic and conservative: the canonical signature
// folds in the sorted stream set, the canonicalized equi-join
// predicates, and the punctuation schemes relevant to those streams.
// Queries registered with different schemes on the same join
// therefore never share (their purge behavior differs), and unsafe
// sub-joins never share (their punctuation state is not a sufficient
// summary — exactly the paper's unbounded case).

#ifndef PUNCTSAFE_SERVER_SUBPLAN_SHARING_H_
#define PUNCTSAFE_SERVER_SUBPLAN_SHARING_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "query/cjq.h"
#include "query/plan_shape.h"
#include "stream/scheme.h"

namespace punctsafe {
namespace server {

/// \brief One sub-join of a registered plan: an internal plan node
/// spanning >= 2 streams, restricted to the predicates among them.
struct SubjoinSpec {
  /// Canonical identity (see SubjoinSignature).
  std::string signature;
  /// Stream names of the sub-join, sorted ascending.
  std::vector<std::string> streams;
  /// True iff the restricted sub-query passed the safety check — the
  /// precondition for sharing its state across queries.
  bool safe = false;
};

/// \brief Canonical signature of a sub-join: sorted stream names,
/// sorted "s.a=s.b" predicate renderings (lexicographically smaller
/// side first), and the restricted scheme set. Two sub-joins share
/// iff their signatures are byte-identical.
std::string SubjoinSignature(const ContinuousJoinQuery& query,
                             const std::vector<size_t>& streams,
                             const SchemeSet& schemes);

/// \brief Enumerates the sub-joins of `shape` over `query` — one per
/// internal node — marking each safe iff the sub-query restricted to
/// the node's leaves (streams, predicates among them, schemes on
/// them) passes the SafetyChecker. Nodes whose restriction is not a
/// valid CJQ (disconnected sub-join) are reported unsafe: a shared
/// cross-product summary is never state-bounded.
std::vector<SubjoinSpec> EnumerateSubjoins(const ContinuousJoinQuery& query,
                                           const SchemeSet& schemes,
                                           const PlanShape& shape);

/// \brief One sub-join signature held by every query that contains
/// it; the handle's refcount is the number of sharers.
using SharedSubjoinHandle = std::shared_ptr<const SubjoinSpec>;

/// \brief The registry-wide sharing table: signature -> live shared
/// handle. Handles are refcounted; a signature dies with the last
/// query holding it (dead entries are pruned on the next Acquire).
class SubjoinSharingTable {
 public:
  /// \brief Returns the live handle for `spec.signature`, creating it
  /// if absent. `*was_shared` reports whether another query already
  /// held it — the sharing decision surfaced at registration.
  SharedSubjoinHandle Acquire(const SubjoinSpec& spec, bool* was_shared);

  /// \brief Queries currently holding the signature's handle (0 when
  /// dead/unknown). Counts only query-held references.
  size_t Sharers(const std::string& signature) const;

  /// \brief Live handles in signature order (dead entries are
  /// skipped).
  std::vector<SharedSubjoinHandle> LiveStates() const;

 private:
  std::map<std::string, std::weak_ptr<const SubjoinSpec>> by_signature_;
};

}  // namespace server
}  // namespace punctsafe

#endif  // PUNCTSAFE_SERVER_SUBPLAN_SHARING_H_
