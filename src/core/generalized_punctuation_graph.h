// The generalized punctuation graph (paper Definitions 8-10) and the
// Section 4.2 safety results.
//
// A scheme with punctuatable attributes {A_1, ..., A_m} on stream S
// contributes a *generalized directed edge* {S_1, ..., S_m} -> S,
// where S_k is a stream joined with S on A_k: once a purge chain has
// covered all the source streams, the finite joinable-value
// combinations over (A_1, ..., A_m) are known and finitely many scheme
// instantiations close S (the generalized chained purge strategy).
//
//  - Definition 9: reachability is the fixpoint that adds a target
//    once *all* sources of one of its generalized edges are reached.
//  - Theorem 3:    the join state of S_i is purgeable iff S_i reaches
//    every other node.
//  - Corollary 2 / Theorem 4: operator / CJQ safe iff strongly
//    connected under Definition 10.
//
// The graph is the operator-local graph of local_graph.h over
// singleton inputs (input k = query stream k): the edge builder, its
// per-scheme combination cap and the fixpoint are the ones every plan
// operator and the runtime MJoin use, so edge indices, source inputs
// and target inputs here are stream indices.

#ifndef PUNCTSAFE_CORE_GENERALIZED_PUNCTUATION_GRAPH_H_
#define PUNCTSAFE_CORE_GENERALIZED_PUNCTUATION_GRAPH_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/local_graph.h"
#include "query/cjq.h"
#include "stream/scheme.h"

namespace punctsafe {

class GeneralizedPunctuationGraph {
 public:
  /// \brief Logs one warning when the build is truncated().
  static GeneralizedPunctuationGraph Build(const ContinuousJoinQuery& query,
                                           const SchemeSet& schemes);

  size_t num_streams() const { return num_streams_; }
  const std::vector<LocalGpgEdge>& edges() const { return edges_; }

  /// \brief Definition 9 fixpoint: nodes reachable from `start`
  /// (start included).
  std::vector<bool> ReachableFrom(size_t start) const;

  /// \brief Theorem 3: per-stream purgeability.
  bool StatePurgeable(size_t stream) const;

  /// \brief Witness streams for a negative Theorem 3 verdict.
  std::vector<size_t> UnreachableFrom(size_t stream) const;

  /// \brief Definition 10 / Corollary 2 / Theorem 4.
  bool IsStronglyConnected() const;

  /// \brief True iff some combination expansion hit
  /// kMaxCombinationsPerScheme (verdicts may then be conservative).
  bool truncated() const { return truncated_; }

  std::string ToString(const ContinuousJoinQuery& query) const;

  /// \brief Graphviz rendering; generalized edges with several
  /// sources appear as a point-shaped junction node (the Figure 9
  /// "generalized node").
  std::string ToDot(const ContinuousJoinQuery& query) const;

 private:
  size_t num_streams_ = 0;
  std::vector<LocalGpgEdge> edges_;
  bool truncated_ = false;
};

}  // namespace punctsafe

#endif  // PUNCTSAFE_CORE_GENERALIZED_PUNCTUATION_GRAPH_H_
