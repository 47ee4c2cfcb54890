// The generalized punctuation graph machinery (paper Definitions 8-9,
// Theorem 3, and the Section 3.2.1 chained purge order), built once at
// the level of one join operator's inputs.
//
// A join operator inside an execution plan sees *inputs* (raw streams
// or sub-plan outputs). Vertices are the operator's inputs, and a
// punctuation scheme available on input k (originating from query
// stream `origin_stream`) with punctuatable attributes {A_1, ..., A_m}
// yields a generalized edge {source inputs} -> k, one per choice of an
// input joined with the scheme's stream on each A_i. The query-level
// GPG (generalized_punctuation_graph.h) is this graph over singleton
// inputs (input k = stream k); plan safety (plan_safety.h), the cost
// model, the safe-plan enumerator and the runtime MJoin purge logic
// (exec/mjoin.h) all run CheckOperator on an operator's inputs. The
// runtime additionally consumes the per-attribute bindings to know
// which stored values instantiate the required punctuations.
//
// Edge generation notes (documented in DESIGN.md):
//  * a scheme only yields edges when every punctuatable attribute is a
//    join attribute crossing the operator — a punctuation constraining
//    a non-join attribute can never close a join value with finitely
//    many instantiations;
//  * when one punctuatable attribute joins several partner inputs, any
//    partner can supply the values, so one edge is emitted per
//    combination of partner choices (deduplicated by source set within
//    the scheme), at most kMaxCombinationsPerScheme combinations per
//    scheme. Dropping combinations only removes edges, so a truncated
//    graph is conservative, never unsound.

#ifndef PUNCTSAFE_CORE_LOCAL_GRAPH_H_
#define PUNCTSAFE_CORE_LOCAL_GRAPH_H_

#include <cstddef>
#include <string>
#include <vector>

#include "query/cjq.h"
#include "stream/scheme.h"

namespace punctsafe {

/// \brief Upper bound on partner-choice combinations expanded per
/// scheme; beyond it the remaining combinations are dropped. Generously
/// above anything a real query produces.
inline constexpr size_t kMaxCombinationsPerScheme = 4096;

/// \brief A punctuation scheme as visible on a (possibly composite)
/// plan-tree edge: the originating query stream plus its punctuatable
/// attributes in that stream's schema.
struct AvailableScheme {
  size_t origin_stream = 0;
  std::vector<size_t> attrs;

  bool operator==(const AvailableScheme& other) const {
    return origin_stream == other.origin_stream && attrs == other.attrs;
  }

  /// \brief "S2(_, +, _)", as PunctuationScheme::ToString renders it.
  std::string ToString(const ContinuousJoinQuery& query) const;
};

/// \brief The punctuation schemes of `stream` usable within `query`,
/// as AvailableSchemes (arity-mismatched schemes are ignored).
std::vector<AvailableScheme> RawAvailableSchemes(
    const ContinuousJoinQuery& query, const SchemeSet& schemes,
    size_t stream);

/// \brief One operator input: the query streams underneath it and the
/// schemes its sub-plan can deliver.
struct LocalInput {
  std::vector<size_t> streams;  ///< sorted query stream indices
  std::vector<AvailableScheme> schemes;

  /// \brief The raw-stream input for query stream `stream`.
  static LocalInput Leaf(const ContinuousJoinQuery& query,
                         const SchemeSet& schemes, size_t stream);
};

/// \brief A generalized edge between operator inputs, with the
/// value-supply bindings the runtime needs.
struct LocalGpgEdge {
  /// \brief How one punctuatable attribute of the target scheme is
  /// supplied across the operator.
  struct Binding {
    size_t target_attr = 0;     ///< attr on the scheme's origin stream
    size_t source_input = 0;    ///< operator input supplying values
    size_t source_stream = 0;   ///< query stream inside that input
    size_t source_attr = 0;     ///< attribute on the source stream
  };

  std::vector<size_t> source_inputs;  ///< sorted, deduplicated
  size_t target_input = 0;
  AvailableScheme scheme;
  std::vector<Binding> bindings;  ///< one per punctuatable attribute
};

/// \brief Definition 8: all generalized edges for an operator over
/// `inputs` under the query's predicates, grouped by target input in
/// input order, then by scheme. Sets `*truncated` (when given) iff
/// some scheme hit kMaxCombinationsPerScheme.
std::vector<LocalGpgEdge> BuildLocalEdges(
    const ContinuousJoinQuery& query, const std::vector<LocalInput>& inputs,
    bool* truncated = nullptr);

/// \brief Definition 9 fixpoint over operator inputs: the inputs
/// reachable from `start` (start included). When `fired` is given it
/// receives, in firing order, the index of the edge that covered each
/// newly reached input — the chained purge order of Section 3.2.1.
std::vector<bool> LocalReachableFrom(size_t start, size_t num_inputs,
                                     const std::vector<LocalGpgEdge>& edges,
                                     std::vector<size_t>* fired = nullptr);

/// \brief True iff `start` reaches every input (Theorem 3 at the
/// operator level).
bool LocalInputPurgeable(size_t start, size_t num_inputs,
                         const std::vector<LocalGpgEdge>& edges);

/// \brief One operator judged over its child inputs.
struct OperatorCheck {
  std::vector<LocalGpgEdge> edges;
  /// Per input: Theorem 3 purgeability of its join state here.
  std::vector<bool> input_purgeable;
  /// The input this operator exposes to its parent: the sorted union of
  /// the child streams, and the schemes of the purgeable inputs only (a
  /// purgeable input's punctuations can be regenerated on the output
  /// once its matching stored tuples are gone — the operational reading
  /// of the paper's Lemma 1/2 induction).
  LocalInput output;

  /// \brief Definition 2: every input purgeable.
  bool purgeable() const;
};

/// \brief Builds the operator's edges and runs the Theorem 3 check per
/// input. The one place the scheme-propagation rule lives.
OperatorCheck CheckOperator(const ContinuousJoinQuery& query,
                            const std::vector<LocalInput>& inputs);

/// \brief Attribute `offset` of input `input`'s composite row (its
/// streams' schemas concatenated in ascending stream order).
struct JoinAttr {
  size_t input;
  size_t offset;
};

/// \brief The operator's join-attribute classes: each equi-join
/// predicate between two inputs unions its endpoints. Members come in
/// (input, offset) order, classes in union-find root order, so the
/// partition router picks its key class deterministically; MJoin
/// retirement finishes values per class.
std::vector<std::vector<JoinAttr>> JoinAttrClasses(
    const ContinuousJoinQuery& query, const std::vector<LocalInput>& inputs);

}  // namespace punctsafe

#endif  // PUNCTSAFE_CORE_LOCAL_GRAPH_H_
