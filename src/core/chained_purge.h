// The chained purge strategy (paper Section 3.2.1, generalized in
// Section 4.2): the constructive side of Theorems 1 and 3.
//
// To purge a tuple t of stream S, walk the streams in the order the
// Definition 9 fixpoint reaches them from S. Each step names the
// punctuation scheme whose instantiations close one more stream and
// how its punctuatable attributes are supplied: either by t itself or
// by the joinable tuples T_t[Υ] accumulated at already-covered
// streams. The steps are the edges LocalReachableFrom (local_graph.h)
// records as firing on the query-level GPG, so the plan, the Theorem 3
// verdict and its unreachable witness come from one fixpoint run. The
// safety checker surfaces the plans as human-readable purge
// explanations.

#ifndef PUNCTSAFE_CORE_CHAINED_PURGE_H_
#define PUNCTSAFE_CORE_CHAINED_PURGE_H_

#include <string>
#include <vector>

#include "core/generalized_punctuation_graph.h"
#include "query/cjq.h"
#include "stream/scheme.h"
#include "util/status.h"

namespace punctsafe {

/// \brief One step of a chained purge plan: which stream becomes
/// closed, with which scheme, fed by which covered streams.
struct PurgeStep {
  size_t target_stream = 0;
  AvailableScheme scheme;
  /// One binding per punctuatable attribute of the scheme; the source
  /// streams are guaranteed to be covered by earlier steps (or be the
  /// root itself).
  std::vector<LocalGpgEdge::Binding> bindings;
};

/// \brief The plan for purging tuples of `root_stream`: steps in
/// dependency order covering every stream the fixpoint reaches.
struct ChainedPurgePlan {
  size_t root_stream = 0;
  std::vector<PurgeStep> steps;

  std::string ToString(const ContinuousJoinQuery& query) const;
};

/// \brief One Definition 9 fixpoint run from `root_stream` (which must
/// be a stream of the graph).
struct PurgeTrace {
  /// Steps for every stream reached, in firing order.
  ChainedPurgePlan plan;
  /// Streams the chain never reaches: the Theorem 3 witness, empty iff
  /// the state of `root_stream` is purgeable (then `plan` covers every
  /// other stream).
  std::vector<size_t> unreachable;
};
PurgeTrace TracePurgeChain(const GeneralizedPunctuationGraph& gpg,
                           size_t root_stream);

/// \brief Derives the chained purge plan for `root_stream`.
///
/// Returns FailedPrecondition with the unreachable streams when the
/// state is not purgeable (Theorem 3 negative case).
Result<ChainedPurgePlan> DeriveChainedPurgePlan(
    const ContinuousJoinQuery& query, const SchemeSet& schemes,
    size_t root_stream);

/// \brief Same, reusing a pre-built GPG.
Result<ChainedPurgePlan> DeriveChainedPurgePlan(
    const ContinuousJoinQuery& query, const GeneralizedPunctuationGraph& gpg,
    size_t root_stream);

}  // namespace punctsafe

#endif  // PUNCTSAFE_CORE_CHAINED_PURGE_H_
