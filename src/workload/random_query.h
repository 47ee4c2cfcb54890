// Random CJQ instances and punctuation-covering traces, the fuel for
// the property-test suite and the scaling benchmarks:
//
//  * MakeRandomQuery draws a connected random query (spanning tree of
//    predicates plus extra edges) and a random scheme set (some
//    streams schemeless, some with multi-attribute schemes), so the
//    full spectrum safe/unsafe/simple/generalized is sampled;
//  * MakeCoveringTrace drives any such query with generation-scoped
//    values: tuples of generation g draw every attribute from a small
//    value pool unique to g, and at the end of the generation every
//    scheme is instantiated over the whole pool. A safe query can
//    therefore purge each generation completely (bounded state); an
//    unsafe query demonstrably cannot (Experiment E11).

#ifndef PUNCTSAFE_WORKLOAD_RANDOM_QUERY_H_
#define PUNCTSAFE_WORKLOAD_RANDOM_QUERY_H_

#include <string>
#include <vector>

#include "query/cjq.h"
#include "stream/catalog.h"
#include "stream/element.h"
#include "stream/scheme.h"
#include "util/status.h"

namespace punctsafe {

struct RandomQueryConfig {
  size_t num_streams = 4;
  size_t attrs_per_stream = 3;
  /// Join predicates beyond the connecting spanning tree.
  size_t extra_predicates = 1;
  /// Probability a stream gets no scheme at all (unsafe instances).
  double schemeless_prob = 0.3;
  /// Probability a generated scheme has two punctuatable attributes.
  double multi_attr_prob = 0.0;
  /// Probability a stream gets a second scheme.
  double second_scheme_prob = 0.2;
  uint64_t seed = 1;
};

struct RandomQueryInstance {
  StreamCatalog catalog;
  std::vector<std::string> streams;
  std::vector<JoinPredicateSpec> predicate_specs;
  SchemeSet schemes;
  ContinuousJoinQuery query;
};

Result<RandomQueryInstance> MakeRandomQuery(const RandomQueryConfig& config);

struct CoveringTraceConfig {
  size_t num_generations = 20;
  size_t values_per_generation = 4;
  /// Data tuples per generation (spread randomly across streams).
  size_t tuples_per_generation = 30;
  /// Emit the generation-closing punctuations (false: raw data only).
  bool emit_punctuations = true;
  /// Zipf exponent for drawing attribute values WITHIN a generation's
  /// value pool. 0 (default) draws uniformly; s > 0 ranks the pool and
  /// draws value rank r with probability proportional to 1/(r+1)^s, so
  /// a few hot keys dominate every generation — the skewed-routing
  /// workload for sharded execution. Generation scoping (and thus
  /// purgeability) is unchanged: only the within-pool distribution
  /// skews.
  double zipf_s = 0.0;
  uint64_t seed = 2;
};

Trace MakeCoveringTrace(const ContinuousJoinQuery& query,
                        const SchemeSet& schemes,
                        const CoveringTraceConfig& config);

}  // namespace punctsafe

#endif  // PUNCTSAFE_WORKLOAD_RANDOM_QUERY_H_
