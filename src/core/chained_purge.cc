#include "core/chained_purge.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace punctsafe {

std::string ChainedPurgePlan::ToString(
    const ContinuousJoinQuery& query) const {
  std::ostringstream out;
  out << "purge chain for " << query.stream(root_stream) << ":";
  for (const PurgeStep& step : steps) {
    out << "\n  close " << query.stream(step.target_stream) << " via "
        << step.scheme.ToString(query) << " with values from ";
    out << JoinMapped(step.bindings, ", ",
                      [&query](const LocalGpgEdge::Binding& b) {
                        return StrCat(
                            query.stream(b.source_stream), ".",
                            query.schema(b.source_stream)
                                .attribute(b.source_attr)
                                .name);
                      });
  }
  return out.str();
}

PurgeTrace TracePurgeChain(const GeneralizedPunctuationGraph& gpg,
                           size_t root_stream) {
  PUNCTSAFE_CHECK(root_stream < gpg.num_streams());
  PurgeTrace trace;
  trace.plan.root_stream = root_stream;
  std::vector<size_t> fired;
  std::vector<bool> reached = LocalReachableFrom(
      root_stream, gpg.num_streams(), gpg.edges(), &fired);
  for (size_t i : fired) {
    const LocalGpgEdge& e = gpg.edges()[i];
    trace.plan.steps.push_back({e.target_input, e.scheme, e.bindings});
  }
  for (size_t s = 0; s < reached.size(); ++s) {
    if (!reached[s]) trace.unreachable.push_back(s);
  }
  return trace;
}

Result<ChainedPurgePlan> DeriveChainedPurgePlan(
    const ContinuousJoinQuery& query, const SchemeSet& schemes,
    size_t root_stream) {
  return DeriveChainedPurgePlan(
      query, GeneralizedPunctuationGraph::Build(query, schemes), root_stream);
}

Result<ChainedPurgePlan> DeriveChainedPurgePlan(
    const ContinuousJoinQuery& query, const GeneralizedPunctuationGraph& gpg,
    size_t root_stream) {
  if (root_stream >= query.num_streams()) {
    return Status::InvalidArgument(
        StrCat("stream index ", root_stream, " out of range"));
  }
  PurgeTrace trace = TracePurgeChain(gpg, root_stream);
  if (!trace.unreachable.empty()) {
    return Status::FailedPrecondition(
        StrCat("state of ", query.stream(root_stream),
               " is not purgeable: no purge chain reaches {",
               JoinMapped(trace.unreachable, ",",
                          [&query](size_t s) { return query.stream(s); }),
               "} (Theorem 3)"));
  }
  return std::move(trace.plan);
}

}  // namespace punctsafe
