#include "core/safety_checker.h"

#include "core/generalized_punctuation_graph.h"
#include "core/punctuation_graph.h"
#include "util/string_util.h"

namespace punctsafe {

namespace {

// One fixpoint run yields both the witness and the purge plan.
StreamPurgeability MakeVerdict(const GeneralizedPunctuationGraph& gpg,
                               size_t stream) {
  PurgeTrace trace = TracePurgeChain(gpg, stream);
  StreamPurgeability verdict;
  verdict.stream = stream;
  verdict.unreachable = std::move(trace.unreachable);
  verdict.purgeable = verdict.unreachable.empty();
  if (verdict.purgeable) verdict.purge_plan = std::move(trace.plan);
  return verdict;
}

}  // namespace

Result<SafetyReport> SafetyChecker::CheckQuery(
    const ContinuousJoinQuery& query) const {
  SafetyReport report;
  SchemeSet relevant = schemes_.Restrict(query.streams());
  report.used_simple_path = relevant.AllSimple();

  // The GPG subsumes the PG for simple schemes, so per-stream detail
  // always comes from the Definition 9 fixpoint; the simple path only
  // changes how the headline verdict is computed (and is exercised for
  // agreement by the test suite).
  GeneralizedPunctuationGraph gpg =
      GeneralizedPunctuationGraph::Build(query, relevant);
  for (size_t i = 0; i < query.num_streams(); ++i) {
    report.per_stream.push_back(MakeVerdict(gpg, i));
  }

  if (report.used_simple_path) {
    PunctuationGraph pg = PunctuationGraph::Build(query, relevant);
    report.safe = pg.IsStronglyConnected();
  } else {
    TransformedPunctuationGraph tpg =
        TransformedPunctuationGraph::BuildFromGpg(gpg);
    report.safe = tpg.CollapsedToSingleNode();
    report.tpg_rounds = tpg.num_rounds();
  }

  std::ostringstream out;
  if (report.safe) {
    out << query.ToString() << " is SAFE under " << relevant.ToString()
        << ": the " << (report.used_simple_path ? "punctuation graph"
                                                : "generalized punctuation "
                                                  "graph")
        << " is strongly connected; the single-MJoin plan is safe.";
  } else {
    out << query.ToString() << " is UNSAFE under " << relevant.ToString()
        << ":";
    for (const StreamPurgeability& v : report.per_stream) {
      if (v.purgeable) continue;
      out << "\n  state of " << query.stream(v.stream)
          << " can never be purged: no punctuation chain closes {"
          << JoinMapped(v.unreachable, ",",
                        [&](size_t s) { return query.stream(s); })
          << "}";
    }
  }
  report.explanation = out.str();
  return report;
}

Result<StreamPurgeability> SafetyChecker::CheckState(
    const ContinuousJoinQuery& query, const std::string& stream) const {
  auto idx = query.StreamIndex(stream);
  if (!idx.has_value()) {
    return Status::NotFound(
        StrCat("stream '", stream, "' is not part of ", query.ToString()));
  }
  SchemeSet relevant = schemes_.Restrict(query.streams());
  GeneralizedPunctuationGraph gpg =
      GeneralizedPunctuationGraph::Build(query, relevant);
  return MakeVerdict(gpg, *idx);
}

Result<ChainedPurgePlan> SafetyChecker::DerivePurgePlan(
    const ContinuousJoinQuery& query, const std::string& stream) const {
  auto idx = query.StreamIndex(stream);
  if (!idx.has_value()) {
    return Status::NotFound(
        StrCat("stream '", stream, "' is not part of ", query.ToString()));
  }
  return DeriveChainedPurgePlan(query, schemes_.Restrict(query.streams()),
                                *idx);
}

}  // namespace punctsafe
