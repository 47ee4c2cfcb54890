#include "core/generalized_punctuation_graph.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace punctsafe {

GeneralizedPunctuationGraph GeneralizedPunctuationGraph::Build(
    const ContinuousJoinQuery& query, const SchemeSet& schemes) {
  GeneralizedPunctuationGraph gpg;
  gpg.num_streams_ = query.num_streams();
  std::vector<LocalInput> inputs;
  for (size_t s = 0; s < query.num_streams(); ++s) {
    inputs.push_back(LocalInput::Leaf(query, schemes, s));
  }
  gpg.edges_ = BuildLocalEdges(query, inputs, &gpg.truncated_);
  if (gpg.truncated_) {
    PUNCTSAFE_LOG(Warning)
        << "GPG: a scheme expands to > " << kMaxCombinationsPerScheme
        << " partner combinations; truncating (verdict may be "
           "conservative)";
  }
  return gpg;
}

std::vector<bool> GeneralizedPunctuationGraph::ReachableFrom(
    size_t start) const {
  PUNCTSAFE_CHECK(start < num_streams_);
  return LocalReachableFrom(start, num_streams_, edges_);
}

bool GeneralizedPunctuationGraph::StatePurgeable(size_t stream) const {
  PUNCTSAFE_CHECK(stream < num_streams_);
  return LocalInputPurgeable(stream, num_streams_, edges_);
}

std::vector<size_t> GeneralizedPunctuationGraph::UnreachableFrom(
    size_t stream) const {
  std::vector<size_t> out;
  auto reached = ReachableFrom(stream);
  for (size_t i = 0; i < reached.size(); ++i) {
    if (!reached[i]) out.push_back(i);
  }
  return out;
}

bool GeneralizedPunctuationGraph::IsStronglyConnected() const {
  for (size_t i = 0; i < num_streams_; ++i) {
    if (!StatePurgeable(i)) return false;
  }
  return true;
}

std::string GeneralizedPunctuationGraph::ToDot(
    const ContinuousJoinQuery& query) const {
  std::ostringstream out;
  out << "digraph GPG {\n  rankdir=LR;\n";
  for (size_t s = 0; s < num_streams_; ++s) {
    out << "  \"" << query.stream(s) << "\";\n";
  }
  size_t junction = 0;
  for (const LocalGpgEdge& e : edges_) {
    const std::string label = e.scheme.ToString(query);
    if (e.source_inputs.size() == 1) {
      out << "  \"" << query.stream(e.source_inputs[0]) << "\" -> \""
          << query.stream(e.target_input) << "\" [label=\"" << label
          << "\"];\n";
      continue;
    }
    std::string j = "g" + std::to_string(junction++);
    out << "  " << j << " [shape=point, label=\"\"];\n";
    for (size_t s : e.source_inputs) {
      out << "  \"" << query.stream(s) << "\" -> " << j
          << " [dir=none];\n";
    }
    out << "  " << j << " -> \"" << query.stream(e.target_input)
        << "\" [label=\"" << label << "\"];\n";
  }
  out << "}\n";
  return out.str();
}

std::string GeneralizedPunctuationGraph::ToString(
    const ContinuousJoinQuery& query) const {
  return JoinMapped(edges_, ", ", [&query](const LocalGpgEdge& e) {
    return StrCat(
        "{",
        JoinMapped(e.source_inputs, ",",
                   [&query](size_t s) { return query.stream(s); }),
        "}->", query.stream(e.target_input), " via ",
        e.scheme.ToString(query));
  });
}

}  // namespace punctsafe
