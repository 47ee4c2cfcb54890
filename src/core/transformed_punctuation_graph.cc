#include "core/transformed_punctuation_graph.h"

#include <algorithm>
#include <numeric>

#include "graph/scc.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace punctsafe {

namespace {

// Computes the node-level edge set for the current covers.
//
// In kPaperStrict mode an edge N_i -> N_j requires a generalized edge
// with sources within cover(N_i). In kClosure mode the allowed source
// set is the union of covers of nodes reachable from N_i, computed as
// an inner fixpoint (adding an edge can enlarge reachability, which
// can enable further edges).
Digraph ComputeNodeEdges(const std::vector<LocalGpgEdge>& gpg_edges,
                         const std::vector<std::vector<size_t>>& covers,
                         const std::vector<size_t>& node_of_stream,
                         TransformedPunctuationGraph::Mode mode) {
  const size_t m = covers.size();
  Digraph edges(m);

  auto allowed_streams = [&](size_t ni) {
    std::vector<bool> allowed(node_of_stream.size(), false);
    if (mode == TransformedPunctuationGraph::Mode::kPaperStrict) {
      for (size_t s : covers[ni]) allowed[s] = true;
    } else {
      auto reach = edges.ReachableFrom(ni);
      for (size_t nj = 0; nj < m; ++nj) {
        if (!reach[nj]) continue;
        for (size_t s : covers[nj]) allowed[s] = true;
      }
    }
    return allowed;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t ni = 0; ni < m; ++ni) {
      std::vector<bool> allowed = allowed_streams(ni);
      for (const LocalGpgEdge& e : gpg_edges) {
        size_t nj = node_of_stream[e.target_input];
        if (nj == ni || edges.HasEdge(ni, nj)) continue;
        bool ok = std::all_of(e.source_inputs.begin(), e.source_inputs.end(),
                              [&](size_t s) { return allowed[s]; });
        if (ok) {
          edges.AddEdge(ni, nj);
          changed = true;
        }
      }
    }
    if (mode == TransformedPunctuationGraph::Mode::kPaperStrict) break;
  }
  return edges;
}

}  // namespace

TransformedPunctuationGraph TransformedPunctuationGraph::Build(
    const ContinuousJoinQuery& query, const SchemeSet& schemes, Mode mode) {
  return BuildFromGpg(GeneralizedPunctuationGraph::Build(query, schemes),
                      mode);
}

TransformedPunctuationGraph TransformedPunctuationGraph::BuildFromGpg(
    const GeneralizedPunctuationGraph& gpg, Mode mode) {
  TransformedPunctuationGraph tpg;
  const size_t n = gpg.num_streams();

  // Start with singleton nodes.
  std::vector<std::vector<size_t>> covers(n);
  std::vector<size_t> node_of_stream(n);
  for (size_t i = 0; i < n; ++i) {
    covers[i] = {i};
    node_of_stream[i] = i;
  }

  // Definition 11 bounds the number of rounds by n - 1: every round
  // that continues merges at least two nodes.
  for (;;) {
    Digraph node_edges =
        ComputeNodeEdges(gpg.edges(), covers, node_of_stream, mode);
    tpg.history_.push_back({covers, node_edges});

    if (covers.size() <= 1) break;
    SccResult sccs = FindSccs(node_edges);
    if (!sccs.HasNontrivialComponent()) break;

    // Merge each component's covers into one virtual node.
    std::vector<std::vector<size_t>> merged(sccs.num_components);
    for (size_t node = 0; node < covers.size(); ++node) {
      auto& dest = merged[sccs.component_of[node]];
      dest.insert(dest.end(), covers[node].begin(), covers[node].end());
    }
    for (auto& cover : merged) std::sort(cover.begin(), cover.end());
    covers = std::move(merged);
    for (size_t node = 0; node < covers.size(); ++node) {
      for (size_t s : covers[node]) node_of_stream[s] = node;
    }
  }

  tpg.final_covers_ = std::move(covers);
  return tpg;
}

std::string TransformedPunctuationGraph::ToString(
    const ContinuousJoinQuery& query) const {
  auto cover_str = [&query](const std::vector<size_t>& cover) {
    return StrCat("{",
                  JoinMapped(cover, ",",
                             [&query](size_t s) { return query.stream(s); }),
                  "}");
  };
  return StrCat("rounds=", num_rounds(), " final=[",
                JoinMapped(final_covers_, " ", cover_str), "]");
}

}  // namespace punctsafe
