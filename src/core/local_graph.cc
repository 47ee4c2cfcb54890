#include "core/local_graph.h"

#include <algorithm>
#include <utility>

namespace punctsafe {

std::string AvailableScheme::ToString(
    const ContinuousJoinQuery& query) const {
  std::vector<bool> punctuatable(
      query.schema(origin_stream).num_attributes(), false);
  for (size_t attr : attrs) punctuatable[attr] = true;
  return PunctuationScheme(query.stream(origin_stream),
                           std::move(punctuatable))
      .ToString();
}

std::vector<AvailableScheme> RawAvailableSchemes(
    const ContinuousJoinQuery& query, const SchemeSet& schemes,
    size_t stream) {
  std::vector<AvailableScheme> out;
  for (const PunctuationScheme* s :
       schemes.SchemesFor(query.stream(stream))) {
    // A scheme declared against a different schema version is ignored.
    if (s->arity() != query.schema(stream).num_attributes()) continue;
    out.push_back({stream, s->PunctuatableAttrs()});
  }
  return out;
}

LocalInput LocalInput::Leaf(const ContinuousJoinQuery& query,
                            const SchemeSet& schemes, size_t stream) {
  return {{stream}, RawAvailableSchemes(query, schemes, stream)};
}

std::vector<LocalGpgEdge> BuildLocalEdges(
    const ContinuousJoinQuery& query, const std::vector<LocalInput>& inputs,
    bool* truncated) {
  constexpr size_t kOutside = static_cast<size_t>(-1);
  std::vector<size_t> input_of(query.num_streams(), kOutside);
  for (size_t c = 0; c < inputs.size(); ++c) {
    for (size_t s : inputs[c].streams) input_of[s] = c;
  }

  std::vector<LocalGpgEdge> edges;
  for (size_t target = 0; target < inputs.size(); ++target) {
    for (const AvailableScheme& scheme : inputs[target].schemes) {
      // Partner choices per punctuatable attribute.
      std::vector<std::vector<LocalGpgEdge::Binding>> choices;
      bool usable = true;
      for (size_t attr : scheme.attrs) {
        std::vector<LocalGpgEdge::Binding> partners;
        for (const ResolvedPredicate& p : query.predicates()) {
          if (!p.Involves(scheme.origin_stream) ||
              p.AttrOn(scheme.origin_stream) != attr) {
            continue;
          }
          size_t other = p.OtherStream(scheme.origin_stream);
          size_t other_input = input_of[other];
          if (other_input == kOutside || other_input == target) continue;
          partners.push_back(
              {attr, other_input, other, p.AttrOn(other)});
        }
        if (partners.empty()) {
          usable = false;  // attribute does not cross this operator
          break;
        }
        choices.push_back(std::move(partners));
      }
      if (!usable) continue;

      // Cartesian product over per-attribute partner choices, capped;
      // an edge whose source set this scheme already has adds no
      // reachability power.
      const size_t group_begin = edges.size();
      std::vector<size_t> cursor(choices.size(), 0);
      for (size_t emitted = 0;; ++emitted) {
        if (emitted == kMaxCombinationsPerScheme) {
          if (truncated != nullptr) *truncated = true;
          break;
        }
        LocalGpgEdge edge;
        edge.target_input = target;
        edge.scheme = scheme;
        for (size_t i = 0; i < choices.size(); ++i) {
          const auto& binding = choices[i][cursor[i]];
          edge.bindings.push_back(binding);
          edge.source_inputs.push_back(binding.source_input);
        }
        auto& sources = edge.source_inputs;
        std::sort(sources.begin(), sources.end());
        sources.erase(std::unique(sources.begin(), sources.end()),
                      sources.end());
        if (std::none_of(edges.begin() + group_begin, edges.end(),
                         [&](const LocalGpgEdge& e) {
                           return e.source_inputs == sources;
                         })) {
          edges.push_back(std::move(edge));
        }
        size_t i = 0;
        while (i < cursor.size()) {
          if (++cursor[i] < choices[i].size()) break;
          cursor[i] = 0;
          ++i;
        }
        if (i == cursor.size()) break;
      }
    }
  }
  return edges;
}

std::vector<bool> LocalReachableFrom(size_t start, size_t num_inputs,
                                     const std::vector<LocalGpgEdge>& edges,
                                     std::vector<size_t>* fired) {
  std::vector<bool> reached(num_inputs, false);
  reached[start] = true;
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < edges.size(); ++i) {
      const LocalGpgEdge& e = edges[i];
      if (reached[e.target_input]) continue;
      bool all = std::all_of(e.source_inputs.begin(), e.source_inputs.end(),
                             [&](size_t c) { return reached[c]; });
      if (all) {
        reached[e.target_input] = true;
        if (fired != nullptr) fired->push_back(i);
        changed = true;
      }
    }
  }
  return reached;
}

bool LocalInputPurgeable(size_t start, size_t num_inputs,
                         const std::vector<LocalGpgEdge>& edges) {
  auto reached = LocalReachableFrom(start, num_inputs, edges);
  return std::all_of(reached.begin(), reached.end(),
                     [](bool b) { return b; });
}

bool OperatorCheck::purgeable() const {
  return std::all_of(input_purgeable.begin(), input_purgeable.end(),
                     [](bool b) { return b; });
}

OperatorCheck CheckOperator(const ContinuousJoinQuery& query,
                            const std::vector<LocalInput>& inputs) {
  OperatorCheck check;
  check.edges = BuildLocalEdges(query, inputs);
  for (size_t k = 0; k < inputs.size(); ++k) {
    bool purgeable = LocalInputPurgeable(k, inputs.size(), check.edges);
    check.input_purgeable.push_back(purgeable);
    check.output.streams.insert(check.output.streams.end(),
                                inputs[k].streams.begin(),
                                inputs[k].streams.end());
    if (purgeable) {
      check.output.schemes.insert(check.output.schemes.end(),
                                  inputs[k].schemes.begin(),
                                  inputs[k].schemes.end());
    }
  }
  std::sort(check.output.streams.begin(), check.output.streams.end());
  return check;
}

std::vector<std::vector<JoinAttr>> JoinAttrClasses(
    const ContinuousJoinQuery& query, const std::vector<LocalInput>& inputs) {
  // Union-find (path halving) over node ids that number the composite
  // attributes input by input; kOutside marks a node in no predicate.
  constexpr size_t kOutside = static_cast<size_t>(-1);
  std::vector<size_t> first_node(query.num_streams(), kOutside);
  std::vector<JoinAttr> attr_of;  // node id -> attribute
  for (size_t k = 0; k < inputs.size(); ++k) {
    size_t offset = 0;
    for (size_t s : inputs[k].streams) {
      first_node[s] = attr_of.size();
      for (size_t a = 0; a < query.schema(s).num_attributes(); ++a) {
        attr_of.push_back({k, offset++});
      }
    }
  }
  std::vector<size_t> parent(attr_of.size(), kOutside);
  auto find = [&](size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const ResolvedPredicate& p : query.predicates()) {
    if (first_node[p.left_stream] == kOutside ||
        first_node[p.right_stream] == kOutside) {
      continue;
    }
    const size_t a = first_node[p.left_stream] + p.left_attr;
    const size_t b = first_node[p.right_stream] + p.right_attr;
    if (attr_of[a].input == attr_of[b].input) continue;
    for (size_t n : {a, b}) {
      if (parent[n] == kOutside) parent[n] = n;
    }
    parent[find(a)] = find(b);
  }
  std::vector<size_t> class_of_root(attr_of.size());
  std::vector<std::vector<JoinAttr>> classes;
  for (size_t n = 0; n < attr_of.size(); ++n) {
    if (parent[n] == n) {
      class_of_root[n] = classes.size();
      classes.emplace_back();
    }
  }
  for (size_t n = 0; n < attr_of.size(); ++n) {
    if (parent[n] != kOutside) {
      classes[class_of_root[find(n)]].push_back(attr_of[n]);
    }
  }
  return classes;
}

}  // namespace punctsafe
