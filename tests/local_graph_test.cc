#include "core/local_graph.h"

#include <gtest/gtest.h>

#include "core/generalized_punctuation_graph.h"
#include "core/plan_safety.h"
#include "test_util.h"
#include "workload/random_query.h"

namespace punctsafe {
namespace {

using testing_util::Fig5Schemes;
using testing_util::Fig8Schemes;
using testing_util::PaperCatalog;
using testing_util::TriangleQuery;

std::vector<LocalInput> RawInputs(const ContinuousJoinQuery& q,
                                  const SchemeSet& schemes) {
  std::vector<LocalInput> inputs;
  for (size_t s = 0; s < q.num_streams(); ++s) {
    inputs.push_back({{s}, RawAvailableSchemes(q, schemes, s)});
  }
  return inputs;
}

// With one raw input per stream, the local graph IS the GPG: edge
// sets and reachability must coincide.
TEST(LocalGraphTest, RawInputsMatchGpg) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  for (const SchemeSet& schemes :
       {Fig5Schemes(catalog), Fig8Schemes(catalog)}) {
    auto edges = BuildLocalEdges(q, RawInputs(q, schemes));
    GeneralizedPunctuationGraph gpg =
        GeneralizedPunctuationGraph::Build(q, schemes);
    ASSERT_EQ(edges.size(), gpg.edges().size());
    for (size_t i = 0; i < edges.size(); ++i) {
      EXPECT_EQ(edges[i].source_inputs, gpg.edges()[i].source_inputs);
      EXPECT_EQ(edges[i].target_input, gpg.edges()[i].target_input);
    }
    for (size_t s = 0; s < 3; ++s) {
      EXPECT_EQ(LocalInputPurgeable(s, 3, edges), gpg.StatePurgeable(s));
    }
  }
}

// Merging {S1, S2} into one composite input internalizes the B=B
// predicate: only the C and A predicates cross the operator.
TEST(LocalGraphTest, CompositeInputInternalizesPredicates) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  SchemeSet schemes = Fig8Schemes(catalog);
  std::vector<LocalInput> inputs;
  inputs.push_back({{0, 1}, {{0, {1}}, {1, {0}}, {1, {1}}}});
  inputs.push_back({{2}, RawAvailableSchemes(q, schemes, 2)});
  auto edges = BuildLocalEdges(q, inputs);

  // Schemes usable across this operator: S2(C) (faces S3) and
  // S3(C, A) (both attrs face the composite). S1(B)/S2(B) only face
  // inside the composite -> no edge.
  ASSERT_EQ(edges.size(), 2u);
  for (const LocalGpgEdge& e : edges) {
    if (e.target_input == 0) {
      EXPECT_EQ(e.source_inputs, (std::vector<size_t>{1}));
      EXPECT_EQ(e.scheme.origin_stream, 1u);  // S2's C scheme
    } else {
      EXPECT_EQ(e.source_inputs, (std::vector<size_t>{0}));
      EXPECT_EQ(e.scheme.origin_stream, 2u);  // S3's pair scheme
      EXPECT_EQ(e.bindings.size(), 2u);
    }
  }
  EXPECT_TRUE(LocalInputPurgeable(0, 2, edges));
  EXPECT_TRUE(LocalInputPurgeable(1, 2, edges));
}

TEST(LocalGraphTest, FixpointRecordsFiringOrder) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  auto edges = BuildLocalEdges(q, RawInputs(q, Fig5Schemes(catalog)));
  std::vector<size_t> fired;
  EXPECT_EQ(LocalReachableFrom(0, 3, edges, &fired),
            (std::vector<bool>{true, true, true}));
  ASSERT_EQ(fired.size(), 2u);
  // Dependency order: each step's sources already covered.
  std::vector<bool> covered(3, false);
  covered[0] = true;
  for (size_t i : fired) {
    const LocalGpgEdge& e = edges[i];
    for (size_t s : e.source_inputs) EXPECT_TRUE(covered[s]);
    covered[e.target_input] = true;
  }
}

TEST(LocalGraphTest, FixpointLeavesUnreachableInputsUncovered) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  auto edges = BuildLocalEdges(q, RawInputs(q, SchemeSet()));
  EXPECT_TRUE(edges.empty());
  std::vector<size_t> fired;
  EXPECT_EQ(LocalReachableFrom(0, 3, edges, &fired),
            (std::vector<bool>{true, false, false}));
  EXPECT_TRUE(fired.empty());
  EXPECT_FALSE(LocalInputPurgeable(0, 3, edges));
}

// The propagation rule: the operator exposes the sorted union of its
// input streams and the schemes of its purgeable inputs only. Over
// inputs {S2}, {S1} with Figure 5 schemes only S1.B = S2.B crosses, so
// S2(C) yields no edge: S2 reaches S1 (via S1(B)) but not vice versa.
TEST(LocalGraphTest, CheckOperatorPropagatesSchemesOfPurgeableInputs) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  SchemeSet schemes = Fig5Schemes(catalog);
  OperatorCheck check = CheckOperator(
      q, {LocalInput::Leaf(q, schemes, 1), LocalInput::Leaf(q, schemes, 0)});
  ASSERT_EQ(check.edges.size(), 1u);
  EXPECT_EQ(check.edges[0].target_input, 1u);
  EXPECT_EQ(check.input_purgeable, (std::vector<bool>{true, false}));
  EXPECT_FALSE(check.purgeable());
  EXPECT_EQ(check.output.streams, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(check.output.schemes, RawAvailableSchemes(q, schemes, 1));
}

// LocalReachableFrom agrees with the GPG fixpoint on random instances
// when inputs are raw streams.
TEST(LocalGraphTest, ReachabilityMatchesGpgOnRandomInstances) {
  for (uint64_t seed = 0; seed < 60; ++seed) {
    RandomQueryConfig config;
    config.num_streams = 2 + seed % 4;
    config.multi_attr_prob = 0.4;
    config.seed = seed * 211 + 13;
    auto inst = MakeRandomQuery(config);
    ASSERT_TRUE(inst.ok());
    auto edges =
        BuildLocalEdges(inst->query, RawInputs(inst->query, inst->schemes));
    GeneralizedPunctuationGraph gpg =
        GeneralizedPunctuationGraph::Build(inst->query, inst->schemes);
    for (size_t s = 0; s < inst->query.num_streams(); ++s) {
      EXPECT_EQ(LocalReachableFrom(s, inst->query.num_streams(), edges),
                gpg.ReachableFrom(s))
          << "seed=" << seed << " s=" << s;
    }
  }
}

}  // namespace
}  // namespace punctsafe
