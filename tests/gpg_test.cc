#include "core/generalized_punctuation_graph.h"

#include <gtest/gtest.h>

#include "core/punctuation_graph.h"
#include "test_util.h"

namespace punctsafe {
namespace {

using testing_util::Fig5Schemes;
using testing_util::Fig8Schemes;
using testing_util::PaperCatalog;
using testing_util::SchemeOn;
using testing_util::TriangleQuery;

// The paper's Section 4.2 motivating example: the simple graph says
// unpurgeable, the generalized graph says purgeable.
TEST(GpgTest, Fig8GeneralizedGraphIsStronglyConnected) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  SchemeSet schemes = Fig8Schemes(catalog);

  EXPECT_FALSE(PunctuationGraph::Build(q, schemes).IsStronglyConnected());

  GeneralizedPunctuationGraph gpg =
      GeneralizedPunctuationGraph::Build(q, schemes);
  EXPECT_TRUE(gpg.IsStronglyConnected());
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_TRUE(gpg.StatePurgeable(s)) << "stream " << s;
  }
  EXPECT_FALSE(gpg.truncated());
}

// Figure 9: the scheme S3(+,+) on (C, A) becomes the generalized edge
// {S1, S2} -> S3.
TEST(GpgTest, Fig9GeneralizedEdgeStructure) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  GeneralizedPunctuationGraph gpg =
      GeneralizedPunctuationGraph::Build(q, Fig8Schemes(catalog));

  bool found = false;
  for (const LocalGpgEdge& e : gpg.edges()) {
    if (e.target_input == 2 && e.source_inputs == std::vector<size_t>{0, 1}) {
      found = true;
      EXPECT_EQ(e.bindings.size(), 2u);
    }
  }
  EXPECT_TRUE(found) << gpg.ToString(q);
}

// Definition 9 fixpoint order on Figure 8: from S1, first S2 (plain
// edge), then S3 (generalized edge fires once both sources covered).
TEST(GpgTest, Fig8ReachabilityFixpoint) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  GeneralizedPunctuationGraph gpg =
      GeneralizedPunctuationGraph::Build(q, Fig8Schemes(catalog));
  auto r = gpg.ReachableFrom(0);
  EXPECT_TRUE(r[0] && r[1] && r[2]);
}

// A generalized edge must NOT fire from only part of its source set:
// drop S2's schemes so S1 alone cannot complete {S1,S2} -> S3.
TEST(GpgTest, GeneralizedEdgeNeedsAllSources) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  SchemeSet schemes;
  // Only S3's pair scheme: nobody can reach S2, and the pair edge
  // requires covering both S1 and S2 first.
  ASSERT_TRUE(schemes.Add(SchemeOn(catalog, "S3", {"C", "A"})).ok());
  GeneralizedPunctuationGraph gpg =
      GeneralizedPunctuationGraph::Build(q, schemes);
  auto r = gpg.ReachableFrom(0);
  EXPECT_TRUE(r[0]);
  EXPECT_FALSE(r[1]);
  EXPECT_FALSE(r[2]);  // pair edge never fires
  EXPECT_FALSE(gpg.StatePurgeable(0));
  EXPECT_EQ(gpg.UnreachableFrom(0), (std::vector<size_t>{1, 2}));
}

// A scheme whose punctuatable attribute is not a join attribute
// contributes nothing (finitely many instantiations cannot close a
// join value).
TEST(GpgTest, NonJoinAttributeSchemeUnusable) {
  StreamCatalog catalog;
  ASSERT_TRUE(catalog.Register("L", Schema::OfInts({"K", "X"})).ok());
  ASSERT_TRUE(catalog.Register("R", Schema::OfInts({"K", "Y"})).ok());
  auto q = ContinuousJoinQuery::Create(catalog, {"L", "R"},
                                       {Eq({"L", "K"}, {"R", "K"})});
  ASSERT_TRUE(q.ok());
  SchemeSet schemes;
  // Scheme on R.Y: Y joins nothing.
  ASSERT_TRUE(schemes.Add(SchemeOn(catalog, "R", {"Y"})).ok());
  // Scheme on R.(K, Y): K joins, Y does not — still unusable, since an
  // instantiation constrains Y too.
  ASSERT_TRUE(schemes.Add(SchemeOn(catalog, "R", {"K", "Y"})).ok());
  GeneralizedPunctuationGraph gpg =
      GeneralizedPunctuationGraph::Build(q.ValueOrDie(), schemes);
  EXPECT_TRUE(gpg.edges().empty());
}

// Simple schemes appear in the GPG as singleton-source edges, so the
// GPG subsumes the PG.
TEST(GpgTest, SimpleSchemesYieldSingletonEdges) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  GeneralizedPunctuationGraph gpg =
      GeneralizedPunctuationGraph::Build(q, Fig5Schemes(catalog));
  EXPECT_EQ(gpg.edges().size(), 3u);
  for (const LocalGpgEdge& e : gpg.edges()) {
    EXPECT_EQ(e.source_inputs.size(), 1u);
    EXPECT_EQ(e.bindings.size(), 1u);
  }
  EXPECT_TRUE(gpg.IsStronglyConnected());
}

// One punctuatable attribute joining two partner streams: either can
// supply the values, so two singleton edges appear.
TEST(GpgTest, MultiplePartnersYieldAlternativeEdges) {
  StreamCatalog catalog;
  ASSERT_TRUE(catalog.Register("A", Schema::OfInts({"K"})).ok());
  ASSERT_TRUE(catalog.Register("B", Schema::OfInts({"K"})).ok());
  ASSERT_TRUE(catalog.Register("C", Schema::OfInts({"K"})).ok());
  auto q = ContinuousJoinQuery::Create(
      catalog, {"A", "B", "C"},
      {Eq({"A", "K"}, {"C", "K"}), Eq({"B", "K"}, {"C", "K"})});
  ASSERT_TRUE(q.ok());
  SchemeSet schemes;
  ASSERT_TRUE(schemes.Add(SchemeOn(catalog, "C", {"K"})).ok());
  GeneralizedPunctuationGraph gpg =
      GeneralizedPunctuationGraph::Build(*q, schemes);
  // {A} -> C and {B} -> C.
  ASSERT_EQ(gpg.edges().size(), 2u);
  EXPECT_EQ(gpg.edges()[0].target_input, 2u);
  EXPECT_EQ(gpg.edges()[1].target_input, 2u);
  EXPECT_NE(gpg.edges()[0].source_inputs,
            gpg.edges()[1].source_inputs);
}

// Arity-mismatched schemes (stale schema) are ignored, not fatal.
TEST(GpgTest, ArityMismatchedSchemeIgnored) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  SchemeSet schemes;
  ASSERT_TRUE(schemes.Add(PunctuationScheme("S1", {true, true, true})).ok());
  GeneralizedPunctuationGraph gpg =
      GeneralizedPunctuationGraph::Build(q, schemes);
  EXPECT_TRUE(gpg.edges().empty());
}

}  // namespace
}  // namespace punctsafe
