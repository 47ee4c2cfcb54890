#include "exec/query_register.h"

#include <gtest/gtest.h>

#include <string>

#include "core/generalized_punctuation_graph.h"
#include "query/spec_parser.h"
#include "test_util.h"
#include "workload/auction.h"

namespace punctsafe {
namespace {

// S(a1..a12) joins each of T1..T4 on every attribute, and the Tj
// join each other on b. S's one scheme covers all twelve attributes,
// so it has 4^12 partner combinations; each Tj is closed by its
// scheme on a1 from S, or on b from another Tj.
std::string WideSchemeSpec() {
  std::string attrs;
  std::string scheme;
  for (int i = 1; i <= 12; ++i) {
    attrs += " a" + std::to_string(i) + ":int";
    scheme += " a" + std::to_string(i);
  }
  std::string spec = "stream S" + attrs + "\nscheme S" + scheme + "\n";
  std::string query = "query S";
  for (int j = 1; j <= 4; ++j) {
    std::string t = "T" + std::to_string(j);
    spec += "stream " + t + attrs + " b:int\n";
    spec += "scheme " + t + " a1\nscheme " + t + " b\n";
    query += " " + t;
    for (int i = 1; i <= 12; ++i) {
      std::string a = ".a" + std::to_string(i);
      spec += "join S" + a + " = " + t + a + "\n";
    }
    if (j > 1) spec += "join " + t + ".b = T1.b\n";
  }
  return spec + query + "\n";
}

TEST(QueryRegisterTest, AdmitsSafeQueryAndRuns) {
  QueryRegister reg;
  ASSERT_TRUE(AuctionWorkload::Setup(&reg).ok());
  auto rq = reg.Register(AuctionWorkload::QueryStreams(),
                         AuctionWorkload::QueryPredicates());
  ASSERT_TRUE(rq.ok()) << rq.status().ToString();
  EXPECT_TRUE(rq->safety.safe);
  EXPECT_EQ(rq->shape, PlanShape::SingleMJoin(2));

  rq->executor->PushTuple(0, Tuple({Value(1), Value(10), Value("i"),
                                    Value(100)}),
                          1);
  rq->executor->PushTuple(1, Tuple({Value(7), Value(10), Value(5)}), 2);
  EXPECT_EQ(rq->executor->num_results(), 1u);
}

TEST(QueryRegisterTest, RejectsUnsafeQueryWithExplanation) {
  QueryRegister reg;
  ASSERT_TRUE(
      reg.RegisterStream("item", AuctionWorkload::ItemSchema()).ok());
  ASSERT_TRUE(reg.RegisterStream("bid", AuctionWorkload::BidSchema()).ok());
  // Only a useless scheme: punctuations on bidderid (the paper's
  // Section 1 example of an unsafe configuration).
  ASSERT_TRUE(reg.RegisterScheme("bid", {"bidderid"}).ok());

  auto rq = reg.Register({"item", "bid"},
                         {Eq({"item", "itemid"}, {"bid", "itemid"})});
  ASSERT_TRUE(rq.status().IsFailedPrecondition());
  EXPECT_NE(rq.status().message().find("UNSAFE"), std::string::npos);
  EXPECT_NE(rq.status().message().find("item"), std::string::npos);
}

TEST(QueryRegisterTest, RejectsUnsafeShapeEvenForSafeQuery) {
  QueryRegister reg;
  // The triangle query with Figure 5 schemes: safe as MJoin, unsafe as
  // any binary tree.
  ASSERT_TRUE(reg.RegisterStream("S1", Schema::OfInts({"A", "B"})).ok());
  ASSERT_TRUE(reg.RegisterStream("S2", Schema::OfInts({"B", "C"})).ok());
  ASSERT_TRUE(reg.RegisterStream("S3", Schema::OfInts({"C", "A"})).ok());
  ASSERT_TRUE(reg.RegisterScheme("S1", {"B"}).ok());
  ASSERT_TRUE(reg.RegisterScheme("S2", {"C"}).ok());
  ASSERT_TRUE(reg.RegisterScheme("S3", {"A"}).ok());
  std::vector<JoinPredicateSpec> preds = {Eq({"S1", "B"}, {"S2", "B"}),
                                          Eq({"S2", "C"}, {"S3", "C"}),
                                          Eq({"S3", "A"}, {"S1", "A"})};

  auto bad = reg.Register({"S1", "S2", "S3"}, preds, {},
                          PlanShape::LeftDeepBinary({0, 1, 2}));
  ASSERT_TRUE(bad.status().IsFailedPrecondition());
  EXPECT_NE(bad.status().message().find("not safe"), std::string::npos);

  auto good = reg.Register({"S1", "S2", "S3"}, preds);
  EXPECT_TRUE(good.ok()) << good.status().ToString();
}

// The parallel executor runs exactly the plan admission checked. The
// triangle query under the Figure 5 schemes is safe only as the single
// MJoin (Figure 7), so running any other shape would leak state.
TEST(QueryRegisterTest, ParallelRegistrationRunsTheAdmittedPlan) {
  StreamCatalog catalog = testing_util::PaperCatalog();
  QueryRegister reg(catalog, testing_util::Fig5Schemes(catalog));
  ExecutorConfig config;
  config.mode = ExecutionMode::kParallel;
  config.shards = 2;
  auto out = reg.Register({"S1", "S2", "S3"},
                          {Eq({"S1", "B"}, {"S2", "B"}),
                           Eq({"S2", "C"}, {"S3", "C"}),
                           Eq({"S3", "A"}, {"S1", "A"})},
                          config);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out->is_parallel());
  ParallelExecutor& exec = *out->parallel_executor;
  EXPECT_EQ(exec.shape(), out->shape);
  EXPECT_TRUE(exec.safety().safe);

  // The PlanExecutorTest.UnsafeShapeRunsButLeaks feed: every
  // punctuation the schemes allow, so the admitted plan drains fully.
  for (int i = 0; i < 20; ++i) {
    exec.PushTuple(0, Tuple({Value(i), Value(i)}), i);
    for (size_t s = 0; s < 3; ++s) {
      exec.PushPunctuation(s, Punctuation::OfConstants(2, {{1, Value(i)}}),
                           i);
    }
  }
  ASSERT_TRUE(exec.Drain(20).ok());
  EXPECT_EQ(exec.TotalLiveTuples(), 0u);
  exec.Stop();
}

TEST(QueryRegisterTest, SchemeValidation) {
  QueryRegister reg;
  ASSERT_TRUE(reg.RegisterStream("s", Schema::OfInts({"a", "b"})).ok());
  // Unknown stream.
  EXPECT_TRUE(reg.RegisterScheme("zzz", {"a"}).IsNotFound());
  // Unknown attribute.
  EXPECT_TRUE(reg.RegisterScheme("s", {"zzz"}).IsNotFound());
  // Arity mismatch via the raw-scheme API.
  EXPECT_TRUE(reg.RegisterScheme(PunctuationScheme("s", {true}))
                  .IsInvalidArgument());
  // No punctuatable attribute.
  EXPECT_TRUE(reg.RegisterScheme(PunctuationScheme("s", {false, false}))
                  .IsInvalidArgument());
  // Good one, then a duplicate.
  EXPECT_TRUE(reg.RegisterScheme("s", {"a"}).ok());
  EXPECT_TRUE(reg.RegisterScheme("s", {"a"}).IsAlreadyExists());
}

TEST(QueryRegisterTest, QueryValidationPropagates) {
  QueryRegister reg;
  ASSERT_TRUE(reg.RegisterStream("s", Schema::OfInts({"a"})).ok());
  auto rq = reg.Register({"s"}, {});
  EXPECT_TRUE(rq.status().IsInvalidArgument());
}

// Admission expands at most kMaxCombinationsPerScheme combinations
// per scheme at every level: the query-level GPG and the root
// operator's check are the same truncated graph, and registration
// stays fast (it runs on the server's event-loop thread).
TEST(QueryRegisterTest, WideSchemeAdmissionIsCapped) {
  auto spec = ParseSpec(WideSchemeSpec());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  QueryRegister reg;
  for (const std::string& name : spec->query_streams) {
    ASSERT_TRUE(
        reg.RegisterStream(name, *spec->catalog.Get(name).ValueOrDie())
            .ok());
  }
  for (const PunctuationScheme& scheme : spec->schemes.schemes()) {
    ASSERT_TRUE(reg.RegisterScheme(scheme).ok());
  }
  auto rq = reg.Register(spec->query_streams, spec->predicates);
  ASSERT_TRUE(rq.ok()) << rq.status().ToString();
  EXPECT_TRUE(rq->safety.safe);
  EXPECT_EQ(rq->shape, PlanShape::SingleMJoin(5));

  auto query = spec->MakeQuery();
  ASSERT_TRUE(query.ok());
  GeneralizedPunctuationGraph gpg =
      GeneralizedPunctuationGraph::Build(*query, spec->schemes);
  EXPECT_TRUE(gpg.truncated());
  EXPECT_TRUE(gpg.IsStronglyConnected());

  std::vector<LocalInput> leaves;
  for (size_t s = 0; s < query->num_streams(); ++s) {
    leaves.push_back(LocalInput::Leaf(*query, spec->schemes, s));
  }
  OperatorCheck root = CheckOperator(*query, leaves);
  EXPECT_TRUE(root.purgeable());
  ASSERT_EQ(root.edges.size(), gpg.edges().size());
  for (size_t i = 0; i < root.edges.size(); ++i) {
    const LocalGpgEdge& a = root.edges[i];
    const LocalGpgEdge& b = gpg.edges()[i];
    EXPECT_EQ(a.target_input, b.target_input) << i;
    EXPECT_EQ(a.source_inputs, b.source_inputs) << i;
    EXPECT_EQ(a.scheme, b.scheme) << i;
    ASSERT_EQ(a.bindings.size(), b.bindings.size()) << i;
    for (size_t k = 0; k < a.bindings.size(); ++k) {
      EXPECT_EQ(a.bindings[k].source_stream, b.bindings[k].source_stream);
      EXPECT_EQ(a.bindings[k].source_attr, b.bindings[k].source_attr);
    }
  }
}

}  // namespace
}  // namespace punctsafe
