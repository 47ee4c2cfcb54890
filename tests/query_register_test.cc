#include "exec/query_register.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "workload/auction.h"

namespace punctsafe {
namespace {

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

}  // namespace
}  // namespace punctsafe
