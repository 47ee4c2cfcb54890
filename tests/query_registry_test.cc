#include "server/query_registry.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "server/protocol.h"

namespace punctsafe {
namespace server {
namespace {

Schema ItemSchema() {
  return Schema({{"sellerid", ValueType::kInt64},
                 {"itemid", ValueType::kInt64},
                 {"name", ValueType::kString},
                 {"initialprice", ValueType::kInt64}});
}

Schema BidSchema() {
  return Schema({{"bidderid", ValueType::kInt64},
                 {"itemid", ValueType::kInt64},
                 {"increase", ValueType::kInt64}});
}

// The paper's Example 1 join, both streams punctuated on itemid: safe.
constexpr const char* kAuctionSpec =
    "scheme item itemid; scheme bid itemid; query item bid; "
    "join item.itemid = bid.itemid";

// Section 1's unsafe configuration: punctuations only on bidderid.
constexpr const char* kUnsafeSpec =
    "scheme bid bidderid; query item bid; join item.itemid = bid.itemid";

void CreateAuctionStreams(QueryRegistry* registry) {
  ASSERT_TRUE(registry->CreateStream("item", ItemSchema()).ok());
  ASSERT_TRUE(registry->CreateStream("bid", BidSchema()).ok());
}

TEST(QueryRegistryTest, CreateStreamRejectsDuplicates) {
  QueryRegistry registry;
  ASSERT_TRUE(registry.CreateStream("item", ItemSchema()).ok());
  EXPECT_TRUE(
      registry.CreateStream("item", ItemSchema()).IsAlreadyExists());
}

TEST(QueryRegistryTest, RegistersSafeQuery) {
  QueryRegistry registry;
  CreateAuctionStreams(&registry);
  auto info = registry.RegisterQuery("q1", kAuctionSpec);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->id, "q1");
  EXPECT_TRUE(info->safety.safe);
  EXPECT_FALSE(info->plan.empty());
  ASSERT_EQ(info->subjoins.size(), 1u);  // the whole join
  EXPECT_TRUE(info->subjoins[0].safe);
  EXPECT_FALSE(info->subjoins[0].shared_at_registration);
  EXPECT_EQ(info->subjoins[0].sharers, 1u);
  EXPECT_TRUE(registry.HasQuery("q1"));
}

TEST(QueryRegistryTest, RejectsDuplicateQueryId) {
  QueryRegistry registry;
  CreateAuctionStreams(&registry);
  ASSERT_TRUE(registry.RegisterQuery("q1", kAuctionSpec).ok());
  EXPECT_TRUE(
      registry.RegisterQuery("q1", kAuctionSpec).status().IsAlreadyExists());
}

TEST(QueryRegistryTest, RejectsBadQueryIds) {
  QueryRegistry registry;
  CreateAuctionStreams(&registry);
  EXPECT_TRUE(
      registry.RegisterQuery("", kAuctionSpec).status().IsInvalidArgument());
  EXPECT_TRUE(registry.RegisterQuery("a b", kAuctionSpec)
                  .status()
                  .IsInvalidArgument());
}

TEST(QueryRegistryTest, RejectsUnknownStreams) {
  QueryRegistry registry;
  ASSERT_TRUE(registry.CreateStream("item", ItemSchema()).ok());
  auto info = registry.RegisterQuery("q1", kAuctionSpec);
  EXPECT_FALSE(info.ok());
  EXPECT_NE(info.status().message().find("bid"), std::string::npos);
}

TEST(QueryRegistryTest, RejectsSpecsDeclaringStreams) {
  QueryRegistry registry;
  CreateAuctionStreams(&registry);
  auto info = registry.RegisterQuery(
      "q1",
      "stream extra k:int; scheme item itemid; scheme bid itemid; "
      "query item bid; join item.itemid = bid.itemid");
  EXPECT_TRUE(info.status().IsInvalidArgument());
  EXPECT_NE(info.status().message().find("CREATE STREAM"),
            std::string::npos);
}

TEST(QueryRegistryTest, RejectsUnsafeQueryWithWitness) {
  QueryRegistry registry;
  CreateAuctionStreams(&registry);
  auto info = registry.RegisterQuery("q1", kUnsafeSpec);
  ASSERT_TRUE(info.status().IsFailedPrecondition());
  EXPECT_NE(info.status().message().find("UNSAFE"), std::string::npos);
  EXPECT_FALSE(registry.HasQuery("q1"));
}

TEST(QueryRegistryTest, PushesAndTakesResults) {
  QueryRegistry registry;
  CreateAuctionStreams(&registry);
  ASSERT_TRUE(registry.RegisterQuery("q1", kAuctionSpec).ok());

  ASSERT_TRUE(registry
                  .PushTuple("item", Tuple({Value(1), Value(10),
                                            Value("widget"), Value(100)}))
                  .ok());
  ASSERT_TRUE(
      registry.PushTuple("bid", Tuple({Value(7), Value(10), Value(5)}))
          .ok());
  ASSERT_TRUE(registry.DrainAll().ok());

  auto results = registry.TakeResults("q1");
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].size(), 7u);  // item ++ bid

  // TakeResults moves out: a second take is empty.
  auto again = registry.TakeResults("q1");
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->empty());

  EXPECT_TRUE(registry.TakeResults("nope").status().IsNotFound());
}

TEST(QueryRegistryTest, ValidatesTuplesAndPunctuations) {
  QueryRegistry registry;
  CreateAuctionStreams(&registry);
  ASSERT_TRUE(registry.RegisterQuery("q1", kAuctionSpec).ok());

  EXPECT_TRUE(registry.PushTuple("nope", Tuple({Value(1)}))
                  .IsNotFound());
  // Wrong arity.
  EXPECT_TRUE(registry.PushTuple("bid", Tuple({Value(1)}))
                  .IsInvalidArgument());
  // Wrong type at attribute 2 (name is a string).
  EXPECT_TRUE(registry
                  .PushTuple("item", Tuple({Value(1), Value(2), Value(3),
                                            Value(4)}))
                  .IsInvalidArgument());

  // Punctuation arity / type validation.
  EXPECT_TRUE(
      registry.PushPunctuation("bid", Punctuation::AllWildcard(2))
          .IsInvalidArgument());
  EXPECT_TRUE(registry
                  .PushPunctuation(
                      "bid", Punctuation::OfConstants(3, {{1, Value("x")}}))
                  .IsInvalidArgument());
  EXPECT_TRUE(registry
                  .PushPunctuation(
                      "bid", Punctuation::OfConstants(3, {{1, Value(10)}}))
                  .ok());
}

TEST(QueryRegistryTest, SharesIdenticalSafeSubjoins) {
  QueryRegistry registry;
  CreateAuctionStreams(&registry);
  auto info1 = registry.RegisterQuery("q1", kAuctionSpec);
  ASSERT_TRUE(info1.ok());
  EXPECT_EQ(info1->shared_subjoins, 0u);

  auto info2 = registry.RegisterQuery("q2", kAuctionSpec);
  ASSERT_TRUE(info2.ok());
  EXPECT_EQ(info2->shared_subjoins, 1u);
  ASSERT_EQ(info2->subjoins.size(), 1u);
  EXPECT_TRUE(info2->subjoins[0].shared_at_registration);
  EXPECT_EQ(info2->subjoins[0].sharers, 2u);

  // The first query's view reflects the new sharer.
  auto sharing1 = registry.SharingFor("q1");
  ASSERT_TRUE(sharing1.ok());
  ASSERT_EQ(sharing1->size(), 1u);
  EXPECT_EQ((*sharing1)[0].sharers, 2u);
  EXPECT_EQ((*sharing1)[0].signature, info2->subjoins[0].signature);

  // STATS reports each shared signature with its sharer count.
  bool found_subjoin_stat = false;
  for (const auto& [key, value] : registry.Stats()) {
    if (key.rfind("subjoin.", 0) == 0) {
      found_subjoin_stat = true;
      EXPECT_NE(value.find("sharers=2"), std::string::npos) << value;
    }
  }
  EXPECT_TRUE(found_subjoin_stat);

  // Dropping one holder keeps the state alive for the other...
  ASSERT_TRUE(registry.UnregisterQuery("q2").ok());
  auto after = registry.SharingFor("q1");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)[0].sharers, 1u);

  // ...and a re-registration shares it again.
  auto info3 = registry.RegisterQuery("q3", kAuctionSpec);
  ASSERT_TRUE(info3.ok());
  EXPECT_EQ(info3->shared_subjoins, 1u);
}

TEST(QueryRegistryTest, DifferentQueriesDoNotShare) {
  QueryRegistry registry;
  CreateAuctionStreams(&registry);
  ASSERT_TRUE(registry.CreateStream("S1", Schema::OfInts({"A", "B"})).ok());
  ASSERT_TRUE(registry.CreateStream("S2", Schema::OfInts({"B", "C"})).ok());
  ASSERT_TRUE(registry.CreateStream("S3", Schema::OfInts({"C", "A"})).ok());

  ASSERT_TRUE(registry.RegisterQuery("auction", kAuctionSpec).ok());
  auto triangle = registry.RegisterQuery(
      "triangle",
      "scheme S1 B; scheme S2 B; scheme S2 C; scheme S3 C A; "
      "query S1 S2 S3; join S1.B = S2.B; join S2.C = S3.C; "
      "join S3.A = S1.A");
  ASSERT_TRUE(triangle.ok()) << triangle.status().ToString();
  EXPECT_EQ(triangle->shared_subjoins, 0u);
  for (const SubjoinSharing& d : triangle->subjoins) {
    EXPECT_FALSE(d.shared_at_registration);
  }
}

TEST(QueryRegistryTest, ParallelModeProducesSameJoin) {
  QueryRegistry registry;
  CreateAuctionStreams(&registry);
  ExecutorConfig cfg;
  cfg.mode = ExecutionMode::kParallel;
  cfg.shards = 2;
  auto info = registry.RegisterQuery("qp", kAuctionSpec, cfg);
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(registry
                    .PushTuple("item", Tuple({Value(i), Value(i), Value("n"),
                                              Value(100 + i)}))
                    .ok());
    ASSERT_TRUE(
        registry.PushTuple("bid", Tuple({Value(i), Value(i), Value(1)}))
            .ok());
  }
  ASSERT_TRUE(registry.DrainAll().ok());
  auto results = registry.TakeResults("qp");
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 8u);
}

TEST(QueryRegistryTest, ExplicitTimestampsAdvanceClock) {
  QueryRegistry registry;
  CreateAuctionStreams(&registry);
  ASSERT_TRUE(registry.RegisterQuery("q1", kAuctionSpec).ok());
  ASSERT_TRUE(registry
                  .PushTuple("bid", Tuple({Value(1), Value(1), Value(1)}),
                             100)
                  .ok());
  EXPECT_EQ(registry.clock(), 100);
  // Implicit stamps tick past the watermark.
  ASSERT_TRUE(
      registry.PushTuple("bid", Tuple({Value(2), Value(2), Value(2)}))
          .ok());
  EXPECT_EQ(registry.clock(), 101);
}

TEST(QueryRegistryTest, UnregisterRemovesQuery) {
  QueryRegistry registry;
  CreateAuctionStreams(&registry);
  ASSERT_TRUE(registry.RegisterQuery("q1", kAuctionSpec).ok());
  ASSERT_TRUE(registry.UnregisterQuery("q1").ok());
  EXPECT_FALSE(registry.HasQuery("q1"));
  EXPECT_TRUE(registry.UnregisterQuery("q1").IsNotFound());
  EXPECT_TRUE(registry.QueryIds().empty());
}

// --- Protocol layer (socket-free): the same ProcessLine path the
// --- server drives.

std::vector<std::string> Exec(QueryRegistry* registry, Session* session,
                             const std::string& line) {
  return ProcessLine(registry, session, line);
}

TEST(ProtocolTest, CreateRegisterPushFlow) {
  QueryRegistry registry;
  Session session;
  auto r1 = Exec(&registry, &session,
                "CREATE STREAM item sellerid:int itemid:int name:string "
                "initialprice:int");
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_EQ(r1[0].rfind("OK stream item", 0), 0u) << r1[0];

  auto r2 = Exec(&registry, &session,
                "CREATE STREAM bid bidderid:int itemid:int increase:int");
  ASSERT_EQ(r2.size(), 1u);
  EXPECT_EQ(r2[0].rfind("OK stream bid", 0), 0u);

  auto r3 = Exec(&registry, &session,
                std::string("REGISTER QUERY q1 AS ") + kAuctionSpec);
  ASSERT_EQ(r3.size(), 1u);
  EXPECT_EQ(r3[0].rfind("OK query q1", 0), 0u) << r3[0];

  auto r4 = Exec(&registry, &session, "SUBSCRIBE q1");
  ASSERT_EQ(r4.size(), 1u);
  EXPECT_EQ(r4[0], "OK subscribed q1");
  EXPECT_EQ(session.subscriptions.count("q1"), 1u);

  EXPECT_EQ(Exec(&registry, &session,
                "PUSH item @5 1 10 \"widget\" 100")[0],
            "OK");
  EXPECT_EQ(Exec(&registry, &session, "PUSH bid 7 10 5")[0], "OK");
  EXPECT_EQ(Exec(&registry, &session, "PUNCT bid * 10 *")[0], "OK");
  EXPECT_EQ(Exec(&registry, &session, "DRAIN")[0], "OK drained");

  auto results = registry.TakeResults("q1");
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  std::string line = FormatResultLine("q1", (*results)[0]);
  EXPECT_EQ(line.rfind("RESULT q1 ", 0), 0u);
  EXPECT_NE(line.find("\"widget\""), std::string::npos);
}

TEST(ProtocolTest, ErrorsAreSingleLineWithCode) {
  QueryRegistry registry;
  Session session;
  Exec(&registry, &session,
      "CREATE STREAM item sellerid:int itemid:int name:string "
      "initialprice:int");
  Exec(&registry, &session,
      "CREATE STREAM bid bidderid:int itemid:int increase:int");

  // Unsafe registration: protocol-level FailedPrecondition carrying
  // the safety witness, flattened to one line.
  auto err = Exec(&registry, &session,
                 std::string("REGISTER QUERY bad AS ") + kUnsafeSpec);
  ASSERT_EQ(err.size(), 1u);
  EXPECT_EQ(err[0].rfind("ERR FailedPrecondition: ", 0), 0u) << err[0];
  EXPECT_NE(err[0].find("UNSAFE"), std::string::npos) << err[0];
  EXPECT_EQ(err[0].find('\n'), std::string::npos);

  // Unknown stream.
  auto nf = Exec(&registry, &session, "PUSH nope 1");
  EXPECT_EQ(nf[0].rfind("ERR NotFound", 0), 0u) << nf[0];

  // Malformed values.
  auto bad_val = Exec(&registry, &session, "PUSH bid 1 x 3");
  EXPECT_EQ(bad_val[0].rfind("ERR InvalidArgument", 0), 0u) << bad_val[0];
  auto bad_arity = Exec(&registry, &session, "PUSH bid 1 2");
  EXPECT_EQ(bad_arity[0].rfind("ERR InvalidArgument", 0), 0u);

  // Malformed schema token.
  auto bad_schema = Exec(&registry, &session, "CREATE STREAM s k:float");
  EXPECT_EQ(bad_schema[0].rfind("ERR InvalidArgument", 0), 0u);

  // Duplicate query id.
  Exec(&registry, &session,
      std::string("REGISTER QUERY q1 AS ") + kAuctionSpec);
  auto dup = Exec(&registry, &session,
                 std::string("REGISTER QUERY q1 AS ") + kAuctionSpec);
  EXPECT_EQ(dup[0].rfind("ERR AlreadyExists", 0), 0u) << dup[0];

  // Unknown command.
  auto unk = Exec(&registry, &session, "FROBNICATE");
  EXPECT_EQ(unk[0].rfind("ERR InvalidArgument", 0), 0u);

  // Unknown subscription target.
  auto sub = Exec(&registry, &session, "SUBSCRIBE nope");
  EXPECT_EQ(sub[0].rfind("ERR NotFound", 0), 0u);
}

TEST(ProtocolTest, RegisterWithExecutorOptions) {
  QueryRegistry registry;
  Session session;
  Exec(&registry, &session,
      "CREATE STREAM item sellerid:int itemid:int name:string "
      "initialprice:int");
  Exec(&registry, &session,
      "CREATE STREAM bid bidderid:int itemid:int increase:int");
  auto ok = Exec(&registry, &session,
                std::string("REGISTER QUERY qp WITH mode=parallel shards=2 "
                            "batch=16 AS ") +
                    kAuctionSpec);
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(ok[0].rfind("OK query qp", 0), 0u) << ok[0];

  bool saw_parallel = false;
  for (const auto& [key, value] : registry.Stats()) {
    if (key == "query.qp") {
      saw_parallel = value.find("mode=parallel") != std::string::npos;
    }
  }
  EXPECT_TRUE(saw_parallel);

  auto bad = Exec(&registry, &session,
                 std::string("REGISTER QUERY q2 WITH mode=sideways AS ") +
                     kAuctionSpec);
  EXPECT_EQ(bad[0].rfind("ERR InvalidArgument", 0), 0u);
  auto unknown_key = Exec(
      &registry, &session,
      std::string("REGISTER QUERY q2 WITH frobs=3 AS ") + kAuctionSpec);
  EXPECT_EQ(unknown_key[0].rfind("ERR InvalidArgument", 0), 0u);
}

TEST(ProtocolTest, SessionCommands) {
  QueryRegistry registry;
  Session session;
  EXPECT_EQ(Exec(&registry, &session, "PING")[0], "OK pong");
  EXPECT_TRUE(Exec(&registry, &session, "").empty());
  EXPECT_TRUE(Exec(&registry, &session, "   ").empty());

  Exec(&registry, &session,
      "CREATE STREAM item sellerid:int itemid:int name:string "
      "initialprice:int");
  Exec(&registry, &session,
      "CREATE STREAM bid bidderid:int itemid:int increase:int");
  Exec(&registry, &session,
      std::string("REGISTER QUERY q1 AS ") + kAuctionSpec);
  Exec(&registry, &session, "SUBSCRIBE q1");

  // STATS renders key/value lines then OK.
  auto stats = Exec(&registry, &session, "STATS");
  ASSERT_GE(stats.size(), 2u);
  EXPECT_EQ(stats.back(), "OK");
  EXPECT_EQ(stats[0].rfind("STAT ", 0), 0u);

  auto unsub_missing = Exec(&registry, &session, "UNSUBSCRIBE nope");
  EXPECT_EQ(unsub_missing[0].rfind("ERR NotFound", 0), 0u);
  EXPECT_EQ(Exec(&registry, &session, "UNSUBSCRIBE q1")[0],
            "OK unsubscribed q1");

  Exec(&registry, &session, "SUBSCRIBE q1");
  EXPECT_EQ(Exec(&registry, &session, "UNREGISTER q1")[0],
            "OK unregistered q1");
  EXPECT_TRUE(session.subscriptions.empty());
  EXPECT_FALSE(registry.HasQuery("q1"));

  EXPECT_FALSE(session.quit);
  EXPECT_EQ(Exec(&registry, &session, "QUIT")[0], "OK bye");
  EXPECT_TRUE(session.quit);
}

}  // namespace
}  // namespace server
}  // namespace punctsafe
