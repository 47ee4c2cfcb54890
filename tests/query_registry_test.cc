#include "server/query_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

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

// Pushes `n` items and one matching bid each, starting at itemid
// `first`.
void PushAuctionRound(QueryRegistry* registry, int first, int n) {
  for (int i = first; i < first + n; ++i) {
    ASSERT_TRUE(registry
                    ->PushTuple("item", Tuple({Value(1), Value(i), Value("n"),
                                               Value(100 + i)}))
                    .ok());
    ASSERT_TRUE(
        registry->PushTuple("bid", Tuple({Value(i), Value(i), Value(1)}))
            .ok());
  }
}

TEST(QueryRegistryTest, IdenticalQueriesEachGetFullResults) {
  QueryRegistry registry;
  CreateAuctionStreams(&registry);
  ASSERT_TRUE(registry.RegisterQuery("q1", kAuctionSpec).ok());
  ASSERT_TRUE(registry.RegisterQuery("q2", kAuctionSpec).ok());

  PushAuctionRound(&registry, 0, 6);
  ASSERT_TRUE(registry.DrainAll().ok());
  auto r1 = registry.TakeResults("q1");
  auto r2 = registry.TakeResults("q2");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->size(), 6u);
  EXPECT_EQ(*r1, *r2);

  // Unregistering one leaves the other's results intact, before and
  // after the drop.
  PushAuctionRound(&registry, 6, 4);
  ASSERT_TRUE(registry.UnregisterQuery("q2").ok());
  PushAuctionRound(&registry, 10, 3);
  ASSERT_TRUE(registry.DrainAll().ok());
  auto after = registry.TakeResults("q1");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), 7u);
  EXPECT_TRUE(registry.TakeResults("q2").status().IsNotFound());
}

// The value of STATS key `key` ("" when absent).
std::string StatOf(const QueryRegistry& registry, const std::string& key) {
  for (const auto& [k, value] : registry.Stats()) {
    if (k == key) return value;
  }
  return "";
}

bool HasField(const std::string& stat, const std::string& field) {
  return (" " + stat + " ").find(" " + field + " ") != std::string::npos;
}

std::vector<Tuple> Sorted(std::vector<Tuple> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(QueryRegistryTest, IdenticalRegistrationsBeforeAnyElementShare) {
  QueryRegistry registry;
  CreateAuctionStreams(&registry);
  ASSERT_TRUE(registry.RegisterQuery("q1", kAuctionSpec).ok());
  ASSERT_TRUE(registry.RegisterQuery("q2", kAuctionSpec).ok());
  EXPECT_EQ(StatOf(registry, "queries"), "2");
  EXPECT_EQ(StatOf(registry, "plans"), "1");
  EXPECT_TRUE(HasField(StatOf(registry, "query.q1"), "plan_members=2"));
  EXPECT_TRUE(HasField(StatOf(registry, "query.q2"), "plan_members=2"));

  // A member that has not taken yet keeps its copy while the other
  // takes, and each member's counters are its own.
  PushAuctionRound(&registry, 0, 3);
  auto first = registry.TakeResults("q1");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->size(), 3u);
  PushAuctionRound(&registry, 3, 2);
  auto second = registry.TakeResults("q2");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->size(), 5u);
  EXPECT_TRUE(HasField(StatOf(registry, "query.q1"), "tuples_in=10"));
  EXPECT_TRUE(HasField(StatOf(registry, "query.q2"), "results=5"));

  // The executor goes with the last member.
  ASSERT_TRUE(registry.UnregisterQuery("q1").ok());
  EXPECT_EQ(StatOf(registry, "plans"), "1");
  EXPECT_TRUE(HasField(StatOf(registry, "query.q2"), "plan_members=1"));
  ASSERT_TRUE(registry.UnregisterQuery("q2").ok());
  EXPECT_EQ(StatOf(registry, "plans"), "0");
}

TEST(QueryRegistryTest, RegistrationAfterAnElementGetsItsOwnExecutor) {
  QueryRegistry registry;
  CreateAuctionStreams(&registry);
  ASSERT_TRUE(registry.RegisterQuery("early", kAuctionSpec).ok());
  PushAuctionRound(&registry, 0, 3);
  ASSERT_TRUE(registry.RegisterQuery("late", kAuctionSpec).ok());
  EXPECT_EQ(StatOf(registry, "plans"), "2");
  EXPECT_TRUE(HasField(StatOf(registry, "query.early"), "plan_members=1"));
  EXPECT_TRUE(HasField(StatOf(registry, "query.late"), "plan_members=1"));

  // A fresh executor started at the late registration, fed the same
  // suffix.
  QueryRegistry fresh;
  CreateAuctionStreams(&fresh);
  ASSERT_TRUE(fresh.RegisterQuery("late", kAuctionSpec).ok());
  auto suffix = [](QueryRegistry* r) {
    // Bids on items pushed before the late registration, then a new
    // round.
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          r->PushTuple("bid", Tuple({Value(i), Value(i), Value(2)})).ok());
    }
    PushAuctionRound(r, 3, 4);
    ASSERT_TRUE(r->DrainAll().ok());
  };
  suffix(&registry);
  suffix(&fresh);

  auto early = registry.TakeResults("early");
  auto late = registry.TakeResults("late");
  auto want = fresh.TakeResults("late");
  ASSERT_TRUE(early.ok());
  ASSERT_TRUE(late.ok());
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(early->size(), 10u);  // 3 + 3 late bids + 4
  EXPECT_EQ(want->size(), 4u);
  EXPECT_EQ(Sorted(*late), Sorted(*want));
}

TEST(QueryRegistryTest, DifferentExecutorOptionsDoNotShare) {
  QueryRegistry registry;
  Session session;
  ProcessLine(&registry, &session,
              "CREATE STREAM item sellerid:int itemid:int name:string "
              "initialprice:int");
  ProcessLine(&registry, &session,
              "CREATE STREAM bid bidderid:int itemid:int increase:int");
  for (const std::string& line :
       {std::string("REGISTER QUERY plain AS ") + kAuctionSpec,
        std::string("REGISTER QUERY b4 WITH batch=4 AS ") + kAuctionSpec,
        std::string("REGISTER QUERY b8 WITH batch=8 AS ") + kAuctionSpec,
        std::string("REGISTER QUERY b4too WITH batch=4 AS ") +
            kAuctionSpec}) {
    auto out = ProcessLine(&registry, &session, line);
    ASSERT_EQ(out.size(), 1u);
    ASSERT_EQ(out[0].rfind("OK query ", 0), 0u) << out[0];
  }
  EXPECT_EQ(StatOf(registry, "plans"), "3");
  EXPECT_TRUE(HasField(StatOf(registry, "query.plain"), "plan_members=1"));
  EXPECT_TRUE(HasField(StatOf(registry, "query.b8"), "plan_members=1"));
  EXPECT_TRUE(HasField(StatOf(registry, "query.b4"), "plan_members=2"));
  EXPECT_TRUE(HasField(StatOf(registry, "query.b4too"), "plan_members=2"));
}

TEST(QueryRegistryTest, ParallelTwinsShareAndEachGetFullResults) {
  QueryRegistry registry;
  CreateAuctionStreams(&registry);
  ExecutorConfig cfg;
  cfg.mode = ExecutionMode::kParallel;
  cfg.shards = 2;
  ASSERT_TRUE(registry.RegisterQuery("pa", kAuctionSpec, cfg).ok());
  ASSERT_TRUE(registry.RegisterQuery("pb", kAuctionSpec, cfg).ok());
  EXPECT_EQ(StatOf(registry, "plans"), "1");
  EXPECT_TRUE(HasField(StatOf(registry, "query.pa"), "mode=parallel"));
  EXPECT_TRUE(HasField(StatOf(registry, "query.pb"), "plan_members=2"));

  // Takes race the shard workers: each take hands out whatever has
  // arrived so far, to both members.
  std::map<std::string, std::vector<Tuple>> got;
  auto take = [&](const std::string& id) {
    auto taken = registry.TakeResults(id);
    ASSERT_TRUE(taken.ok());
    got[id].insert(got[id].end(), taken->begin(), taken->end());
  };
  for (int round = 0; round < 8; ++round) {
    PushAuctionRound(&registry, round * 4, 4);
    take(round % 2 == 0 ? "pa" : "pb");
  }
  ASSERT_TRUE(registry.DrainAll().ok());
  take("pa");
  take("pb");
  EXPECT_EQ(got["pa"].size(), 32u);
  EXPECT_EQ(Sorted(got["pa"]), Sorted(got["pb"]));
}

TEST(QueryRegistryTest, RegistersDifferentQueriesSideBySide) {
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
  EXPECT_EQ(registry.QueryIds().size(), 2u);
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

TEST(QueryRegistryTest, RejectsExplicitTimestampGoingBackwardsOnAStream) {
  QueryRegistry registry;
  CreateAuctionStreams(&registry);
  ASSERT_TRUE(registry.RegisterQuery("q1", kAuctionSpec).ok());
  const Tuple item({Value(1), Value(10), Value("widget"), Value(100)});
  const Tuple bid({Value(7), Value(10), Value(5)});

  ASSERT_TRUE(registry.PushTuple("item", item, 100).ok());
  // Earlier on the same stream: rejected, and no query receives it.
  EXPECT_TRUE(registry.PushTuple("item", item, 99).IsInvalidArgument());
  EXPECT_TRUE(registry
                  .PushPunctuation(
                      "item", Punctuation::OfConstants(4, {{1, Value(10)}}), 50)
                  .IsInvalidArgument());
  EXPECT_EQ(registry.clock(), 100);
  // Another stream may still interleave below the clock, and an equal
  // timestamp is not a step back.
  ASSERT_TRUE(registry.PushTuple("bid", bid, 60).ok());
  ASSERT_TRUE(registry.PushTuple("item", item, 100).ok());
  EXPECT_TRUE(registry.PushTuple("bid", bid, 59).IsInvalidArgument());
  // Implicit stamps tick past the clock, and an explicit stamp must not
  // go back before them either.
  ASSERT_TRUE(registry.PushTuple("bid", bid).ok());
  EXPECT_EQ(registry.clock(), 101);
  EXPECT_TRUE(registry.PushTuple("bid", bid, 100).IsInvalidArgument());

  ASSERT_TRUE(registry.DrainAll().ok());
  auto results = registry.TakeResults("q1");
  ASSERT_TRUE(results.ok());
  // Two accepted items times two accepted bids.
  EXPECT_EQ(results->size(), 4u);
  for (const auto& [key, value] : registry.Stats()) {
    if (key == "query.q1") {
      EXPECT_NE(value.find("tuples_in=4 punctuations_in=0"),
                std::string::npos)
          << value;
    }
  }
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

TEST(ProtocolTest, BackwardsTimestampIsOneErrorLine) {
  QueryRegistry registry;
  Session session;
  Exec(&registry, &session,
      "CREATE STREAM item sellerid:int itemid:int name:string "
      "initialprice:int");
  Exec(&registry, &session,
      "CREATE STREAM bid bidderid:int itemid:int increase:int");
  Exec(&registry, &session,
      std::string("REGISTER QUERY q1 AS ") + kAuctionSpec);

  EXPECT_EQ(Exec(&registry, &session, "PUSH bid @100 7 10 5")[0], "OK");
  for (const char* line : {"PUSH bid @99 8 10 5", "PUNCT bid @99 * 10 *"}) {
    auto err = Exec(&registry, &session, line);
    ASSERT_EQ(err.size(), 1u) << line;
    EXPECT_EQ(err[0].rfind("ERR InvalidArgument: ", 0), 0u) << err[0];
  }
  EXPECT_EQ(Exec(&registry, &session, "PUSH item @5 1 10 \"widget\" 100")[0],
            "OK");
  EXPECT_EQ(Exec(&registry, &session, "DRAIN")[0], "OK drained");
  auto results = registry.TakeResults("q1");
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 1u);  // only the accepted bid joined
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
  // NaN never equals itself, so no punctuation could close a NaN join
  // value: every spelling strtod accepts is refused, in a tuple and in
  // a punctuation pattern alike.
  Exec(&registry, &session, "CREATE STREAM d k:double v:int");
  auto nan_push = Exec(&registry, &session, "PUSH d nan 1");
  EXPECT_EQ(nan_push[0].rfind("ERR InvalidArgument", 0), 0u) << nan_push[0];
  auto nan_punct = Exec(&registry, &session, "PUNCT d -NaN(7) *");
  EXPECT_EQ(nan_punct[0].rfind("ERR InvalidArgument", 0), 0u)
      << nan_punct[0];

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

// Executor options past their limits fail closed with one ERR line
// before any executor is built, so a huge batch= never reaches the
// batch allocation. Limit values themselves are accepted; serial mode
// keeps shards=64 from starting threads.
TEST(ProtocolTest, OutOfRangeExecutorOptionsRegisterNothing) {
  QueryRegistry registry;
  Session session;
  Exec(&registry, &session,
      "CREATE STREAM item sellerid:int itemid:int name:string "
      "initialprice:int");
  Exec(&registry, &session,
      "CREATE STREAM bid bidderid:int itemid:int increase:int");
  for (const char* option : {"shards=65", "batch=65537", "queue=1048577"}) {
    auto err = Exec(&registry, &session,
                    std::string("REGISTER QUERY q WITH ") + option + " AS " +
                        kAuctionSpec);
    ASSERT_EQ(err.size(), 1u) << option;
    EXPECT_EQ(err[0].rfind("ERR InvalidArgument: ", 0), 0u) << err[0];
    EXPECT_TRUE(registry.QueryIds().empty()) << option;
  }
  auto ok = Exec(&registry, &session,
                 std::string("REGISTER QUERY q WITH mode=serial shards=64 "
                             "batch=65536 queue=1048576 AS ") +
                     kAuctionSpec);
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(ok[0].rfind("OK query q", 0), 0u) << ok[0];
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
