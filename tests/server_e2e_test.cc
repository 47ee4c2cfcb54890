// End-to-end exercise of the ingestion server over real loopback
// sockets: one client registers a safe 3-way CJQ and subscribes, a
// second client creates the streams and pushes tuples/punctuations,
// and the RESULT lines the subscriber receives must multiset-match a
// serial PlanExecutor fed the same elements directly.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "exec/query_register.h"
#include "server/protocol.h"
#include "server/server.h"

namespace punctsafe {
namespace server {
namespace {

// A blocking newline-framed loopback client.
class LineClient {
 public:
  ~LineClient() {
    if (fd_ >= 0) close(fd_);
  }

  bool Connect(uint16_t port) {
    if (fd_ < 0) fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval tv{10, 0};  // reads fail after 10s: tests end, not hang
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  bool Send(const std::string& line) {
    std::string framed = line + "\n";
    size_t off = 0;
    while (off < framed.size()) {
      ssize_t n = write(fd_, framed.data() + off, framed.size() - off);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  // Shrinks the receive buffer; call before Connect.
  bool Open(int rcvbuf) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    return fd_ >= 0 && setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                                  sizeof(rcvbuf)) == 0;
  }

  // Buffers whatever has arrived, without waiting.
  void ReadAvailable() {
    char chunk[65536];
    for (;;) {
      ssize_t n = recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n <= 0) return;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  bool ReadLine(std::string* line) {
    for (;;) {
      size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        *line = buf_.substr(pos_, nl - pos_);
        pos_ = nl + 1;
        if (!line->empty() && line->back() == '\r') line->pop_back();
        return true;
      }
      buf_.erase(0, pos_);
      pos_ = 0;
      char chunk[4096];
      ssize_t n = read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return false;  // timeout or EOF
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  // Sends one command and expects its one-line response to start with
  // `prefix`.
  void Expect(const std::string& command, const std::string& prefix) {
    ASSERT_TRUE(Send(command)) << command;
    std::string response;
    ASSERT_TRUE(ReadLine(&response)) << "no response to: " << command;
    EXPECT_EQ(response.rfind(prefix, 0), 0u)
        << command << " -> " << response;
  }

 private:
  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;  // buf_[0, pos_) has been returned already
};

constexpr const char* kTriangleSpec =
    "scheme S1 B; scheme S2 B; scheme S2 C; scheme S3 C A; "
    "query S1 S2 S3; "
    "join S1.B = S2.B; join S2.C = S3.C; join S3.A = S1.A";

struct Element {
  std::string stream;
  bool punctuation;
  std::vector<int> values;  // tuple values, or punct constants (-1 = *)
  int64_t ts;
};

// The paper's Figure 8 triangle: every i makes one result triple, the
// noise rows join nothing, and punctuations close finished B/C
// values behind the data.
std::vector<Element> Workload() {
  std::vector<Element> elements;
  int64_t ts = 1;
  for (int i = 0; i < 6; ++i) {
    elements.push_back({"S1", false, {i, 10 + i}, ts++});
    elements.push_back({"S2", false, {10 + i, 100 + i}, ts++});
    elements.push_back({"S3", false, {100 + i, i}, ts++});
    if (i >= 2) {
      elements.push_back({"S1", true, {-1, 10 + i - 2}, ts++});
      elements.push_back({"S2", true, {10 + i - 2, -1}, ts++});
    }
  }
  elements.push_back({"S1", false, {50, 99}, ts++});  // joins nothing
  elements.push_back({"S2", false, {77, 88}, ts++});
  return elements;
}

// Serial PlanExecutor reference: the same admission pipeline and the
// same elements, no sockets.
std::vector<std::string> ReferenceResultLines() {
  QueryRegister reg;
  EXPECT_TRUE(reg.RegisterStream("S1", Schema::OfInts({"A", "B"})).ok());
  EXPECT_TRUE(reg.RegisterStream("S2", Schema::OfInts({"B", "C"})).ok());
  EXPECT_TRUE(reg.RegisterStream("S3", Schema::OfInts({"C", "A"})).ok());
  EXPECT_TRUE(reg.RegisterScheme("S1", {"B"}).ok());
  EXPECT_TRUE(reg.RegisterScheme("S2", {"B"}).ok());
  EXPECT_TRUE(reg.RegisterScheme("S2", {"C"}).ok());
  EXPECT_TRUE(reg.RegisterScheme("S3", {"C", "A"}).ok());

  ExecutorConfig cfg;
  cfg.keep_results = true;
  auto rq = reg.Register({"S1", "S2", "S3"},
                         {Eq({"S1", "B"}, {"S2", "B"}),
                          Eq({"S2", "C"}, {"S3", "C"}),
                          Eq({"S3", "A"}, {"S1", "A"})},
                         cfg);
  EXPECT_TRUE(rq.ok()) << rq.status().ToString();
  if (!rq.ok()) return {};

  for (const Element& e : Workload()) {
    size_t idx = *rq->query.StreamIndex(e.stream);
    if (e.punctuation) {
      std::vector<std::pair<size_t, Value>> constants;
      for (size_t i = 0; i < e.values.size(); ++i) {
        if (e.values[i] >= 0) constants.emplace_back(i, Value(e.values[i]));
      }
      rq->executor->PushPunctuation(
          idx, Punctuation::OfConstants(e.values.size(), constants), e.ts);
    } else {
      std::vector<Value> values(e.values.begin(), e.values.end());
      rq->executor->PushTuple(idx, Tuple(std::move(values)), e.ts);
    }
  }
  rq->executor->FlushIngest();

  std::vector<std::string> lines;
  for (const Tuple& t : rq->executor->kept_results()) {
    lines.push_back(FormatResultLine("tri", t));
  }
  return lines;
}

// Protocol rendering of one workload element.
std::string ElementCommand(const Element& e) {
  std::string cmd = e.punctuation ? "PUNCT " : "PUSH ";
  cmd += e.stream;
  cmd += " @" + std::to_string(e.ts);
  for (int v : e.values) {
    cmd += ' ';
    cmd += (e.punctuation && v < 0) ? "*" : std::to_string(v);
  }
  return cmd;
}

TEST(ServerE2ETest, SubscriberMatchesSerialReference) {
  QueryRegistry registry;
  auto server = IngestServer::Listen(&registry);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_GT((*server)->port(), 0);
  ASSERT_TRUE((*server)->Start().ok());

  LineClient producer;
  ASSERT_TRUE(producer.Connect((*server)->port()));
  producer.Expect("CREATE STREAM S1 A:int B:int", "OK stream S1");
  producer.Expect("CREATE STREAM S2 B:int C:int", "OK stream S2");
  producer.Expect("CREATE STREAM S3 C:int A:int", "OK stream S3");

  LineClient subscriber;
  ASSERT_TRUE(subscriber.Connect((*server)->port()));
  subscriber.Expect(std::string("REGISTER QUERY tri AS ") + kTriangleSpec,
                    "OK query tri");
  subscriber.Expect("SUBSCRIBE tri", "OK subscribed tri");

  for (const Element& e : Workload()) {
    producer.Expect(ElementCommand(e), "OK");
  }
  producer.Expect("DRAIN", "OK drained");

  std::vector<std::string> expected = ReferenceResultLines();
  ASSERT_FALSE(expected.empty());

  std::vector<std::string> received;
  for (size_t i = 0; i < expected.size(); ++i) {
    std::string line;
    ASSERT_TRUE(subscriber.ReadLine(&line))
        << "got " << received.size() << " of " << expected.size()
        << " results";
    ASSERT_EQ(line.rfind("RESULT tri ", 0), 0u) << line;
    received.push_back(line);
  }

  std::sort(expected.begin(), expected.end());
  std::sort(received.begin(), received.end());
  EXPECT_EQ(received, expected);

  (*server)->Stop();
}

TEST(ServerE2ETest, UnsafeRegistrationRejectedOverTheWire) {
  QueryRegistry registry;
  auto server = IngestServer::Listen(&registry);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  LineClient client;
  ASSERT_TRUE(client.Connect((*server)->port()));
  client.Expect("CREATE STREAM S1 A:int B:int", "OK stream S1");
  client.Expect("CREATE STREAM S2 B:int C:int", "OK stream S2");

  // No punctuation schemes at all: the checker must reject, and the
  // witness must survive the protocol round-trip on one line.
  ASSERT_TRUE(client.Send(
      "REGISTER QUERY bad AS query S1 S2; join S1.B = S2.B"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(response.rfind("ERR FailedPrecondition: ", 0), 0u) << response;
  EXPECT_NE(response.find("UNSAFE"), std::string::npos) << response;

  // The connection survives the rejection and stays usable.
  client.Expect("PING", "OK pong");

  // STATS over the wire: key/value lines, then OK.
  ASSERT_TRUE(client.Send("STATS"));
  bool saw_stat = false;
  for (;;) {
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line));
    if (line == "OK") break;
    EXPECT_EQ(line.rfind("STAT ", 0), 0u) << line;
    saw_stat = true;
  }
  EXPECT_TRUE(saw_stat);

  // QUIT flushes and closes.
  ASSERT_TRUE(client.Send("QUIT"));
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(response, "OK bye");
  EXPECT_FALSE(client.ReadLine(&response));  // server closed the socket

  (*server)->Stop();
  EXPECT_EQ((*server)->num_connections(), 0u);
}

TEST(ServerE2ETest, TwoSubscribersBothReceiveResults) {
  QueryRegistry registry;
  auto server = IngestServer::Listen(&registry);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  LineClient producer;
  ASSERT_TRUE(producer.Connect((*server)->port()));
  producer.Expect("CREATE STREAM S1 A:int B:int", "OK stream S1");
  producer.Expect("CREATE STREAM S2 B:int C:int", "OK stream S2");
  producer.Expect(
      "REGISTER QUERY q AS scheme S1 B; scheme S2 B; query S1 S2; "
      "join S1.B = S2.B",
      "OK query q");

  LineClient sub1;
  LineClient sub2;
  ASSERT_TRUE(sub1.Connect((*server)->port()));
  ASSERT_TRUE(sub2.Connect((*server)->port()));
  sub1.Expect("SUBSCRIBE q", "OK subscribed q");
  sub2.Expect("SUBSCRIBE q", "OK subscribed q");

  producer.Expect("PUSH S1 1 7", "OK");
  producer.Expect("PUSH S2 7 3", "OK");
  producer.Expect("DRAIN", "OK drained");

  std::string line1;
  std::string line2;
  ASSERT_TRUE(sub1.ReadLine(&line1));
  ASSERT_TRUE(sub2.ReadLine(&line2));
  EXPECT_EQ(line1, line2);
  EXPECT_EQ(line1, "RESULT q 1 7 7 3");

  (*server)->Stop();
}

// A subscriber that never reads is disconnected once its unsent
// output would pass max_output_buffer. A second subscriber of the same
// query still receives every result, and the event loop keeps
// answering other connections.
TEST(ServerE2ETest, StalledSubscriberIsDroppedOthersKeepTheirResults) {
  QueryRegistry registry;
  ServerConfig config;
  config.max_output_buffer = 8u << 10;
  auto server = IngestServer::Listen(&registry, config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  const uint16_t port = (*server)->port();

  constexpr const char* kSpec =
      "scheme S1 B; scheme S2 B; query S1 S2; join S1.B = S2.B";
  LineClient producer;
  ASSERT_TRUE(producer.Connect(port));
  producer.Expect("CREATE STREAM S1 A:string B:int", "OK stream S1");
  producer.Expect("CREATE STREAM S2 B:int C:int", "OK stream S2");
  producer.Expect(std::string("REGISTER QUERY q AS ") + kSpec, "OK query q");

  LineClient stalled;
  ASSERT_TRUE(stalled.Open(4096));
  ASSERT_TRUE(stalled.Connect(port));
  stalled.Expect("SUBSCRIBE q", "OK subscribed q");
  LineClient reader;
  ASSERT_TRUE(reader.Connect(port));
  reader.Expect("SUBSCRIBE q", "OK subscribed q");
  LineClient pinger;
  ASSERT_TRUE(pinger.Connect(port));
  pinger.Expect("PING", "OK pong");
  ASSERT_EQ((*server)->num_connections(), 4u);

  // Round r: kWidth S1 rows with a ~100-byte payload, then kWidth S2
  // rows, all on join value r (kWidth^2 results, under 4 KiB per
  // PUSH), then punctuations that close r on both sides. The reader
  // takes what has arrived after every command. Rounds go on until
  // the stalled subscriber's kernel buffers are full and the server
  // drops it.
  constexpr int kWidth = 32;
  constexpr int kMaxRounds = 512;  // ~64 MiB of output to the stalled one
  const std::string payload(96, 'p');
  std::vector<std::string> commands;
  int rounds = 0;
  while ((*server)->num_connections() == 4) {
    ASSERT_LT(rounds, kMaxRounds) << "the stalled subscriber was never dropped";
    std::vector<std::string> round;
    for (int i = 0; i < kWidth; ++i) {
      round.push_back("PUSH S1 " + payload + std::to_string(i) + " " +
                      std::to_string(rounds));
    }
    for (int i = 0; i < kWidth; ++i) {
      round.push_back("PUSH S2 " + std::to_string(rounds) + " " +
                      std::to_string(i));
    }
    round.push_back("PUNCT S1 * " + std::to_string(rounds));
    round.push_back("PUNCT S2 " + std::to_string(rounds) + " *");
    for (const std::string& command : round) {
      producer.Expect(command, "OK");
      reader.ReadAvailable();
      commands.push_back(command);
    }
    ++rounds;
  }
  RecordProperty("rounds_until_drop", rounds);
  pinger.Expect("PING", "OK pong");
  producer.Expect("DRAIN", "OK drained");

  // Reference: the same lines through a socket-free registry.
  QueryRegistry reference;
  Session session;
  for (const std::string& line :
       {std::string("CREATE STREAM S1 A:string B:int"),
        std::string("CREATE STREAM S2 B:int C:int"),
        std::string("REGISTER QUERY q AS ") + kSpec}) {
    ASSERT_EQ(ProcessLine(&reference, &session, line)[0].rfind("OK", 0), 0u);
  }
  for (const std::string& command : commands) {
    ASSERT_EQ(ProcessLine(&reference, &session, command)[0], "OK");
  }
  auto rows = reference.TakeResults("q");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), static_cast<size_t>(rounds * kWidth * kWidth));
  std::vector<std::string> expected;
  for (const Tuple& t : *rows) expected.push_back(FormatResultLine("q", t));

  std::vector<std::string> received;
  for (size_t i = 0; i < expected.size(); ++i) {
    std::string line;
    ASSERT_TRUE(reader.ReadLine(&line))
        << "got " << received.size() << " of " << expected.size()
        << " results";
    received.push_back(line);
  }
  std::sort(expected.begin(), expected.end());
  std::sort(received.begin(), received.end());
  EXPECT_EQ(received, expected);

  pinger.Expect("PING", "OK pong");
  EXPECT_EQ((*server)->num_connections(), 3u);
  (*server)->Stop();
}

}  // namespace
}  // namespace server
}  // namespace punctsafe
