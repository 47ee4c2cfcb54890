// punctsafe_serve: the multi-query ingestion server as a command-line
// tool (docs/SERVER.md documents the wire protocol).
//
//   punctsafe_serve [--port N] [--shards N] [--batch N] [--parallel]
//
// Numeric flags take whole integers: --port in [0, 65535], --shards
// and --batch in [1, the protocol's kMaxShards / kMaxBatch]. Anything
// else exits 1 with the usage text.
//
// Binds 127.0.0.1 (port 0 = ephemeral; the bound port is printed
// either way, so scripts can parse `listening on 127.0.0.1:<port>`),
// then runs the event loop until SIGINT/SIGTERM. Talk to it with any
// line client, e.g.:
//
//   nc 127.0.0.1 <port>
//   CREATE STREAM item id:int price:double
//   REGISTER QUERY q AS scheme item id; query item item2; join ...
//   SUBSCRIBE q
//   PUSH item 1 9.99

#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>
#include <system_error>

#include "server/protocol.h"
#include "server/query_registry.h"
#include "server/server.h"

using namespace punctsafe;

namespace {

server::IngestServer* g_server = nullptr;

void HandleSignal(int /*sig*/) {
  // Async-signal-safe: only flips an atomic and writes the wakeup
  // pipe; the main thread joins/reaps after Run returns.
  if (g_server != nullptr) g_server->RequestStop();
}

int Usage(int code) {
  std::fprintf(stderr,
               "usage: punctsafe_serve [--port N] [--shards N] [--batch N] "
               "[--parallel]\n");
  return code;
}

// Parses all of `text` as an integer in [lo, hi].
bool ParseBounded(const std::string& text, int64_t lo, int64_t hi,
                  int64_t* out) {
  int64_t v = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  server::ServerConfig server_config;
  ExecutorConfig exec_config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--port" || arg == "--shards" || arg == "--batch") {
      const int64_t lo = arg == "--port" ? 0 : 1;
      const int64_t hi = arg == "--port"     ? 65535
                         : arg == "--shards" ? server::kMaxShards
                                             : server::kMaxBatch;
      int64_t v = 0;
      if (i + 1 >= argc || !ParseBounded(argv[i + 1], lo, hi, &v)) {
        std::fprintf(stderr,
                     "punctsafe_serve: %s takes a whole number in "
                     "[%lld, %lld]\n",
                     arg.c_str(), static_cast<long long>(lo),
                     static_cast<long long>(hi));
        return Usage(1);
      }
      ++i;
      if (arg == "--port") {
        server_config.port = static_cast<uint16_t>(v);
      } else if (arg == "--shards") {
        exec_config.shards = static_cast<size_t>(v);
      } else {
        exec_config.batch_size = static_cast<size_t>(v);
      }
    } else if (arg == "--parallel") {
      exec_config.mode = ExecutionMode::kParallel;
    } else if (arg == "--help" || arg == "-h") {
      return Usage(0);
    } else {
      std::fprintf(stderr, "punctsafe_serve: unknown argument '%s'\n",
                   arg.c_str());
      return Usage(1);
    }
  }

  server::QueryRegistry registry(exec_config);
  auto srv = server::IngestServer::Listen(&registry, server_config);
  if (!srv.ok()) {
    std::fprintf(stderr, "punctsafe_serve: %s\n",
                 srv.status().ToString().c_str());
    return 1;
  }
  std::printf("punctsafe_serve: listening on 127.0.0.1:%u\n",
              (*srv)->port());
  std::fflush(stdout);

  g_server = srv->get();
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  (*srv)->Run();
  (*srv)->Stop();  // reap connections; idempotent
  std::printf("punctsafe_serve: shut down\n");
  return 0;
}
