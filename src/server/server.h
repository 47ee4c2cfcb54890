// IngestServer: the network front of the multi-query engine
// (docs/SERVER.md). A single-threaded, non-blocking socket loop —
// epoll on Linux, poll elsewhere — frames newline-delimited protocol
// lines, executes them against a QueryRegistry via protocol.h's
// ProcessLine, and streams each query's results to its subscribers.
//
// Because the loop is one thread, it is the registry's only in-process
// driver here (embedders may still call the registry concurrently —
// it locks internally). A self-pipe wakes the loop for Stop().
//
// Result path: after every input line the loop takes each subscribed
// query's new results once, formats the whole take once into a reused
// byte buffer (Value::AppendTo, no streams), and appends those bytes
// to every subscriber's output.
//
// Backpressure: every connection has a bounded output buffer
// (ServerConfig::max_output_buffer, counted in unsent bytes). A
// subscriber that reads slower than its queries produce is
// disconnected, its unsent output discarded, rather than letting its
// buffer grow without bound — results are lost for that subscriber
// only (the paper's safety guarantee bounds *operator* state; output
// buffering is the server's own resource to bound). Input lines are
// bounded too (max_line_length) against runaway unframed senders.

#ifndef PUNCTSAFE_SERVER_SERVER_H_
#define PUNCTSAFE_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/protocol.h"
#include "server/query_registry.h"
#include "util/status.h"

namespace punctsafe {
namespace server {

struct ServerConfig {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port
  /// (read it back via port()).
  uint16_t port = 0;
  /// Listen backlog.
  int backlog = 64;
  /// Per-connection output-buffer cap in bytes; exceeding it
  /// disconnects the (slow) consumer.
  size_t max_output_buffer = 4u << 20;
  /// Longest accepted protocol line in bytes; exceeding it without a
  /// newline disconnects the sender.
  size_t max_line_length = 1u << 16;
};

/// \brief The ingestion/subscription server. Listen() binds; Start()
/// runs the event loop on a background thread; Stop() (or the
/// destructor) shuts it down. Run() is exposed for callers that want
/// to own the loop thread themselves.
class IngestServer {
 public:
  /// \brief Binds a non-blocking listener on 127.0.0.1 and prepares
  /// the wakeup pipe. `registry` must outlive the server.
  static Result<std::unique_ptr<IngestServer>> Listen(
      QueryRegistry* registry, ServerConfig config = {});

  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// \brief The bound port (the ephemeral pick when config.port == 0).
  uint16_t port() const { return port_; }

  /// \brief Runs the event loop until Stop(); blocking form.
  void Run();

  /// \brief Runs the event loop on a background thread.
  Status Start();

  /// \brief Signals the loop to exit, joins the Start() thread, and
  /// closes all connections. Idempotent.
  void Stop();

  /// \brief Async-signal-safe stop request: flips the stop flag and
  /// writes the wakeup pipe, nothing else. The loop exits on its own;
  /// call Stop() afterwards to join and reap.
  void RequestStop();

  /// \brief Connections currently open (tests).
  size_t num_connections() const { return num_connections_.load(); }

 private:
  struct Connection {
    int fd = -1;
    std::string in;    // unframed bytes awaiting a newline
    // Output; out[0, out_sent) already went to the socket. A read
    // offset instead of erasing the front keeps a partial send from
    // moving the rest of the buffer.
    std::string out;
    size_t out_sent = 0;
    Session session;   // protocol state (subscriptions, quit)
    bool closing = false;  // flush `out`, then close
    bool dropped = false;  // slow consumer: close now, discard `out`
    uint32_t interest = 0;  // epoll events registered; 0 = not added

    size_t unsent() const { return out.size() - out_sent; }
  };

  IngestServer(QueryRegistry* registry, ServerConfig config);

  Status Bind();
  void AcceptNew();
  // Reads available bytes; executes complete lines. False = drop the
  // connection.
  bool HandleReadable(Connection* conn);
  // Sends as much unsent output as the socket takes. False = drop.
  bool FlushOutput(Connection* conn);
  // Appends response/result lines, enforcing the output bound. False =
  // drop (slow consumer).
  bool Enqueue(Connection* conn, const std::string& line);
  // Moves freshly produced results of all subscribed queries into the
  // subscribers' output buffers, formatting each query's take once.
  // A subscriber the bytes would push past max_output_buffer is marked
  // dropped.
  void PumpResults();
  void CloseConnection(int fd);
  void CloseAll();

  QueryRegistry* registry_;
  ServerConfig config_;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  uint16_t port_ = 0;
  std::map<int, Connection> connections_;  // by fd
  // PumpResults scratch, reused across calls: the subscribed query
  // ids, deduplicated, and one query's formatted RESULT lines.
  std::vector<std::string> pump_ids_;
  std::string chunk_;
  std::atomic<bool> running_{false};  // double-Start guard
  std::atomic<bool> stop_{false};     // loop exit signal
  std::atomic<size_t> num_connections_{0};
  std::thread loop_thread_;
};

}  // namespace server
}  // namespace punctsafe

#endif  // PUNCTSAFE_SERVER_SERVER_H_
