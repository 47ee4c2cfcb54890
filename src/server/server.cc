#include "server/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#ifdef __linux__
#include <sys/epoll.h>
#else
#include <poll.h>
#endif

#include "util/string_util.h"

namespace punctsafe {
namespace server {

namespace {

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(
        StrCat("fcntl(O_NONBLOCK): ", std::strerror(errno)));
  }
  return Status::OK();
}

}  // namespace

IngestServer::IngestServer(QueryRegistry* registry, ServerConfig config)
    : registry_(registry), config_(config) {}

Result<std::unique_ptr<IngestServer>> IngestServer::Listen(
    QueryRegistry* registry, ServerConfig config) {
  if (registry == nullptr) {
    return Status::InvalidArgument("registry must be non-null");
  }
  std::unique_ptr<IngestServer> server(new IngestServer(registry, config));
  PUNCTSAFE_RETURN_IF_ERROR(server->Bind());
  return server;
}

Status IngestServer::Bind() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(StrCat("socket: ", std::strerror(errno)));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::Internal(StrCat("bind: ", std::strerror(errno)));
  }
  if (listen(listen_fd_, config_.backlog) < 0) {
    return Status::Internal(StrCat("listen: ", std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Status::Internal(StrCat("getsockname: ", std::strerror(errno)));
  }
  port_ = ntohs(addr.sin_port);
  PUNCTSAFE_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));

  int pipe_fds[2];
  if (pipe(pipe_fds) < 0) {
    return Status::Internal(StrCat("pipe: ", std::strerror(errno)));
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  PUNCTSAFE_RETURN_IF_ERROR(SetNonBlocking(wake_read_fd_));
  PUNCTSAFE_RETURN_IF_ERROR(SetNonBlocking(wake_write_fd_));
  return Status::OK();
}

IngestServer::~IngestServer() {
  Stop();
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_read_fd_ >= 0) close(wake_read_fd_);
  if (wake_write_fd_ >= 0) close(wake_write_fd_);
}

Status IngestServer::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) {
    return Status::FailedPrecondition("server is already running");
  }
  stop_.store(false);
  loop_thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void IngestServer::RequestStop() {
  stop_.store(true);
  // Wake the loop out of its wait; a full pipe is fine (the loop is
  // about to wake anyway).
  char byte = 0;
  ssize_t ignored = write(wake_write_fd_, &byte, 1);
  (void)ignored;
}

void IngestServer::Stop() {
  RequestStop();
  if (loop_thread_.joinable()) loop_thread_.join();
  CloseAll();
  running_.store(false);
}

void IngestServer::AcceptNew() {
  for (;;) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN (drained) or transient error
    if (!SetNonBlocking(fd).ok()) {
      close(fd);
      continue;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Connection conn;
    conn.fd = fd;
    connections_.emplace(fd, std::move(conn));
    num_connections_.store(connections_.size());
  }
}

bool IngestServer::Enqueue(Connection* conn, const std::string& line) {
  if (conn->unsent() + line.size() + 1 > config_.max_output_buffer) {
    // Slow consumer: drop rather than buffer without bound.
    return false;
  }
  conn->out += line;
  conn->out += '\n';
  return true;
}

bool IngestServer::HandleReadable(Connection* conn) {
  char buf[4096];
  for (;;) {
    ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->in.append(buf, static_cast<size_t>(n));
      if (static_cast<ssize_t>(sizeof(buf)) > n) break;  // drained
      continue;
    }
    if (n == 0) {
      // Peer closed its write side; execute what's buffered, then
      // close after flushing any responses.
      conn->closing = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;  // hard error
  }

  size_t start = 0;
  for (;;) {
    size_t nl = conn->in.find('\n', start);
    if (nl == std::string::npos) break;
    std::string line = conn->in.substr(start, nl - start);
    start = nl + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    for (const std::string& response :
         ProcessLine(registry_, &conn->session, line)) {
      if (!Enqueue(conn, response)) return false;
    }
    // Eager results: lines a command just produced reach subscribers
    // in the same wakeup.
    PumpResults();
    if (conn->dropped) return false;
    if (conn->session.quit) {
      conn->closing = true;
      break;
    }
  }
  conn->in.erase(0, start);
  if (conn->in.size() > config_.max_line_length) {
    return false;  // unframed flood
  }
  return true;
}

bool IngestServer::FlushOutput(Connection* conn) {
  while (conn->unsent() > 0) {
    ssize_t n = send(conn->fd, conn->out.data() + conn->out_sent,
                     conn->unsent(),
#ifdef MSG_NOSIGNAL
                     MSG_NOSIGNAL
#else
                     0
#endif
    );
    if (n > 0) {
      conn->out_sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer is gone
  }
  if (conn->unsent() == 0) {
    conn->out.clear();
    conn->out_sent = 0;
  } else if (conn->out_sent > conn->out.size() / 2) {
    // Compact only past half: fewer bytes move than were sent since
    // the last compaction, so each byte moves at most once.
    conn->out.erase(0, conn->out_sent);
    conn->out_sent = 0;
  }
  return true;
}

void IngestServer::PumpResults() {
  // One take per subscribed query, however many connections follow it.
  pump_ids_.clear();
  for (const auto& [fd, conn] : connections_) {
    pump_ids_.insert(pump_ids_.end(), conn.session.subscriptions.begin(),
                     conn.session.subscriptions.end());
  }
  std::sort(pump_ids_.begin(), pump_ids_.end());
  pump_ids_.erase(std::unique(pump_ids_.begin(), pump_ids_.end()),
                  pump_ids_.end());
  for (const std::string& id : pump_ids_) {
    Result<std::vector<Tuple>> taken = registry_->TakeResults(id);
    if (!taken.ok()) {
      // The query vanished (unregistered elsewhere): silently drop the
      // stale subscriptions.
      for (auto& [fd, conn] : connections_) {
        conn.session.subscriptions.erase(id);
      }
      continue;
    }
    if (taken->empty()) continue;
    // Format the take once; every subscriber gets the same bytes.
    chunk_.clear();
    for (const Tuple& t : *taken) {
      AppendResultLine(&chunk_, id, t);
      chunk_.push_back('\n');
    }
    for (auto& [fd, conn] : connections_) {
      if (conn.session.subscriptions.count(id) == 0) continue;
      if (conn.unsent() + chunk_.size() > config_.max_output_buffer) {
        // Slow consumer: stop feeding it; the event loop drops it.
        conn.dropped = true;
        conn.session.subscriptions.clear();
        continue;
      }
      conn.out.append(chunk_);
    }
  }
}

void IngestServer::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  close(fd);
  connections_.erase(it);
  num_connections_.store(connections_.size());
}

void IngestServer::CloseAll() {
  for (auto& [fd, conn] : connections_) close(fd);
  connections_.clear();
  num_connections_.store(0);
}

#ifdef __linux__

void IngestServer::Run() {
  int epfd = epoll_create1(0);
  if (epfd < 0) return;
  auto control = [epfd](int op, int fd, uint32_t events) {
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = events;
    ev.data.fd = fd;
    epoll_ctl(epfd, op, fd, &ev);
  };
  control(EPOLL_CTL_ADD, listen_fd_, EPOLLIN);
  control(EPOLL_CTL_ADD, wake_read_fd_, EPOLLIN);

  // Level-triggered loop: connection interest is EPOLLIN, plus
  // EPOLLOUT only while output is pending. The kernel is told only
  // when a connection's interest changes; close() deregisters.
  epoll_event events[64];
  while (!stop_.load()) {
    int n = epoll_wait(epfd, events, 64, 500);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_read_fd_) {
        char drain[64];
        while (read(wake_read_fd_, drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        AcceptNew();
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      Connection* conn = &it->second;
      bool alive = !conn->dropped;
      if (alive && (events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        // Flush what we can (the peer may have half-closed), then
        // drop.
        FlushOutput(conn);
        alive = false;
      }
      if (alive && (events[i].events & EPOLLIN) != 0) {
        alive = HandleReadable(conn);
      }
      if (alive && (events[i].events & EPOLLOUT) != 0) {
        alive = FlushOutput(conn);
      }
      if (!alive) CloseConnection(fd);
    }

    // Results produced by this wakeup's commands (or by another
    // registry driver) reach subscribers even if their sockets were
    // silent.
    PumpResults();

    // Opportunistic flush + interest update for every connection.
    std::vector<int> doomed;
    for (auto& [fd, conn] : connections_) {
      if (conn.dropped || !FlushOutput(&conn)) {
        doomed.push_back(fd);
        continue;
      }
      if (conn.closing && conn.unsent() == 0) {
        doomed.push_back(fd);
        continue;
      }
      uint32_t want =
          conn.unsent() == 0 ? EPOLLIN : (EPOLLIN | EPOLLOUT);
      if (want != conn.interest) {
        control(conn.interest == 0 ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, fd,
                want);
        conn.interest = want;
      }
    }
    for (int fd : doomed) CloseConnection(fd);
  }
  close(epfd);
}

#else  // !__linux__: portable poll() loop

void IngestServer::Run() {
  while (!stop_.load()) {
    std::vector<pollfd> fds;
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_read_fd_, POLLIN, 0});
    for (const auto& [fd, conn] : connections_) {
      short events = POLLIN;
      if (conn.unsent() > 0) events |= POLLOUT;
      fds.push_back({fd, events, 0});
    }
    int n = poll(fds.data(), fds.size(), 500);
    if (n < 0 && errno != EINTR) break;
    if (fds[1].revents != 0) {
      char drain[64];
      while (read(wake_read_fd_, drain, sizeof(drain)) > 0) {
      }
    }
    if ((fds[0].revents & POLLIN) != 0) AcceptNew();
    for (size_t i = 2; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      auto it = connections_.find(fds[i].fd);
      if (it == connections_.end()) continue;
      Connection* conn = &it->second;
      bool alive = !conn->dropped;
      if (alive && (fds[i].revents & (POLLERR | POLLHUP)) != 0) {
        FlushOutput(conn);
        alive = false;
      }
      if (alive && (fds[i].revents & POLLIN) != 0) {
        alive = HandleReadable(conn);
      }
      if (alive && (fds[i].revents & POLLOUT) != 0) {
        alive = FlushOutput(conn);
      }
      if (!alive) CloseConnection(fds[i].fd);
    }

    PumpResults();

    std::vector<int> doomed;
    for (auto& [fd, conn] : connections_) {
      if (conn.dropped || !FlushOutput(&conn)) {
        doomed.push_back(fd);
        continue;
      }
      if (conn.closing && conn.unsent() == 0) doomed.push_back(fd);
    }
    for (int fd : doomed) CloseConnection(fd);
  }
}

#endif  // __linux__

}  // namespace server
}  // namespace punctsafe
