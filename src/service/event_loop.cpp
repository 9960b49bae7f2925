#include "service/event_loop.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "service/server.hpp"

namespace acr::service {

namespace {

int throwOnError(int fd, const char* what) {
  if (fd < 0) {
    throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
  }
  return fd;
}

}  // namespace

TcpServer::CompletionQueue::~CompletionQueue() {
  if (wake_fd >= 0) ::close(wake_fd);
}

void TcpServer::CompletionQueue::post(std::uint64_t connection_id,
                                      std::string&& response) {
  {
    const std::lock_guard<std::mutex> lock(mutex);
    items.emplace_back(connection_id, std::move(response));
  }
  const std::uint64_t one = 1;
  // The queue owns wake_fd, so this write can never hit a recycled
  // descriptor — at worst (loop already gone) it lands in an eventfd
  // nobody reads again.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd, &one, sizeof one);
}

TcpServer::TcpServer(RepairService& service, const TcpServerOptions& options)
    : service_(service),
      options_(options),
      metrics_(service.metrics()),
      completions_(std::make_shared<CompletionQueue>()) {
  completions_->wake_fd =
      throwOnError(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC), "eventfd");
  listen_fd_ = throwOnError(
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0),
      "socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &address.sin_addr) != 1) {
    ::close(listen_fd_);
    throw std::runtime_error("bad listen address " + options_.host);
  }
  // Backlog sized for connection bursts: bench_service_throughput opens
  // thousands of connections at once and SOMAXCONN (typically 4096+)
  // absorbs it.
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
             sizeof address) != 0 ||
      ::listen(listen_fd_, SOMAXCONN) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    throw std::runtime_error("cannot listen on " + options_.host + ":" +
                             std::to_string(options_.port) + ": " + reason);
  }
  socklen_t length = sizeof address;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address), &length);
  port_ = ntohs(address.sin_port);
  epoll_fd_ = throwOnError(::epoll_create1(EPOLL_CLOEXEC), "epoll_create1");
  epoll_event event{};
  event.events = EPOLLIN | EPOLLET;
  event.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &event);
  event.data.fd = completions_->wake_fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, completions_->wake_fd, &event);
}

TcpServer::~TcpServer() {
  for (const auto& [fd, connection] : by_fd_) {
    ::close(fd);
    metrics_.gauge("service.connections.open").sub(1);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  // wake_fd is owned by completions_ and closes with its last reference —
  // which may be a still-parked scheduler callback, not us.
}

bool TcpServer::stopRequested() const {
  if (stopping_.load(std::memory_order_relaxed)) return true;
  if (options_.stop != nullptr &&
      options_.stop->load(std::memory_order_relaxed)) {
    return true;
  }
  return service_.shutdownRequested();
}

void TcpServer::stop() {
  stopping_.store(true, std::memory_order_relaxed);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(completions_->wake_fd, &one, sizeof one);
}

void TcpServer::serve() {
  loop_thread_ = std::this_thread::get_id();
  bool draining = false;
  std::vector<int> idle;
  for (;;) {
    if (stopRequested()) {
      if (!draining) {
        draining = true;
        // Stop accepting immediately; existing conversations finish.
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      idle.clear();
      for (const auto& [fd, connection] : by_fd_) {
        if (!connection.waiting && connection.out.empty()) idle.push_back(fd);
      }
      for (const int fd : idle) closeConnection(by_fd_.at(fd));
      // Anything left is mid-request (a parked wait) or mid-flush; keep
      // looping until their responses are out the door.
      if (by_fd_.empty()) break;
    }
    epoll_event events[128];
    const int ready = ::epoll_wait(epoll_fd_, events, 128, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        acceptReady();
        continue;
      }
      if (fd == completions_->wake_fd) {
        // Clear the edge before draining (below): a post landing after
        // the drain re-signals it, so nothing sleeps through a tick.
        std::uint64_t counter = 0;
        while (::read(fd, &counter, sizeof counter) > 0) {
        }
        continue;
      }
      const auto it = by_fd_.find(fd);
      if (it == by_fd_.end()) continue;  // closed earlier in this batch
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        closeConnection(it->second);
        continue;
      }
      if ((events[i].events & (EPOLLIN | EPOLLRDHUP)) != 0) {
        readReady(it->second);
      }
      const auto still = by_fd_.find(fd);
      if (still != by_fd_.end() && (events[i].events & EPOLLOUT) != 0) {
        flush(still->second);
      }
    }
    drainCompletions();
  }
}

void TcpServer::acceptReady() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EAGAIN: edge drained. Anything else (EMFILE, aborted handshake):
      // stop too — with ET the next arrival re-triggers us.
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    epoll_event event{};
    event.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
    event.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
      ::close(fd);
      continue;
    }
    Connection connection;
    connection.fd = fd;
    connection.id = next_connection_id_++;
    fd_by_id_.emplace(connection.id, fd);
    by_fd_.emplace(fd, std::move(connection));
    metrics_.counter("service.connections.accepted").add(1);
    metrics_.gauge("service.connections.open").add(1);
  }
}

void TcpServer::readReady(Connection& connection) {
  const std::uint64_t id = connection.id;
  char chunk[65536];
  for (;;) {
    const ssize_t received = ::recv(connection.fd, chunk, sizeof chunk, 0);
    if (received > 0) {
      connection.in.append(chunk, static_cast<std::size_t>(received));
      continue;
    }
    if (received == 0) {
      connection.eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    closeConnection(connection);
    return;
  }
  resume(id);
}

void TcpServer::processLines(Connection& connection) {
  // Same framing as the threaded server: split on '\n' exactly — no \r
  // handling, no empty-line skipping (an empty line is a malformed-JSON
  // request and earns that error response).
  while (!connection.waiting && !connection.closing) {
    const auto newline = connection.in.find('\n');
    if (newline == std::string::npos) {
      if (connection.in.size() > options_.max_line_bytes) {
        rejectOversizedLine(connection);
      }
      return;
    }
    if (newline > options_.max_line_bytes) {
      rejectOversizedLine(connection);
      return;
    }
    const std::string line = connection.in.substr(0, newline);
    connection.in.erase(0, newline + 1);
    dispatchLine(connection, line);
  }
}

void TcpServer::rejectOversizedLine(Connection& connection) {
  Json response;
  response.set("ok", false);
  response.set("error", "request line exceeds " +
                            std::to_string(options_.max_line_bytes) +
                            " bytes");
  connection.out += response.str();
  connection.out += '\n';
  connection.in.clear();
  connection.closing = true;  // flush the error, then drop the connection
  metrics_.counter("service.connections.dropped").add(1);
}

void TcpServer::dispatchLine(Connection& connection, const std::string& line) {
  connection.waiting = true;
  const std::uint64_t previous = dispatching_;
  dispatching_ = connection.id;
  // The callback can outlive this loop (the client may vanish mid-job,
  // leaving a parked scheduler callback to fire during a later drain), so
  // the off-thread path touches only the by-value captures — never `this`.
  service_.handleLineAsync(line,
                           [queue = completions_, loop = loop_thread_, this,
                            id = connection.id](std::string response) {
                             if (std::this_thread::get_id() == loop) {
                               deliver(id, std::move(response));
                               return;
                             }
                             queue->post(id, std::move(response));
                           });
  dispatching_ = previous;
}

void TcpServer::deliver(std::uint64_t connection_id, std::string&& response) {
  const auto it = fd_by_id_.find(connection_id);
  if (it == fd_by_id_.end()) return;  // connection died while the job ran
  Connection& connection = by_fd_.at(it->second);
  connection.out += response;
  connection.out += '\n';
  connection.waiting = false;
  // A synchronous answer is resumed by the enclosing processLines/
  // readReady; a cross-connection wakeup (a cancel unparking another
  // connection's waiter) must be pushed out now or it would sit until
  // that connection's next socket event.
  if (connection_id != dispatching_) resume(connection_id);
}

void TcpServer::resume(std::uint64_t connection_id) {
  const auto it = fd_by_id_.find(connection_id);
  if (it == fd_by_id_.end()) return;
  const int fd = it->second;
  processLines(by_fd_.at(fd));  // never closes the connection
  flush(by_fd_.at(fd));         // may close it
  const auto still = by_fd_.find(fd);
  if (still == by_fd_.end()) return;
  Connection& connection = still->second;
  if (connection.eof && !connection.waiting && connection.out.empty()) {
    closeConnection(connection);
  }
}

void TcpServer::drainCompletions() {
  std::vector<std::pair<std::uint64_t, std::string>> items;
  {
    const std::lock_guard<std::mutex> lock(completions_->mutex);
    items.swap(completions_->items);
  }
  for (auto& [connection_id, response] : items) {
    deliver(connection_id, std::move(response));
  }
}

void TcpServer::flush(Connection& connection) {
  while (!connection.out.empty()) {
    const ssize_t sent = ::send(connection.fd, connection.out.data(),
                                connection.out.size(), MSG_NOSIGNAL);
    if (sent > 0) {
      connection.out.erase(0, static_cast<std::size_t>(sent));
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (sent < 0 && errno == EINTR) continue;
    closeConnection(connection);
    return;
  }
  if (connection.closing) closeConnection(connection);
}

void TcpServer::closeConnection(Connection& connection) {
  const int fd = connection.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  fd_by_id_.erase(connection.id);
  metrics_.gauge("service.connections.open").sub(1);
  by_fd_.erase(fd);  // invalidates `connection`
}

}  // namespace acr::service
