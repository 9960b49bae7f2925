// service::TcpServer: the repair service's TCP front end, an epoll event
// loop. Embedders include it through service/server.hpp.
//
// One thread, edge-triggered epoll, non-blocking sockets: accept, read and
// write are small state machines over per-connection line buffers, so an
// idle connection costs one fd and a couple of buffers — not a thread. The
// old thread-per-connection server stopped scaling at a few hundred
// clients (64 concurrent repairs was its design point); this loop holds
// thousands of idle connections and still answers in-flight requests in
// order.
//
// Dispatch goes through RepairService::handleLineAsync: a request that can
// answer immediately is answered inside the loop iteration; a waiting op
// (`submit`/`result` with "wait":true) parks a scheduler
// completion callback, and the finishing worker thread posts the response
// to the loop through an eventfd-signalled completion queue. While a
// connection has a response pending, its further pipelined lines stay
// buffered — responses per connection are strictly in request order, the
// same contract the threaded server kept by construction.
//
// Framing hygiene the threaded server lacked: a request line longer than
// max_line_bytes is answered with {"ok":false,...} and the connection is
// dropped (bounded buffering instead of OOM-by-client), counted in
// service.connections.dropped.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/metrics.hpp"

namespace acr::service {

class RepairService;

struct TcpServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral; read the bound port back via port()
  /// Optional external stop flag (e.g. a signal handler's); polled by
  /// serve() alongside the service's own shutdown flag.
  const std::atomic<bool>* stop = nullptr;
  /// Longest accepted request line; above it the client gets an error
  /// response and the connection is closed.
  std::size_t max_line_bytes = 1 << 20;
};

/// The service.connections.* gauge/counters land in service.metrics().
class TcpServer {
 public:
  /// Binds + listens immediately (throws std::runtime_error on failure).
  TcpServer(RepairService& service, const TcpServerOptions& options = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  [[nodiscard]] int port() const { return port_; }

  /// Runs the loop in the calling thread. Returns once a stop condition
  /// rose (stop(), the external flag, or a handled `shutdown` request)
  /// AND every in-flight request has been answered and flushed; idle
  /// connections are then closed.
  void serve();

  /// Makes serve() return; callable from any thread (wakes the loop).
  void stop();

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;  // completion-queue key; immune to fd reuse
    std::string in;        // bytes past the last consumed request line
    std::string out;       // response bytes not yet written
    bool waiting = false;  // a dispatched request's response is pending
    bool closing = false;  // flush `out`, then close (protocol violation)
    bool eof = false;      // client half-closed; close once !waiting
  };

  /// Off-loop responses, posted by job-finishing worker threads. Shared
  /// (not a member) so a completion callback that outlives the loop —
  /// its connection died while the job ran — posts into a still-valid
  /// queue instead of a dangling `this`. Owns the eventfd for the same
  /// reason: a post after the loop died writes to an fd nobody reads,
  /// never to a recycled descriptor.
  struct CompletionQueue {
    std::mutex mutex;
    std::vector<std::pair<std::uint64_t, std::string>> items;
    int wake_fd = -1;
    ~CompletionQueue();
    void post(std::uint64_t connection_id, std::string&& response);
  };

  void acceptReady();
  void readReady(Connection& connection);
  /// Consumes complete lines from `in` until one goes async or the buffer
  /// runs dry; enforces max_line_bytes. Never closes the connection.
  void processLines(Connection& connection);
  void dispatchLine(Connection& connection, const std::string& line);
  void rejectOversizedLine(Connection& connection);
  /// Appends one finished response; when the response did not complete
  /// synchronously inside this connection's own dispatch, also resumes
  /// the connection (pipeline + flush).
  void deliver(std::uint64_t connection_id, std::string&& response);
  /// Pipeline + flush + close-on-eof for one connection, by id (the
  /// connection may die at any step; every step re-looks it up).
  void resume(std::uint64_t connection_id);
  void drainCompletions();
  void closeConnection(Connection& connection);
  /// Writes `out` until done or EAGAIN; may close (peer gone, or a
  /// `closing` connection fully flushed).
  void flush(Connection& connection);
  [[nodiscard]] bool stopRequested() const;

  RepairService& service_;
  const TcpServerOptions options_;
  util::MetricsRegistry& metrics_;
  std::shared_ptr<CompletionQueue> completions_;
  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::uint64_t next_connection_id_ = 1;
  /// Connection whose dispatch is currently on the stack (0 = none):
  /// lets deliver() tell a synchronous answer (the enclosing
  /// processLines keeps going) from a cross-connection wakeup (resume
  /// explicitly or the response would sit until the next event).
  std::uint64_t dispatching_ = 0;
  std::unordered_map<int, Connection> by_fd_;
  std::unordered_map<std::uint64_t, int> fd_by_id_;
  std::thread::id loop_thread_;  // set by serve(); enables sync delivery
};

}  // namespace acr::service
