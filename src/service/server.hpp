// The repair service: request dispatch (embeddable) and the acrd TCP
// front end.
//
// RepairService is the daemon's brain with no I/O of its own — it maps one
// decoded wire-protocol request (docs/service.md) to one response, backed
// by the JobScheduler and the SnapshotCache. Embedders (tests, benches,
// other binaries) drive it directly; acrd wraps it in a TcpServer.
//
// Two dispatch surfaces over the same handlers:
//   * handle()/handleLine() — synchronous; ops that wait (`submit`/
//     `submit_batch`/`result` with "wait":true) block the calling thread.
//   * handleAsync()/handleLineAsync() — non-blocking; waiting ops park a
//     completion callback in the scheduler (JobScheduler::onFinished) and
//     invoke `done` from whichever thread finishes the job. Everything
//     else answers before returning. Both surfaces render byte-identical
//     responses; the event-loop TcpServer uses the async one so a blocked
//     `wait` costs a parked callback, not a parked thread.
//
// TcpServer speaks the newline-delimited JSON protocol over a local TCP
// socket: one request line in, one response line out, any number of
// exchanges per connection. It is an epoll event loop
// (src/service/event_loop.hpp) — thousands of idle connections cost no
// threads — instead of the original thread-per-connection design.
// Requests on one connection are still answered strictly in order.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "service/json.hpp"
#include "service/scheduler.hpp"
#include "service/snapshot_cache.hpp"

namespace acr::service {

class EventLoop;

struct ServiceOptions {
  SchedulerOptions scheduler;
  SnapshotCache::Options cache;
  bool cache_enabled = true;
  /// Registry for service.requests / service.request_ms; nullptr = global.
  util::MetricsRegistry* metrics = nullptr;
};

class RepairService {
 public:
  explicit RepairService(const ServiceOptions& options = {});

  /// Dispatches one request ("op": submit | submit_batch | status |
  /// result | cancel | stats | shutdown) to one response. Never throws:
  /// malformed requests and handler errors come back as
  /// {"ok":false,"error":...}.
  [[nodiscard]] Json handle(const Json& request);

  /// Line-oriented entry: parse, dispatch, render (the TCP framing).
  [[nodiscard]] std::string handleLine(const std::string& line);

  /// Non-blocking dispatch: `done` receives the response exactly once —
  /// before returning for every op that can answer immediately, later
  /// (from a job-finishing thread) for waiting ops. Responses are
  /// byte-identical to handle()'s for the same request and job state.
  void handleAsync(const Json& request, std::function<void(Json)> done);

  /// Line-oriented async entry (the event loop's framing).
  void handleLineAsync(const std::string& line,
                       std::function<void(std::string)> done);

  /// Stops admitting jobs and waits for queued + running jobs to finish.
  void drain();

  /// True once a `shutdown` request was handled; the serve loop polls it.
  [[nodiscard]] bool shutdownRequested() const {
    return shutdown_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] JobScheduler& scheduler() { return scheduler_; }
  [[nodiscard]] SnapshotCache& cache() { return cache_; }
  [[nodiscard]] util::MetricsRegistry& metrics() { return metrics_; }

 private:
  /// One admitted (or rejected) submission. `response` is exactly what a
  /// plain non-wait `submit` answers: {"ok":true,"id":...,"status":...}
  /// or the rejection/error object.
  struct SubmitOutcome {
    bool accepted = false;
    std::uint64_t id = 0;
    Json response;
  };

  /// Admission only — never blocks, never waits. Shared by the sync and
  /// async submit paths and by submit_batch items.
  SubmitOutcome submitOne(const Json& request);
  /// Renders a finished job exactly like `result` does (ok/id/status/
  /// exit/output/trace). Only call once the job reached kDone/kCancelled.
  Json resultResponse(std::uint64_t id);

  Json handleSubmit(const Json& request);
  Json handleSubmitBatch(const Json& request);
  /// Merges the batch's shared defaults with one item's overrides into a
  /// standalone submit request; nullopt when the item is not an object.
  static std::optional<Json> mergeBatchItem(const Json& request,
                                            const Json& item);
  Json handleStatus(const Json& request);
  Json handleResult(const Json& request);
  Json handleCancel(const Json& request);
  Json handleStats();
  Json dispatch(const Json& request);  // everything but the waiting paths

  const ServiceOptions options_;
  util::MetricsRegistry& metrics_;
  SnapshotCache cache_;
  JobScheduler scheduler_;  // declared after the cache: jobs use it
  std::atomic<bool> shutdown_{false};
  const std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();  // `stats` reports uptime_ms
};

struct TcpServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral; read the bound port back via port()
  /// Optional external stop flag (e.g. a signal handler's); polled by
  /// serve() alongside the service's own shutdown flag.
  const std::atomic<bool>* stop = nullptr;
  /// A request line larger than this is answered with {"ok":false,...}
  /// and the connection dropped — bounded buffering, not OOM-by-client.
  std::size_t max_line_bytes = 1 << 20;
};

/// The TCP front end: an epoll event loop (one thread, edge-triggered
/// accept/read/write state machines, per-connection line buffers). Wire
/// behaviour is unchanged from the thread-per-connection original —
/// byte-identical responses, in-order responses per connection — but
/// idle connections now cost one fd each, and a blocking `wait` parks a
/// scheduler callback instead of a connection thread.
class TcpServer {
 public:
  /// Binds + listens immediately (throws std::runtime_error on failure).
  TcpServer(RepairService& service, const TcpServerOptions& options = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  [[nodiscard]] int port() const;

  /// Event loop. Returns when stop() is called, the external stop flag
  /// rises, or the service handles a `shutdown` request — after every
  /// in-flight request has been answered and flushed.
  void serve();

  /// Makes serve() return; callable from any thread.
  void stop();

 private:
  std::unique_ptr<EventLoop> loop_;
};

}  // namespace acr::service
