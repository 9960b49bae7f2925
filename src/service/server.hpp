// The repair service: request dispatch (embeddable) and the acrd TCP
// front end.
//
// RepairService is the daemon's brain with no I/O of its own — it maps one
// decoded wire-protocol request (docs/service.md) to one response, backed
// by the JobScheduler and the SnapshotCache. handleAsync()/handleLineAsync()
// is its one dispatcher: every op that can answer immediately calls `done`
// before returning; a waiting op (`submit`/`result` with "wait":true) parks
// a completion callback in the scheduler (JobScheduler::onFinished) and
// `done` fires from whichever thread finishes the job, so a blocked `wait`
// costs a parked callback, not a parked thread. handle() is a blocking
// adapter over it for embedders such as the tests.
//
// TcpServer (src/service/event_loop.hpp) speaks the newline-delimited JSON
// protocol over a local TCP socket and dispatches every line through
// handleLineAsync; acrd is a RepairService behind one.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "service/event_loop.hpp"
#include "service/json.hpp"
#include "service/scheduler.hpp"
#include "service/snapshot_cache.hpp"

namespace acr::service {

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

  /// Dispatches one request ("op": submit | status | result | cancel |
  /// stats | shutdown); `done` receives the response exactly once —
  /// before returning for every op that can answer immediately, later
  /// (from a job-finishing thread) for waiting ops. Never throws:
  /// malformed requests and handler errors come back as
  /// {"ok":false,"error":...}.
  void handleAsync(const Json& request, std::function<void(Json)> done);

  /// Line-oriented entry: parse, dispatch, render (the TCP framing).
  void handleLineAsync(const std::string& line,
                       std::function<void(std::string)> done);

  /// Blocking adapter: handleAsync, then waits for its response.
  [[nodiscard]] Json handle(const Json& request);

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
  /// non-waiting `submit` answers: {"ok":true,"id":...,"status":...} or
  /// the rejection/error object.
  struct SubmitOutcome {
    bool accepted = false;
    std::uint64_t id = 0;
    Json response;
  };

  /// Admission only — never blocks, never waits.
  SubmitOutcome submitOne(const Json& request);
  /// Renders a finished job exactly like `result` does (ok/id/status/
  /// exit/output/trace). Only call once the job reached kDone/kCancelled.
  Json resultResponse(std::uint64_t id);

  Json handleStatus(const Json& request);
  Json handleResult(const Json& request);
  Json handleCancel(const Json& request);
  Json handleStats();
  Json dispatch(const Json& request);  // every op that answers at once

  const ServiceOptions options_;
  util::MetricsRegistry& metrics_;
  SnapshotCache cache_;
  JobScheduler scheduler_;  // declared after the cache: jobs use it
  std::atomic<bool> shutdown_{false};
  const std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();  // `stats` reports uptime_ms
};

}  // namespace acr::service
