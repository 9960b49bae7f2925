// Bounded, priority-aware job scheduler for the repair service.
//
// Layered on util::ThreadPool: the pool supplies the workers and its FIFO
// queue carries one opaque "run the next job" task per accepted submission;
// the scheduler owns the *ordering* (a priority index over the pending
// jobs, FIFO within a priority) plus everything the pool deliberately does
// not do — admission control (a bounded queue that rejects with a
// retry-after hint instead of growing without bound), cancellation (queued
// jobs are dequeued outright; running jobs get a cooperative flag that
// repair::RepairOptions::cancel plumbs into the engine's iteration
// boundary), and graceful drain (stop admitting, then wait for queued and
// running work to finish — never dropping an accepted job).
//
// Determinism: the scheduler never reorders work *within* a job and jobs
// never share mutable state (each loads its own scenario snapshot), so the
// bytes a job produces are independent of queue order, worker count and
// concurrent load — the same contract the campaign runner's fan-out keeps.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace acr::service {

enum class JobStatus : std::uint8_t { kQueued, kRunning, kDone, kCancelled };

[[nodiscard]] std::string jobStatusName(JobStatus status);

/// What a job hands back: the process-style exit code and the exact bytes
/// the equivalent offline CLI run would have printed.
struct JobResult {
  int exit_code = 0;
  std::string output;
};

struct SchedulerOptions {
  int workers = 0;           // 0 = one per hardware thread
  int queue_limit = 64;      // queued (not yet running) jobs
  int retry_after_ms = 100;  // backpressure hint sent with rejections
  /// Registry for service.jobs_* counters and the queue-wait / run-time
  /// histograms; nullptr = the process-global registry.
  util::MetricsRegistry* metrics = nullptr;
};

class JobScheduler {
 public:
  /// Job body. `cancelled` is the job's own flag — long-running work polls
  /// it (the repair engine does, per iteration) and may return early.
  using Work = std::function<JobResult(const std::atomic<bool>& cancelled)>;

  explicit JobScheduler(const SchedulerOptions& options = {});
  ~JobScheduler();  // drains: accepted jobs always finish

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  struct Submitted {
    bool accepted = false;
    std::uint64_t id = 0;        // valid when accepted
    int retry_after_ms = 0;      // backpressure hint when rejected
    std::string reject_reason;   // "queue full" | "draining"
  };

  /// Admits a job, or rejects it when the queue is full / the scheduler is
  /// draining. Higher priority runs earlier; FIFO within one priority.
  [[nodiscard]] Submitted submit(int priority, Work work);

  [[nodiscard]] std::optional<JobStatus> status(std::uint64_t id) const;

  /// The trace context captured at submit (zero-valued when the submitter
  /// had none). Lets the wire protocol echo the trace id in `result`.
  [[nodiscard]] std::optional<obs::TraceContext> trace(std::uint64_t id) const;

  /// Result of a finished job; never blocks (onFinished() is how to wait).
  /// nullopt: unknown id, or the job is not finished yet.
  [[nodiscard]] std::optional<JobResult> result(std::uint64_t id) const;

  /// Parks a one-shot completion callback: invoked exactly once when the
  /// job reaches kDone/kCancelled — immediately (in the caller's thread)
  /// when it already has, else from whichever thread finishes the job.
  /// This is how the service waits without a blocked thread: `submit
  /// wait:true` parks a callback here. False: unknown id (callback not
  /// invoked).
  bool onFinished(std::uint64_t id, std::function<void()> callback);

  /// Queued job: removed from the queue, never runs, status kCancelled.
  /// Running job: raises its flag (the job decides when to stop; its status
  /// becomes kCancelled when it returns). False: unknown or already done.
  bool cancel(std::uint64_t id);

  /// Stops admitting and blocks until every queued + running job finished.
  /// Idempotent; submit() rejects with "draining" afterwards.
  void drain();

  [[nodiscard]] int queueDepth() const;
  /// Queued jobs per priority level (only levels with at least one queued
  /// job appear). The `stats` wire response exposes this as
  /// `queue_by_priority`.
  [[nodiscard]] std::map<int, int> queueDepthByPriority() const;
  [[nodiscard]] int runningCount() const;
  [[nodiscard]] int workerCount() const { return pool_.size(); }

 private:
  struct Job {
    std::uint64_t id = 0;
    JobStatus status = JobStatus::kQueued;
    Work work;
    JobResult result;
    std::atomic<bool> cancelled{false};
    std::chrono::steady_clock::time_point enqueued;
    /// The submitter's trace context, reinstalled around the job body so
    /// its spans nest under the submit (the pool task that runs a job is
    /// not necessarily the task its submit enqueued — the context must
    /// travel with the job, not the task).
    obs::TraceContext trace;
    /// Parked onFinished callbacks, fired (outside the lock) by whichever
    /// thread moves the job to kDone/kCancelled.
    std::vector<std::function<void()>> on_finished;
  };

  void runOne();

  const SchedulerOptions options_;
  util::MetricsRegistry& metrics_;

  mutable std::mutex mutex_;
  std::condition_variable finished_;  // drain(): a job left queue or run
  std::uint64_t next_id_ = 1;
  bool draining_ = false;
  int running_ = 0;
  /// Priority index over the queued jobs: key (-priority, id) so begin() is
  /// the highest priority, oldest first.
  std::map<std::pair<std::int64_t, std::uint64_t>, std::shared_ptr<Job>>
      pending_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  /// Last member: workers may still be signalling finished_ when drain()
  /// returns, so the pool must join them before the members above die.
  util::ThreadPool pool_;
};

}  // namespace acr::service
