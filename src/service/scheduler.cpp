#include "service/scheduler.hpp"

namespace acr::service {

std::string jobStatusName(JobStatus status) {
  switch (status) {
    case JobStatus::kQueued: return "queued";
    case JobStatus::kRunning: return "running";
    case JobStatus::kDone: return "done";
    case JobStatus::kCancelled: return "cancelled";
  }
  return "?";
}

JobScheduler::JobScheduler(const SchedulerOptions& options)
    : options_(options),
      metrics_(options.metrics != nullptr ? *options.metrics
                                          : util::MetricsRegistry::global()),
      pool_(util::resolveJobs(options.workers)) {}

JobScheduler::~JobScheduler() { drain(); }

JobScheduler::Submitted JobScheduler::submit(int priority, Work work) {
  Submitted submitted;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      submitted.reject_reason = "draining";
      submitted.retry_after_ms = options_.retry_after_ms;
      metrics_.counter("service.jobs_rejected").add(1);
      return submitted;
    }
    if (static_cast<int>(pending_.size()) >= options_.queue_limit) {
      submitted.reject_reason = "queue full";
      submitted.retry_after_ms = options_.retry_after_ms;
      metrics_.counter("service.jobs_rejected").add(1);
      return submitted;
    }
    auto job = std::make_shared<Job>();
    job->id = next_id_++;
    job->work = std::move(work);
    job->enqueued = std::chrono::steady_clock::now();
    job->trace = obs::currentContext();
    pending_.emplace(std::make_pair(-static_cast<std::int64_t>(priority),
                                    job->id),
                     job);
    jobs_.emplace(job->id, job);
    submitted.accepted = true;
    submitted.id = job->id;
  }
  metrics_.counter("service.jobs_submitted").add(1);
  // One pool task per accepted job; the task picks whatever pending job has
  // the highest priority *when it runs*, so the pool's FIFO never inverts
  // our ordering.
  pool_.submit([this] { runOne(); });
  return submitted;
}

void JobScheduler::runOne() {
  std::shared_ptr<Job> job;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (pending_.empty()) return;  // its job was cancelled while queued
    const auto it = pending_.begin();
    job = it->second;
    pending_.erase(it);
    job->status = JobStatus::kRunning;
    ++running_;
  }
  const double queue_wait_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - job->enqueued)
          .count();
  metrics_.histogram("service.queue_wait_ms").observe(queue_wait_ms);
  JobResult result;
  {
    // The job's lifecycle span: nested under whatever span submitted it
    // (e.g. acrd's wire handler, which carries the client's trace id).
    const obs::ContextScope ctx(job->trace);
    obs::Span span("service.job");
    span.attr("id", static_cast<std::int64_t>(job->id));
    span.attr("queue_wait_ms", queue_wait_ms);
    const util::ScopedTimer timer(metrics_.histogram("service.job_ms"));
    try {
      result = job->work(job->cancelled);
    } catch (const std::exception& error) {
      result.exit_code = 1;
      result.output = std::string("error: ") + error.what() + '\n';
    }
    span.attr("status", job->cancelled.load(std::memory_order_relaxed)
                            ? "cancelled"
                            : "done");
  }
  std::vector<std::function<void()>> callbacks;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job->result = std::move(result);
    job->status = job->cancelled.load(std::memory_order_relaxed)
                      ? JobStatus::kCancelled
                      : JobStatus::kDone;
    --running_;
    if (job->status == JobStatus::kCancelled) {
      metrics_.counter("service.jobs_cancelled").add(1);
    } else {
      metrics_.counter("service.jobs_completed").add(1);
    }
    callbacks = std::move(job->on_finished);
    job->on_finished.clear();
  }
  finished_.notify_all();
  for (const auto& callback : callbacks) callback();
}

bool JobScheduler::onFinished(std::uint64_t id,
                              std::function<void()> callback) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    const std::shared_ptr<Job>& job = it->second;
    if (job->status == JobStatus::kQueued ||
        job->status == JobStatus::kRunning) {
      job->on_finished.push_back(std::move(callback));
      return true;
    }
  }
  callback();  // already finished: fire in the caller's thread, no lock held
  return true;
}

std::optional<JobStatus> JobScheduler::status(std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second->status;
}

std::optional<obs::TraceContext> JobScheduler::trace(std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second->trace;
}

std::optional<JobResult> JobScheduler::result(std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const Job& job = *it->second;
  if (job.status != JobStatus::kDone && job.status != JobStatus::kCancelled) {
    return std::nullopt;
  }
  return job.result;
}

bool JobScheduler::cancel(std::uint64_t id) {
  std::shared_ptr<Job> job;
  std::vector<std::function<void()>> callbacks;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    job = it->second;
    switch (job->status) {
      case JobStatus::kQueued: {
        // Remove from the priority index (linear: the index is bounded by
        // queue_limit).
        for (auto pending = pending_.begin(); pending != pending_.end();
             ++pending) {
          if (pending->second == job) {
            pending_.erase(pending);
            break;
          }
        }
        job->status = JobStatus::kCancelled;
        job->result = JobResult{1, "cancelled before start\n"};
        metrics_.counter("service.jobs_cancelled").add(1);
        callbacks = std::move(job->on_finished);
        job->on_finished.clear();
        break;
      }
      case JobStatus::kRunning:
        job->cancelled.store(true, std::memory_order_relaxed);
        break;
      case JobStatus::kDone:
      case JobStatus::kCancelled:
        return false;
    }
  }
  finished_.notify_all();
  for (const auto& callback : callbacks) callback();
  return true;
}

void JobScheduler::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
  finished_.wait(lock, [this] { return pending_.empty() && running_ == 0; });
}

int JobScheduler::queueDepth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(pending_.size());
}

std::map<int, int> JobScheduler::queueDepthByPriority() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<int, int> depths;
  for (const auto& [key, job] : pending_) {
    ++depths[static_cast<int>(-key.first)];
  }
  return depths;
}

int JobScheduler::runningCount() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

}  // namespace acr::service
