#include "service/scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/metrics.hpp"

namespace acr::service {
namespace {

/// A job that blocks until released — pins a worker so later submissions
/// stay queued, making ordering and backpressure observable.
struct Blocker {
  std::promise<void> release;
  std::shared_future<void> released{release.get_future().share()};
  std::atomic<bool> running{false};

  JobScheduler::Work work() {
    return [this](const std::atomic<bool>&) {
      running.store(true);
      released.wait();
      return JobResult{0, "blocker\n"};
    };
  }

  void waitUntilRunning() {
    while (!running.load()) std::this_thread::yield();
  }
};

SchedulerOptions singleWorker(util::MetricsRegistry& metrics,
                              int queue_limit = 64) {
  SchedulerOptions options;
  options.workers = 1;
  options.queue_limit = queue_limit;
  options.retry_after_ms = 25;
  options.metrics = &metrics;
  return options;
}

TEST(JobScheduler, RunsJobsAndReportsResults) {
  util::MetricsRegistry metrics;
  JobScheduler scheduler(singleWorker(metrics));
  const auto submitted = scheduler.submit(0, [](const std::atomic<bool>&) {
    return JobResult{3, "hello\n"};
  });
  ASSERT_TRUE(submitted.accepted);
  scheduler.drain();
  const auto result = scheduler.result(submitted.id);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->exit_code, 3);
  EXPECT_EQ(result->output, "hello\n");
  EXPECT_EQ(scheduler.status(submitted.id), JobStatus::kDone);
  EXPECT_EQ(metrics.counter("service.jobs_completed").value(), 1);
}

TEST(JobScheduler, UnknownIdsAreDistinguishable) {
  util::MetricsRegistry metrics;
  JobScheduler scheduler(singleWorker(metrics));
  EXPECT_FALSE(scheduler.status(999).has_value());
  EXPECT_FALSE(scheduler.result(999).has_value());
  EXPECT_FALSE(scheduler.cancel(999));
}

TEST(JobScheduler, HigherPriorityRunsFirstFifoWithinPriority) {
  util::MetricsRegistry metrics;
  JobScheduler scheduler(singleWorker(metrics));
  Blocker blocker;
  const auto pin = scheduler.submit(0, blocker.work());
  ASSERT_TRUE(pin.accepted);
  blocker.waitUntilRunning();

  std::mutex order_mutex;
  std::vector<int> order;
  const auto record = [&](int tag) {
    return [&, tag](const std::atomic<bool>&) {
      const std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(tag);
      return JobResult{};
    };
  };
  // Submitted while the only worker is pinned: all queued together, so the
  // run order below is purely the scheduler's priority index.
  const auto low_a = scheduler.submit(0, record(1));
  const auto high = scheduler.submit(5, record(2));
  const auto low_b = scheduler.submit(0, record(3));
  ASSERT_TRUE(low_a.accepted && high.accepted && low_b.accepted);
  EXPECT_EQ(scheduler.queueDepth(), 3);

  blocker.release.set_value();
  scheduler.drain();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
}

TEST(JobScheduler, FullQueueRejectsWithRetryAfter) {
  util::MetricsRegistry metrics;
  JobScheduler scheduler(singleWorker(metrics, /*queue_limit=*/2));
  Blocker blocker;
  ASSERT_TRUE(scheduler.submit(0, blocker.work()).accepted);
  blocker.waitUntilRunning();  // running, so it no longer occupies the queue

  const auto noop = [](const std::atomic<bool>&) { return JobResult{}; };
  ASSERT_TRUE(scheduler.submit(0, noop).accepted);
  ASSERT_TRUE(scheduler.submit(0, noop).accepted);
  const auto rejected = scheduler.submit(0, noop);
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(rejected.reject_reason, "queue full");
  EXPECT_EQ(rejected.retry_after_ms, 25);
  EXPECT_EQ(metrics.counter("service.jobs_rejected").value(), 1);

  blocker.release.set_value();
  scheduler.drain();
  // The two accepted jobs still ran to completion.
  EXPECT_EQ(metrics.counter("service.jobs_completed").value(), 3);
}

TEST(JobScheduler, CancelQueuedJobNeverRuns) {
  util::MetricsRegistry metrics;
  JobScheduler scheduler(singleWorker(metrics));
  Blocker blocker;
  ASSERT_TRUE(scheduler.submit(0, blocker.work()).accepted);
  blocker.waitUntilRunning();

  std::atomic<bool> ran{false};
  const auto queued = scheduler.submit(0, [&](const std::atomic<bool>&) {
    ran.store(true);
    return JobResult{};
  });
  ASSERT_TRUE(queued.accepted);
  EXPECT_TRUE(scheduler.cancel(queued.id));
  EXPECT_EQ(scheduler.status(queued.id), JobStatus::kCancelled);
  const auto result = scheduler.result(queued.id);  // finished on cancel
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->exit_code, 1);
  EXPECT_EQ(result->output, "cancelled before start\n");

  blocker.release.set_value();
  scheduler.drain();
  EXPECT_FALSE(ran.load());
  // Cancelling twice (or after completion) reports failure.
  EXPECT_FALSE(scheduler.cancel(queued.id));
}

TEST(JobScheduler, CancelRunningJobRaisesItsFlag) {
  util::MetricsRegistry metrics;
  JobScheduler scheduler(singleWorker(metrics));
  std::atomic<bool> running{false};
  const auto submitted =
      scheduler.submit(0, [&](const std::atomic<bool>& cancelled) {
        running.store(true);
        while (!cancelled.load()) std::this_thread::yield();
        return JobResult{1, "stopped cooperatively\n"};
      });
  ASSERT_TRUE(submitted.accepted);
  while (!running.load()) std::this_thread::yield();
  EXPECT_EQ(scheduler.status(submitted.id), JobStatus::kRunning);
  EXPECT_TRUE(scheduler.cancel(submitted.id));

  scheduler.drain();
  const auto result = scheduler.result(submitted.id);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->output, "stopped cooperatively\n");
  EXPECT_EQ(scheduler.status(submitted.id), JobStatus::kCancelled);
  EXPECT_EQ(metrics.counter("service.jobs_cancelled").value(), 1);
}

TEST(JobScheduler, DrainFinishesAcceptedWorkThenRejects) {
  util::MetricsRegistry metrics;
  SchedulerOptions options = singleWorker(metrics);
  options.workers = 2;
  JobScheduler scheduler(options);
  std::atomic<int> finished{0};
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(scheduler.submit(i % 3, [&](const std::atomic<bool>&) {
                  finished.fetch_add(1);
                  return JobResult{};
                }).accepted);
  }
  scheduler.drain();
  EXPECT_EQ(finished.load(), 8);
  EXPECT_EQ(scheduler.queueDepth(), 0);
  EXPECT_EQ(scheduler.runningCount(), 0);

  const auto late = scheduler.submit(0, [](const std::atomic<bool>&) {
    return JobResult{};
  });
  EXPECT_FALSE(late.accepted);
  EXPECT_EQ(late.reject_reason, "draining");
  EXPECT_GT(late.retry_after_ms, 0);
}

TEST(JobScheduler, ThrowingJobBecomesErrorResult) {
  util::MetricsRegistry metrics;
  JobScheduler scheduler(singleWorker(metrics));
  const auto submitted =
      scheduler.submit(0, [](const std::atomic<bool>&) -> JobResult {
        throw std::runtime_error("boom");
      });
  ASSERT_TRUE(submitted.accepted);
  scheduler.drain();
  const auto result = scheduler.result(submitted.id);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->exit_code, 1);
  EXPECT_EQ(result->output, "error: boom\n");
}

TEST(JobScheduler, QueueDepthByPriorityCountsQueuedJobsPerLevel) {
  util::MetricsRegistry metrics;
  JobScheduler scheduler(singleWorker(metrics));
  Blocker blocker;
  const auto pin = scheduler.submit(0, blocker.work());
  ASSERT_TRUE(pin.accepted);
  blocker.waitUntilRunning();

  const auto idle = [](const std::atomic<bool>&) { return JobResult{}; };
  ASSERT_TRUE(scheduler.submit(5, idle).accepted);
  ASSERT_TRUE(scheduler.submit(5, idle).accepted);
  ASSERT_TRUE(scheduler.submit(-1, idle).accepted);
  ASSERT_TRUE(scheduler.submit(0, idle).accepted);

  const auto depths = scheduler.queueDepthByPriority();
  ASSERT_EQ(depths.size(), 3u);  // running job is not queued
  EXPECT_EQ(depths.at(5), 2);
  EXPECT_EQ(depths.at(0), 1);
  EXPECT_EQ(depths.at(-1), 1);
  EXPECT_EQ(scheduler.queueDepth(), 4);

  blocker.release.set_value();
  scheduler.drain();
  EXPECT_TRUE(scheduler.queueDepthByPriority().empty());
}

}  // namespace
}  // namespace acr::service
