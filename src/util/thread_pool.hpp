// Fixed-size thread pool with a shared FIFO queue.
//
// The campaign runner follows one discipline: the *scheduling* is free-form
// (workers pull tasks in any order) but every task writes only to its own
// pre-allocated slot, so the assembled result is independent of
// interleaving. Exceptions thrown inside
// a task are captured in the task's future and rethrown at the join point
// (`parallelFor` rethrows the first one by index order, again for
// determinism).
//
// Destruction drains: the destructor lets queued tasks finish before
// joining — a pool going out of scope never drops submitted work.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/trace.hpp"

namespace acr::util {

class ThreadPool {
 public:
  /// `threads` < 1 is clamped to 1.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `fn` and returns its future. The future carries the return
  /// value or the exception the task threw. The submitter's trace context is
  /// captured here and reinstalled around the task, so spans opened inside
  /// pool tasks nest under the span that was open at the submit call.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        [ctx = obs::currentContext(),
         fn = std::forward<F>(fn)]() mutable -> R {
          const obs::ContextScope scope(ctx);
          return fn();
        });
    std::future<R> future = task->get_future();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    wake_.notify_one();
    return future;
  }

  /// `hardware_concurrency`, floored at 1 (the call may report 0).
  [[nodiscard]] static int hardwareJobs();

 private:
  void workerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
};

/// Resolves a user-facing jobs knob: 0 (or negative) = hardware concurrency.
[[nodiscard]] int resolveJobs(int jobs);

/// Runs fn(0) .. fn(n-1) on `jobs` workers and waits for all of them.
/// jobs <= 1 (after resolveJobs the caller decides) runs inline on the
/// calling thread. If any task throws, the exception of the lowest index is
/// rethrown after every task has finished.
void parallelFor(int jobs, int n, const std::function<void(int)>& fn);

/// Same, reusing an existing pool (each call still waits for its own tasks).
void parallelFor(ThreadPool& pool, int n, const std::function<void(int)>& fn);

}  // namespace acr::util
