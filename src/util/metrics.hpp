// Lightweight metrics: named atomic counters and wall-clock histograms.
//
// Instrumentation for the localize–fix–validate pipeline. Counters are
// relaxed atomics (concurrent increments from campaign and acrd workers
// just sum); histograms take a short mutex per observe.
// Metrics are an observational side channel only — nothing in the repair
// path reads them back, so they cannot perturb the determinism contract.
//
// Every metric name the pipeline emits is listed in
// docs/architecture.md §"Metrics"; keep the two in sync.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace acr::util {

class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A level, not a rate: signed, settable, and allowed to go down again
/// (open connections, queue depths, overloaded-node counts). Counters
/// only ever grow; a gauge is the "how many right now" companion.
class Gauge {
 public:
  void set(std::int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(std::int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void sub(std::int64_t n = 1) {
    value_.fetch_sub(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Histogram over milliseconds with log2 buckets: the first bucket is
/// (-inf, 0.001ms], each next doubles, the last is open-ended (~9 minutes+).
class Histogram {
 public:
  static constexpr int kBuckets = 30;
  static constexpr double kFirstUpperMs = 0.001;

  void observe(double ms);

  struct Snapshot {
    std::uint64_t count = 0;
    double sum_ms = 0.0;
    double min_ms = 0.0;  // 0 when empty
    double max_ms = 0.0;
    /// Per-bucket counts; bucket b covers (upper(b-1), upper(b)] with
    /// upper(b) = kFirstUpperMs * 2^b, except the last which is open.
    std::array<std::uint64_t, kBuckets> buckets{};

    [[nodiscard]] double meanMs() const {
      return count == 0 ? 0.0 : sum_ms / static_cast<double>(count);
    }
  };
  [[nodiscard]] Snapshot snapshot() const;
  void reset();

 private:
  mutable std::mutex mutex_;
  Snapshot data_;
};

/// Named counters + histograms. Lookup lazily registers; returned references
/// stay valid for the registry's lifetime (entries are never removed —
/// reset() zeroes values but keeps registrations).
class MetricsRegistry {
 public:
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  [[nodiscard]] Histogram& histogram(const std::string& name);

  void reset();

  /// Human-readable dump: one counters table, one histograms table,
  /// sorted by name.
  [[nodiscard]] std::string renderTable() const;
  /// Machine-readable dump: {"counters": {...}, "histograms": {...}}.
  [[nodiscard]] std::string renderJson() const;

  /// The process-wide registry the pipeline reports into.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// RAII stage timer: observes the scope's wall-clock into a histogram.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram& histogram_;
  std::chrono::steady_clock::time_point started_;
};

}  // namespace acr::util
