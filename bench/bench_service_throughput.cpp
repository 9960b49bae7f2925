// Throughput/latency of the repair service under concurrent load, and the
// idle-connection capacity of its epoll event loop.
//
// Part 1 (throughput): drives an in-process RepairService through its TCP
// front end with 1, 4 and 16 blocking clients, with and without the
// snapshot cache, measuring requests/s and per-request p50/p99. Each
// request is a `submit` with "wait":true of the figure2-faulty verify (the
// cache's best case: a hit skips parse + simulate + verify entirely) — so
// the with/without-cache delta is exactly the snapshot cache's value.
//
// Part 2 (idle): opens thousands of TCP connections to one acrd and holds
// them idle. The event loop must absorb them without spawning threads
// (thread count stays flat) and keep answering requests promptly on a
// fresh connection. The thread-per-connection design this replaced would
// have needed one thread per connection.
//
//   bench_service_throughput [--requests N] [--idle N] [--json]
//
// --json appends a machine-readable dump after the tables (one object per
// configuration, then the idle result) for plotting / regression tracking.
// Every run self-gates: exit 1 if fewer than --idle (default 5000) idle
// connections are held, or if idling grows the thread count.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench/util.hpp"
#include "core/acr.hpp"
#include "core/serialization.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "util/metrics.hpp"

namespace {

using namespace acr;

/// One in-process acrd with its own metrics registry.
struct Worker {
  util::MetricsRegistry metrics;
  service::RepairService repair_service;
  service::TcpServer server;
  std::thread serve_thread;

  explicit Worker(service::ServiceOptions options)
      : repair_service([&] {
          options.metrics = &metrics;
          return options;
        }()),
        server(repair_service, {}),
        serve_thread([this] { server.serve(); }) {}
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  ~Worker() {
    server.stop();
    serve_thread.join();
    repair_service.drain();
  }
};

int threadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
  return -1;
}

double ms(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// ---------------------------------------------------------- throughput --

struct RunResult {
  int clients = 0;
  bool cache = false;
  int requests = 0;
  double elapsed_s = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double hit_rate = 0;

  [[nodiscard]] double throughput() const {
    return elapsed_s > 0 ? requests / elapsed_s : 0;
  }
};

double percentile(std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted_ms.size() - 1));
  return sorted_ms[rank];
}

RunResult runOnce(const std::string& scenario_dir, int clients, bool cache,
                  int requests) {
  service::ServiceOptions options;
  options.scheduler.queue_limit = 4 * requests;  // measure latency, not rejects
  options.cache_enabled = cache;
  Worker worker(options);

  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  std::atomic<int> remaining{requests};
  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        service::Client client("127.0.0.1", worker.server.port());
        service::Json request;
        request.set("op", "submit");
        request.set("dir", scenario_dir);
        request.set("command", "verify");
        request.set("wait", true);
        while (remaining.fetch_sub(1) > 0) {
          const auto before = std::chrono::steady_clock::now();
          const service::Json response = client.call(request);
          const auto after = std::chrono::steady_clock::now();
          const service::Json* ok = response.find("ok");
          if (ok == nullptr || !ok->asBool()) {
            std::fprintf(stderr, "request failed: %s\n",
                         response.str().c_str());
            std::exit(1);
          }
          latencies[static_cast<std::size_t>(c)].push_back(
              ms(after - before));
        }
      });
    }
    for (auto& worker : workers) worker.join();
  }
  const auto end = std::chrono::steady_clock::now();

  RunResult result;
  result.clients = clients;
  result.cache = cache;
  result.elapsed_s = std::chrono::duration<double>(end - start).count();
  std::vector<double> all;
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  result.requests = static_cast<int>(all.size());
  std::sort(all.begin(), all.end());
  result.p50_ms = percentile(all, 0.50);
  result.p99_ms = percentile(all, 0.99);
  result.hit_rate = worker.repair_service.cache().stats().hitRate();
  return result;
}

// ---------------------------------------------------------------- idle --

struct IdleResult {
  int target = 0;
  int opened = 0;
  std::int64_t gauge = 0;
  int threads_before = 0;
  int threads_after = 0;
  double stats_ms = 0;  // responsiveness probe while fully loaded
};

IdleResult runIdle(int target) {
  IdleResult result;
  result.target = target;
  service::ServiceOptions options;
  Worker worker(options);
  result.threads_before = threadCount();

  std::vector<int> fds;
  fds.reserve(static_cast<std::size_t>(target));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(worker.server.port()));
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  for (int i = 0; i < target; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) break;
    int attempts = 0;
    while (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                     sizeof(address)) != 0 &&
           ++attempts < 50) {
      // Transient refusals while the accept loop drains its backlog.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (attempts >= 50) {
      ::close(fd);
      break;
    }
    fds.push_back(fd);
  }
  result.opened = static_cast<int>(fds.size());

  // Let the event loop finish accepting, then read its own census.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    result.gauge = worker.metrics.gauge("service.connections.open").value();
    if (result.gauge >= result.opened) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  result.threads_after = threadCount();

  // The loaded server must still answer a fresh connection promptly.
  try {
    service::Client client("127.0.0.1", worker.server.port());
    service::Json request;
    request.set("op", "stats");
    const auto before = std::chrono::steady_clock::now();
    const service::Json response = client.call(request);
    result.stats_ms = ms(std::chrono::steady_clock::now() - before);
    if (const service::Json* ok = response.find("ok");
        ok == nullptr || !ok->asBool()) {
      std::fprintf(stderr, "stats under load failed: %s\n",
                   response.str().c_str());
      std::exit(1);
    }
  } catch (const std::exception& error) {
    // Typically the process ran out of descriptors holding the idle set.
    std::fprintf(stderr, "stats under load failed: %s\n", error.what());
    std::exit(1);
  }

  for (const int fd : fds) ::close(fd);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  int requests = 200;
  int idle_target = 5000;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--idle") == 0 && i + 1 < argc) {
      idle_target = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_service_throughput [--requests N] [--idle N] "
                   "[--json]\n");
      return 2;
    }
  }

  const std::filesystem::path scratch =
      std::filesystem::temp_directory_path() /
      ("acr_bench_service_" + std::to_string(::getpid()));
  std::filesystem::create_directories(scratch);
  saveScenario(figure2Scenario(true), scratch.string());

  bench::section("service throughput: remote verify of figure2-faulty, " +
                 std::to_string(requests) + " requests per configuration");
  bench::Table table({"clients", "cache", "req/s", "p50 ms", "p99 ms",
                      "cache hit rate"});
  table.printHeader();
  std::vector<RunResult> results;
  for (const bool cache : {false, true}) {
    for (const int clients : {1, 4, 16}) {
      const RunResult result =
          runOnce(scratch.string(), clients, cache, requests);
      results.push_back(result);
      table.printRow({std::to_string(result.clients),
                      result.cache ? "on" : "off",
                      bench::fmt(result.throughput(), 0),
                      bench::fmt(result.p50_ms, 3),
                      bench::fmt(result.p99_ms, 3),
                      result.cache ? bench::pct(result.hit_rate) : "-"});
    }
  }
  table.printRule();

  bench::section("idle connections: epoll event loop holding " +
                 std::to_string(idle_target) + " idle clients");
  const IdleResult idle = runIdle(idle_target);
  bench::Table idle_table({"target", "held", "gauge", "threads before",
                           "threads after", "stats p. load ms"});
  idle_table.printHeader();
  idle_table.printRow({std::to_string(idle.target),
                       std::to_string(idle.opened), std::to_string(idle.gauge),
                       std::to_string(idle.threads_before),
                       std::to_string(idle.threads_after),
                       bench::fmt(idle.stats_ms, 3)});
  idle_table.printRule();

  if (json) {
    std::puts("");
    std::puts("[");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const RunResult& r = results[i];
      std::printf("  {\"clients\": %d, \"cache\": %s, \"requests\": %d, "
                  "\"throughput_rps\": %.1f, \"p50_ms\": %.3f, "
                  "\"p99_ms\": %.3f, \"cache_hit_rate\": %.3f}%s\n",
                  r.clients, r.cache ? "true" : "false", r.requests,
                  r.throughput(), r.p50_ms, r.p99_ms, r.hit_rate,
                  i + 1 < results.size() ? "," : "");
    }
    std::puts("]");
    std::printf("{\"idle\": {\"target\": %d, \"held\": %d, \"gauge\": %lld, "
                "\"threads_before\": %d, \"threads_after\": %d, "
                "\"stats_under_load_ms\": %.3f}}\n",
                idle.target, idle.opened,
                static_cast<long long>(idle.gauge), idle.threads_before,
                idle.threads_after, idle.stats_ms);
  }

  std::filesystem::remove_all(scratch);

  bool failed = false;
  if (idle.opened < idle_target || idle.gauge < idle.opened) {
    std::fprintf(stderr, "GATE: held %d/%d idle connections (gauge %lld)\n",
                 idle.opened, idle_target, static_cast<long long>(idle.gauge));
    failed = true;
  }
  if (idle.threads_after > idle.threads_before) {
    std::fprintf(stderr, "GATE: idle connections grew threads %d -> %d\n",
                 idle.threads_before, idle.threads_after);
    failed = true;
  }
  return failed ? 1 : 0;
}
