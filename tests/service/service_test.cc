#include "service/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/acr.hpp"
#include "core/ops.hpp"
#include "core/serialization.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "util/metrics.hpp"

namespace acr::service {
namespace {

/// Unique scratch directory per test, removed on destruction.
struct TempDir {
  std::filesystem::path path;

  TempDir() {
    path = std::filesystem::temp_directory_path() /
           ("acr_service_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }

  static int& counter() {
    static int value = 0;
    return value;
  }

  [[nodiscard]] std::string dir(const std::string& name) const {
    return (path / name).string();
  }
};

// ---------------------------------------------------------------------------
// Wire JSON
// ---------------------------------------------------------------------------

TEST(Json, RoundTripsDocuments) {
  const std::vector<std::string> documents = {
      "null",
      "true",
      "false",
      "42",
      "-7",
      "{}",
      "[]",
      R"({"a":1,"b":[true,null,"x"]})",
      R"({"nested":{"deep":{"list":[1,2,3]}}})",
  };
  for (const std::string& document : documents) {
    const std::optional<Json> parsed = Json::parse(document);
    ASSERT_TRUE(parsed.has_value()) << document;
    EXPECT_EQ(parsed->str(), document);
  }
}

TEST(Json, Keeps64BitIntegersExact) {
  const std::string big = "18446744073709551615";  // > 2^53: doubles lose it
  const std::optional<Json> parsed = Json::parse(big);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->asUint(), 18446744073709551615ull);
  EXPECT_EQ(parsed->str(), big);
  EXPECT_EQ(Json(std::uint64_t{18446744073709551615ull}).str(), big);
}

TEST(Json, EscapesAndUnescapesStrings) {
  Json object;
  object.set("text", "line\nbreak \"quoted\" tab\t");
  const std::string rendered = object.str();
  const std::optional<Json> parsed = Json::parse(rendered);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("text")->asString(), "line\nbreak \"quoted\" tab\t");

  const std::optional<Json> unicode = Json::parse(R"("snow ☃ pair 😀")");
  ASSERT_TRUE(unicode.has_value());
  EXPECT_EQ(unicode->asString(), "snow \xE2\x98\x83 pair \xF0\x9F\x98\x80");
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,", "{\"a\":}", "tru", "1 2",
                          "{\"a\":1}x", "\"unterminated", "nan"}) {
    EXPECT_FALSE(Json::parse(bad).has_value()) << bad;
  }
}

// ---------------------------------------------------------------------------
// RepairService (embedded, no TCP)
// ---------------------------------------------------------------------------

ServiceOptions testOptions(util::MetricsRegistry& metrics, int workers = 1,
                           int queue_limit = 128) {
  ServiceOptions options;
  options.scheduler.workers = workers;
  options.scheduler.queue_limit = queue_limit;
  options.metrics = &metrics;
  return options;
}

Json submitRequest(const std::string& dir, const std::string& command,
                   bool wait) {
  Json request;
  request.set("op", "submit");
  request.set("dir", dir);
  request.set("command", command);
  request.set("seed", 7);
  if (wait) request.set("wait", true);
  return request;
}

TEST(RepairService, RejectsBadRequests) {
  util::MetricsRegistry metrics;
  RepairService service(testOptions(metrics));
  EXPECT_NE(service.handle(Json::parse("[1]").value()).find("error"), nullptr);
  EXPECT_NE(service.handle(Json::parse("{}").value()).find("error"), nullptr);
  EXPECT_NE(service.handle(Json::parse(R"({"op":"nope"})").value()).find("error"),
            nullptr);
  EXPECT_NE(service.handle(Json::parse(R"({"op":"submit"})").value())
                .find("error"),
            nullptr);
  EXPECT_NE(service.handle(Json::parse(R"({"op":"status"})").value())
                .find("error"),
            nullptr);
  EXPECT_NE(
      service
          .handle(Json::parse(R"({"op":"submit","dir":"x","command":"nuke"})")
                      .value())
          .find("error"),
      nullptr);
  EXPECT_NE(
      service
          .handle(Json::parse(R"({"op":"submit","dir":"x","metric":"nope"})")
                      .value())
          .find("error"),
      nullptr);
  // Malformed line (not JSON) still produces a well-formed error response.
  std::string line;
  service.handleLineAsync("{oops", [&line](std::string answer) {
    line = std::move(answer);
  });
  const std::optional<Json> response = Json::parse(line);
  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->find("ok")->asBool());

  // `submit_batch` is not an op.
  const Json batch = service.handle(
      Json::parse(R"({"op":"submit_batch","items":[{"dir":"x"}]})").value());
  EXPECT_EQ(batch.str(), R"({"error":"unknown op \"submit_batch\"","ok":false})");

  // A cancel that carries "if_queued" is refused and touches no job: the
  // queued one stays queued, the running one keeps running, its flag down.
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> running{false};
  std::atomic<bool> flagged{false};
  const JobScheduler::Submitted running_job = service.scheduler().submit(
      0, [&](const std::atomic<bool>& cancelled) {
        running.store(true);
        released.wait();
        flagged.store(cancelled.load());
        return JobResult{};
      });
  ASSERT_TRUE(running_job.accepted);
  while (!running.load()) std::this_thread::yield();
  const JobScheduler::Submitted queued_job = service.scheduler().submit(
      0, [](const std::atomic<bool>&) { return JobResult{}; });
  ASSERT_TRUE(queued_job.accepted);
  for (const std::uint64_t id : {queued_job.id, running_job.id}) {
    Json cancel;
    cancel.set("op", "cancel");
    cancel.set("id", id);
    cancel.set("if_queued", true);
    const Json refused = service.handle(cancel);
    EXPECT_FALSE(refused.find("ok")->asBool()) << refused.str();
    EXPECT_NE(refused.find("error"), nullptr);
  }
  EXPECT_EQ(service.scheduler().status(queued_job.id), JobStatus::kQueued);
  EXPECT_EQ(service.scheduler().status(running_job.id), JobStatus::kRunning);
  release.set_value();
  service.drain();
  EXPECT_FALSE(flagged.load());
  EXPECT_EQ(service.scheduler().status(queued_job.id), JobStatus::kDone);
  EXPECT_EQ(service.scheduler().status(running_job.id), JobStatus::kDone);
}

TEST(RepairService, VerifyJobMatchesOfflineBytes) {
  TempDir scratch;
  const Scenario scenario = figure2Scenario(true);
  saveScenario(scenario, scratch.dir("faulty"));
  const ops::VerifyOutcome offline = ops::verifyScenario(scenario);

  util::MetricsRegistry metrics;
  RepairService service(testOptions(metrics));
  const Json response =
      service.handle(submitRequest(scratch.dir("faulty"), "verify", true));
  ASSERT_TRUE(response.find("ok")->asBool()) << response.str();
  EXPECT_EQ(response.find("exit")->asInt(), offline.ok ? 0 : 1);
  EXPECT_EQ(response.find("output")->asString(), offline.text);
}

// `jobs` is not a submit field: like any unknown key it is ignored, so the
// job's bytes are those of the same submit without it.
TEST(RepairService, SubmitIgnoresJobsField) {
  TempDir scratch;
  saveScenario(figure2Scenario(true), scratch.dir("faulty"));
  util::MetricsRegistry metrics;
  RepairService service(testOptions(metrics));
  const Json plain =
      service.handle(submitRequest(scratch.dir("faulty"), "repair", true));
  Json with_jobs = submitRequest(scratch.dir("faulty"), "repair", true);
  with_jobs.set("jobs", 4);
  const Json jobs = service.handle(with_jobs);
  ASSERT_TRUE(plain.find("ok")->asBool()) << plain.str();
  ASSERT_TRUE(jobs.find("ok")->asBool()) << jobs.str();
  EXPECT_EQ(jobs.find("exit")->asInt(), plain.find("exit")->asInt());
  EXPECT_EQ(jobs.find("output")->asString(), plain.find("output")->asString());
}

TEST(RepairService, StatusResultCancelLifecycle) {
  TempDir scratch;
  saveScenario(figure2Scenario(true), scratch.dir("faulty"));
  util::MetricsRegistry metrics;
  RepairService service(testOptions(metrics));

  const Json submitted =
      service.handle(submitRequest(scratch.dir("faulty"), "repair", false));
  ASSERT_TRUE(submitted.find("ok")->asBool()) << submitted.str();
  const std::uint64_t id = submitted.find("id")->asUint();

  Json result_request;
  result_request.set("op", "result");
  result_request.set("id", id);
  result_request.set("wait", true);
  const Json result = service.handle(result_request);
  ASSERT_TRUE(result.find("ok")->asBool()) << result.str();
  EXPECT_EQ(result.find("status")->asString(), "done");
  EXPECT_EQ(result.find("exit")->asInt(), 0);

  // Cancelling a finished job is an error, as is any unknown id.
  Json cancel_request;
  cancel_request.set("op", "cancel");
  cancel_request.set("id", id);
  EXPECT_NE(service.handle(cancel_request).find("error"), nullptr);
  cancel_request.set("id", std::uint64_t{9999});
  EXPECT_NE(service.handle(cancel_request).find("error"), nullptr);
}

TEST(RepairService, BackpressureSurfacesRetryAfter) {
  TempDir scratch;
  saveScenario(figure2Scenario(true), scratch.dir("faulty"));
  util::MetricsRegistry metrics;
  ServiceOptions options = testOptions(metrics, /*workers=*/1,
                                       /*queue_limit=*/1);
  options.scheduler.retry_after_ms = 33;
  RepairService service(options);

  // Fill the single worker and the one queue slot, then overflow.
  const Json first =
      service.handle(submitRequest(scratch.dir("faulty"), "repair", false));
  ASSERT_TRUE(first.find("ok")->asBool());
  Json overflow;
  for (int attempt = 0; attempt < 64; ++attempt) {
    overflow =
        service.handle(submitRequest(scratch.dir("faulty"), "repair", false));
    if (overflow.find("error") != nullptr) break;
  }
  ASSERT_NE(overflow.find("error"), nullptr) << "queue never filled";
  EXPECT_EQ(overflow.find("error")->asString(), "queue full");
  EXPECT_EQ(overflow.find("retry_after_ms")->asInt(), 33);
  service.drain();
}

TEST(RepairService, StatsReportCacheHitsOnRepeatedSubmissions) {
  TempDir scratch;
  saveScenario(figure2Scenario(true), scratch.dir("faulty"));
  util::MetricsRegistry metrics;
  RepairService service(testOptions(metrics));
  for (int i = 0; i < 4; ++i) {
    const Json response =
        service.handle(submitRequest(scratch.dir("faulty"), "verify", true));
    ASSERT_TRUE(response.find("ok")->asBool()) << response.str();
  }
  const Json stats = service.handle(Json::parse(R"({"op":"stats"})").value());
  ASSERT_TRUE(stats.find("ok")->asBool());
  const Json* cache = stats.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_TRUE(cache->find("enabled")->asBool());
  EXPECT_GE(cache->find("hits")->asUint(), 3u);
  EXPECT_GT(cache->find("hit_rate")->asNumber(), 0.0);
  EXPECT_NE(stats.find("metrics"), nullptr);
}

// ---------------------------------------------------------------------------
// TCP stress: concurrent remote repairs are byte-identical to offline runs
// ---------------------------------------------------------------------------

TEST(TcpService, ConcurrentRepairsAreByteIdenticalToOffline) {
  constexpr int kJobs = 64;
  TempDir scratch;
  const Scenario scenario = figure2Scenario(true);
  saveScenario(scenario, scratch.dir("faulty"));

  // The offline truth, computed once: every remote job must return exactly
  // these bytes and this exit code.
  repair::RepairOptions repair_options;
  repair_options.seed = 7;
  const ops::RepairOutcome offline =
      ops::repairScenario(loadScenario(scratch.dir("faulty")), repair_options);
  ASSERT_TRUE(offline.result.success);

  util::MetricsRegistry metrics;
  ServiceOptions options = testOptions(metrics, /*workers=*/0,
                                       /*queue_limit=*/2 * kJobs);
  RepairService service(options);
  TcpServer server(service, {});
  std::thread serve_thread([&] { server.serve(); });

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> clients;
    clients.reserve(kJobs);
    for (int i = 0; i < kJobs; ++i) {
      clients.emplace_back([&] {
        try {
          Client client("127.0.0.1", server.port());
          const Json response = client.call(
              submitRequest(scratch.dir("faulty"), "repair", true));
          const Json* ok = response.find("ok");
          if (ok == nullptr || !ok->asBool() ||
              response.find("exit")->asInt() != 0) {
            failures.fetch_add(1);
            return;
          }
          if (response.find("output")->asString() != offline.text) {
            mismatches.fetch_add(1);
          }
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  // All 64 submissions hashed the same content: at most a few racing cold
  // misses, everything else a hit.
  Client client("127.0.0.1", server.port());
  const Json stats = client.call(Json::parse(R"({"op":"stats"})").value());
  ASSERT_TRUE(stats.find("ok")->asBool());
  EXPECT_GE(stats.find("cache")->find("hits")->asUint(), 1u);
  EXPECT_GT(stats.find("cache")->find("hit_rate")->asNumber(), 0.0);

  // `shutdown` makes serve() return, then the scheduler drains clean.
  const Json shutdown = client.call(Json::parse(R"({"op":"shutdown"})").value());
  EXPECT_TRUE(shutdown.find("ok")->asBool());
  serve_thread.join();
  service.drain();
  EXPECT_EQ(service.scheduler().queueDepth(), 0);
  EXPECT_EQ(service.scheduler().runningCount(), 0);
}

TEST(TcpService, ExternalStopFlagEndsServe) {
  util::MetricsRegistry metrics;
  RepairService service(testOptions(metrics));
  std::atomic<bool> stop{false};
  TcpServerOptions options;
  options.stop = &stop;
  TcpServer server(service, options);
  std::thread serve_thread([&] { server.serve(); });
  stop.store(true);
  serve_thread.join();  // returns within one poll interval
}

}  // namespace
}  // namespace acr::service
