// Adversarial wire-framing tests for the epoll event-loop TCP front end.
//
// The event loop replaced a thread-per-connection server whose framing was
// byte-exact; these tests pin that contract under hostile segmentation:
// byte-at-a-time trickle, many pipelined requests in one TCP segment,
// oversized request lines, and thousands of idle connections that must not
// cost threads.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/acr.hpp"
#include "core/ops.hpp"
#include "core/serialization.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "util/metrics.hpp"

namespace acr::service {
namespace {

struct TempDir {
  std::filesystem::path path;

  TempDir() {
    path = std::filesystem::temp_directory_path() /
           ("acr_event_loop_test_" + std::to_string(::getpid()) + "_" +
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

/// Raw TCP socket with explicit control over segmentation — the Client
/// class would hide exactly what these tests need to exercise.
struct RawConnection {
  int fd = -1;
  std::string buffer;

  explicit RawConnection(int port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&address),
                  sizeof address) != 0) {
      ::close(fd);
      fd = -1;
    }
  }
  ~RawConnection() {
    if (fd >= 0) ::close(fd);
  }

  void sendAll(const std::string& bytes) const {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t wrote =
          ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(wrote, 0);
      sent += static_cast<std::size_t>(wrote);
    }
  }

  /// Reads one '\n'-terminated line (without the newline). Empty on EOF.
  std::string readLine() {
    for (;;) {
      const std::size_t newline = buffer.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer.substr(0, newline);
        buffer.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t received = ::recv(fd, chunk, sizeof chunk, 0);
      if (received <= 0) return {};
      buffer.append(chunk, static_cast<std::size_t>(received));
    }
  }

  /// True when the peer closed (recv returns 0 with no buffered line).
  bool atEof() {
    char byte = 0;
    return ::recv(fd, &byte, 1, 0) == 0;
  }
};

struct LoopFixture {
  util::MetricsRegistry metrics;
  RepairService service;
  TcpServer server;
  std::thread serve_thread;

  explicit LoopFixture(TcpServerOptions options = {},
                       ServiceOptions service_options = {})
      : service([&] {
          service_options.metrics = &metrics;
          return service_options;
        }()),
        server(service, options),
        serve_thread([this] { server.serve(); }) {}

  ~LoopFixture() {
    server.stop();
    serve_thread.join();
    service.drain();
  }
};

int threadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoi(line.substr(8));
    }
  }
  return -1;
}

TEST(EventLoop, ByteAtATimeFramingMatchesHandleLine) {
  LoopFixture fixture;
  const std::string request = R"({"op":"stats"})";
  std::string expected;  // stats answers before handleLineAsync returns
  fixture.service.handleLineAsync(request, [&expected](std::string answer) {
    expected = std::move(answer);
  });

  RawConnection connection(fixture.server.port());
  ASSERT_GE(connection.fd, 0);
  for (const char byte : request + "\n") {
    connection.sendAll(std::string(1, byte));
  }
  const std::string line = connection.readLine();
  // Counters differ between the two calls (requests increments), so
  // compare shape: both parse, both ok, same keys.
  const std::optional<Json> got = Json::parse(line);
  const std::optional<Json> want = Json::parse(expected);
  ASSERT_TRUE(got.has_value()) << line;
  ASSERT_TRUE(want.has_value());
  EXPECT_TRUE(got->find("ok")->asBool());
  for (const auto& [key, value] : want->asObject()) {
    EXPECT_NE(got->find(key), nullptr) << "missing key " << key;
  }
}

TEST(EventLoop, TrickledSubmitIsByteIdenticalToEmbedded) {
  TempDir scratch;
  const Scenario scenario = figure2Scenario(true);
  saveScenario(scenario, scratch.dir("faulty"));
  const ops::VerifyOutcome offline = ops::verifyScenario(scenario);

  LoopFixture fixture;
  Json request;
  request.set("op", "submit");
  request.set("dir", scratch.dir("faulty"));
  request.set("command", "verify");
  request.set("wait", true);

  RawConnection connection(fixture.server.port());
  ASSERT_GE(connection.fd, 0);
  const std::string wire = request.str() + "\n";
  // Two-byte segments exercise every partial-line resume path.
  for (std::size_t i = 0; i < wire.size(); i += 2) {
    connection.sendAll(wire.substr(i, 2));
  }
  const std::optional<Json> response = Json::parse(connection.readLine());
  ASSERT_TRUE(response.has_value());
  ASSERT_TRUE(response->find("ok")->asBool()) << response->str();
  EXPECT_EQ(response->find("output")->asString(), offline.text);
  EXPECT_EQ(response->find("exit")->asInt(), offline.ok ? 0 : 1);

  // The same line handed to the dispatcher directly answers the same job
  // bytes (only the job id differs).
  // Shared: the worker that answers may still be in set_value() after
  // get() returns.
  auto embedded = std::make_shared<std::promise<std::string>>();
  std::future<std::string> answered = embedded->get_future();
  fixture.service.handleLineAsync(request.str(), [embedded](std::string answer) {
    embedded->set_value(std::move(answer));
  });
  const std::optional<Json> direct = Json::parse(answered.get());
  ASSERT_TRUE(direct.has_value());
  ASSERT_TRUE(direct->find("ok")->asBool()) << direct->str();
  EXPECT_EQ(direct->find("output")->asString(),
            response->find("output")->asString());
  EXPECT_EQ(direct->find("exit")->asInt(), response->find("exit")->asInt());
  EXPECT_EQ(direct->find("status")->asString(),
            response->find("status")->asString());
}

TEST(EventLoop, PipelinedRequestsInOneSegmentAnswerInOrder) {
  TempDir scratch;
  saveScenario(figure2Scenario(true), scratch.dir("faulty"));
  LoopFixture fixture;

  Json submit;
  submit.set("op", "submit");
  submit.set("dir", scratch.dir("faulty"));
  submit.set("command", "verify");
  submit.set("wait", true);
  // One TCP segment carrying: malformed JSON, a waiting submit, a stats
  // request, and a bad op. Responses must come back 1:1 and in order,
  // which also proves pipelined lines stay buffered while the submit's
  // completion is parked in the scheduler.
  const std::string segment = "{oops\n" + submit.str() + "\n" +
                              R"({"op":"stats"})" + "\n" +
                              R"({"op":"nope"})" + "\n";
  RawConnection connection(fixture.server.port());
  ASSERT_GE(connection.fd, 0);
  connection.sendAll(segment);

  const std::optional<Json> first = Json::parse(connection.readLine());
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first->find("ok")->asBool());
  EXPECT_EQ(first->find("error")->asString(), "malformed JSON");

  const std::optional<Json> second = Json::parse(connection.readLine());
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->find("ok")->asBool()) << second->str();
  EXPECT_NE(second->find("output"), nullptr);

  const std::optional<Json> third = Json::parse(connection.readLine());
  ASSERT_TRUE(third.has_value());
  EXPECT_TRUE(third->find("ok")->asBool());
  EXPECT_NE(third->find("queue_depth"), nullptr);

  const std::optional<Json> fourth = Json::parse(connection.readLine());
  ASSERT_TRUE(fourth.has_value());
  EXPECT_FALSE(fourth->find("ok")->asBool());
}

TEST(EventLoop, OversizedRequestLineIsRejectedAndDropped) {
  TcpServerOptions options;
  options.max_line_bytes = 256;
  LoopFixture fixture(options);

  RawConnection connection(fixture.server.port());
  ASSERT_GE(connection.fd, 0);
  connection.sendAll(std::string(300, 'x') + "\n");
  const std::optional<Json> response = Json::parse(connection.readLine());
  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->find("ok")->asBool());
  EXPECT_EQ(response->find("error")->asString(),
            "request line exceeds 256 bytes");
  EXPECT_TRUE(connection.atEof());  // protocol violation: connection dropped

  // A huge line *without* a newline must also be cut off — bounded
  // buffering, not wait-for-the-newline-then-judge.
  RawConnection hog(fixture.server.port());
  ASSERT_GE(hog.fd, 0);
  hog.sendAll(std::string(4096, 'y'));
  const std::optional<Json> cutoff = Json::parse(hog.readLine());
  ASSERT_TRUE(cutoff.has_value());
  EXPECT_FALSE(cutoff->find("ok")->asBool());
  EXPECT_TRUE(hog.atEof());

  EXPECT_GE(fixture.metrics.counter("service.connections.dropped").value(), 2);
}

TEST(EventLoop, ThousandsOfIdleConnectionsCostNoThreads) {
  // Scaled to stay fast under sanitizers; bench_service_throughput holds
  // the full 5k gate. The invariant is the same at any count: accepting N idle
  // connections creates zero threads.
  constexpr int kConnections = 512;
  LoopFixture fixture;

  const int threads_before = threadCount();
  std::vector<RawConnection> idle;
  idle.reserve(kConnections);
  for (int i = 0; i < kConnections; ++i) {
    idle.emplace_back(fixture.server.port());
    ASSERT_GE(idle.back().fd, 0) << "connect " << i << " failed";
  }
  // The open-connections gauge proves the server accepted them all.
  Client client("127.0.0.1", fixture.server.port());
  Json stats_request;
  stats_request.set("op", "stats");
  for (int poll = 0; poll < 100; ++poll) {
    const Json stats = client.call(stats_request);
    if (stats.find("connections")->find("open")->asInt() >= kConnections) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const Json stats = client.call(stats_request);
  EXPECT_GE(stats.find("connections")->find("open")->asInt(), kConnections);
  const int threads_after = threadCount();
  ASSERT_GT(threads_before, 0);
  EXPECT_EQ(threads_after, threads_before)
      << kConnections << " idle connections grew the thread count";

  // The loop still answers requests promptly with the idle herd attached.
  const Json ping = client.call(stats_request);
  EXPECT_TRUE(ping.find("ok")->asBool());
}

}  // namespace
}  // namespace acr::service
