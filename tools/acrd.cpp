// acrd — the ACR repair daemon.
//
//   acrd [--host H] [--port P] [--workers N] [--queue-limit N]
//        [--cache-bytes N] [--no-cache] [--max-line-bytes N]
//        [--port-file PATH] [--trace] [--trace-file PATH]
//
// Serves the newline-delimited JSON wire protocol of docs/service.md on a
// local TCP socket: submit / status / result / cancel / stats / shutdown.
// Drive it with `acrctl remote ...` or any line-oriented client.
//
// --port 0 (the default) binds an ephemeral port; the chosen port is
// printed on stdout and, with --port-file, written to PATH so scripts can
// pick it up without parsing logs.
//
// Shutdown is always graceful: on SIGINT/SIGTERM or a `shutdown` request,
// the daemon stops accepting, finishes every queued and running job, and
// only then exits — an accepted job is never dropped.
#include <atomic>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "cli.hpp"
#include "obs/trace.hpp"
#include "service/server.hpp"

namespace acr::cli {

void usage(const char* why) {
  if (why != nullptr) std::fprintf(stderr, "error: %s\n\n", why);
  std::fputs(
      "usage:\n"
      "  acrd [--host H] [--port P] [--workers N] [--queue-limit N]\n"
      "       [--cache-bytes N] [--no-cache] [--max-line-bytes N]\n"
      "       [--port-file PATH] [--trace] [--trace-file PATH]\n"
      "\n"
      "--port 0 (default) picks an ephemeral port (printed, and written\n"
      "to --port-file when given). --workers 0 = one per hardware thread.\n"
      "--cache-bytes bounds the snapshot cache (serialized scenario\n"
      "bytes); --no-cache disables it. --max-line-bytes bounds one wire\n"
      "request line (longer lines are answered with an error and the\n"
      "connection dropped). --trace records spans for every\n"
      "request and job; --trace-file writes them as Chrome/Perfetto JSON\n"
      "at exit (implies --trace). SIGINT/SIGTERM or the `shutdown`\n"
      "verb drain gracefully: accepted jobs always finish.\n",
      stderr);
  std::exit(2);
}

}  // namespace acr::cli

namespace {

using acr::cli::parseNumber;
using acr::cli::usage;

std::atomic<bool> g_stop{false};

void onSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

/// A numeric flag's value; a malformed one is a usage error naming the flag.
template <typename T>
T flagNumber(const std::string& flag, const std::string& text) {
  return parseNumber<T>(text, "flag '" + flag + "'");
}

}  // namespace

int main(int argc, char** argv) {
  acr::service::ServiceOptions options;
  acr::service::TcpServerOptions tcp;
  std::string port_file;
  std::string trace_file;
  bool trace = false;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--host") {
      tcp.host = value();
    } else if (flag == "--port") {
      tcp.port = flagNumber<std::uint16_t>(flag, value());
    } else if (flag == "--workers") {
      options.scheduler.workers = flagNumber<int>(flag, value());
    } else if (flag == "--queue-limit") {
      options.scheduler.queue_limit = flagNumber<int>(flag, value());
    } else if (flag == "--cache-bytes") {
      options.cache.byte_budget = flagNumber<std::uint64_t>(flag, value());
    } else if (flag == "--no-cache") {
      options.cache_enabled = false;
    } else if (flag == "--max-line-bytes") {
      tcp.max_line_bytes = flagNumber<std::size_t>(flag, value());
    } else if (flag == "--port-file") {
      port_file = value();
    } else if (flag == "--trace") {
      trace = true;
    } else if (flag == "--trace-file") {
      trace_file = value();
      trace = true;
    } else if (flag == "--help" || flag == "-h") {
      usage();
    } else {
      usage(("unknown flag '" + flag + "'").c_str());
    }
  }

  if (trace) acr::obs::Tracer::global().setEnabled(true);

  tcp.stop = &g_stop;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  std::signal(SIGPIPE, SIG_IGN);

  try {
    acr::service::RepairService service(options);
    acr::service::TcpServer server(service, tcp);
    if (!port_file.empty()) {
      std::ofstream out(port_file);
      out << server.port() << '\n';
    }
    std::printf("acrd: listening on %s:%d (%d worker(s), queue limit %d, "
                "cache %s)\n",
                tcp.host.c_str(), server.port(),
                service.scheduler().workerCount(),
                options.scheduler.queue_limit,
                options.cache_enabled
                    ? (std::to_string(options.cache.byte_budget) + " bytes")
                          .c_str()
                    : "off");
    std::fflush(stdout);
    server.serve();
    std::printf("acrd: draining (%d queued, %d running)\n",
                service.scheduler().queueDepth(),
                service.scheduler().runningCount());
    std::fflush(stdout);
    service.drain();
    if (!trace_file.empty()) {
      std::ofstream out(trace_file);
      out << acr::obs::Tracer::global().renderChromeJson() << '\n';
      std::printf("acrd: trace written to %s\n", trace_file.c_str());
    }
    if (const auto open = acr::obs::Tracer::global().openSpans(); open != 0) {
      std::fprintf(stderr, "acrd: warning: %lld span(s) still open at exit\n",
                   static_cast<long long>(open));
    }
    std::puts("acrd: drained, bye");
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "acrd: %s\n", error.what());
    return 1;
  }
}
