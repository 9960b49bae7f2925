// The serve workload's rig: an in-process RepairService behind a TcpServer
// on 127.0.0.1, and a fixed set of blocking client connections.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hpp"
#include "service/server.hpp"

namespace e2e {

class ServeRig {
 public:
  /// Starts the server thread and connects `clients` blocking clients.
  ServeRig(int workers, std::uint64_t cache_bytes, int clients);
  /// Closes the clients, stops the event loop, joins it and drains jobs.
  ~ServeRig();
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;

  [[nodiscard]] int clients() const { return static_cast<int>(clients_.size()); }
  [[nodiscard]] acr::service::Client& client(int index) {
    return *clients_[static_cast<std::size_t>(index)];
  }

 private:
  acr::service::RepairService service_;
  acr::service::TcpServer server_;
  std::thread serve_thread_;
  std::vector<std::unique_ptr<acr::service::Client>> clients_;
};

/// What one incident got back from the service.
struct ServeReply {
  double ttr_ms = 0;         // verify submit -> repair response
  double verify_ms = 0;      // client round-trip of each request
  double repair_ms = 0;
  bool answered = false;     // both requests answered "ok":true
  int verify_exit = -1;
  int repair_exit = -1;
  std::string verify_text;
  std::string repair_text;
  std::string error;         // the first "ok":false response, if any
};

/// One incident as the operator sends it: `verify` of the scenario dir,
/// then `repair` of the same dir with the incident's repair seed, both
/// blocking ("wait":true) on one connection.
[[nodiscard]] ServeReply serveIncident(acr::service::Client& client,
                                       const std::string& dir,
                                       std::uint64_t repair_seed);

}  // namespace e2e
