// Blocking client for the acrd wire protocol (docs/service.md): one TCP
// connection, one request line out, one response line back per call().
// `acrctl remote` is a thin shell around this; tests and benches drive it
// directly.
#pragma once

#include <string>

#include "service/json.hpp"

namespace acr::service {

class Client {
 public:
  /// Connects immediately; throws std::runtime_error when acrd is not
  /// listening on host:port or does not accept within 5 s.
  Client(const std::string& host, int port);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request, blocks for its response line (a `submit` with
  /// "wait":true blocks until the job finished server-side). Throws
  /// std::runtime_error on connection loss or a malformed response.
  [[nodiscard]] Json call(const Json& request);

 private:
  int fd_ = -1;
  std::string buffer_;  // bytes past the last consumed response line
};

}  // namespace acr::service
