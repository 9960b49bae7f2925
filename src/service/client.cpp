#include "service/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace acr::service {

namespace {

/// A dead or wedged port must not hang `acrctl remote` for the kernel's
/// minutes-long connect timeout.
constexpr int kConnectTimeoutMs = 5000;

}  // namespace

Client::Client(const std::string& host, int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    ::close(fd_);
    throw std::runtime_error("bad address " + host);
  }
  // Non-blocking connect so a dead or wedged port fails within
  // kConnectTimeoutMs.
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                     sizeof(address));
  if (rc != 0 && errno == EINPROGRESS) {
    pollfd waiter{fd_, POLLOUT, 0};
    const int ready = ::poll(&waiter, 1, kConnectTimeoutMs);
    if (ready <= 0) {
      ::close(fd_);
      fd_ = -1;
      throw std::runtime_error(
          "cannot connect to " + host + ":" + std::to_string(port) +
          ": timed out after " + std::to_string(kConnectTimeoutMs) +
          "ms (is acrd running?)");
    }
    int error = 0;
    socklen_t length = sizeof error;
    ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &error, &length);
    rc = error == 0 ? 0 : -1;
    errno = error;
  }
  if (rc != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("cannot connect to " + host + ":" +
                             std::to_string(port) + ": " + reason +
                             " (is acrd running?)");
  }
  ::fcntl(fd_, F_SETFL, flags);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Json Client::call(const Json& request) {
  const std::string line = request.str() + '\n';
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t wrote =
        ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (wrote <= 0) throw std::runtime_error("connection lost (send)");
    sent += static_cast<std::size_t>(wrote);
  }
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      const std::string response = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      std::optional<Json> parsed = Json::parse(response);
      if (!parsed) throw std::runtime_error("malformed response: " + response);
      return std::move(*parsed);
    }
    char chunk[4096];
    const ssize_t received = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (received == 0) throw std::runtime_error("connection closed by acrd");
    if (received < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
    }
    buffer_.append(chunk, static_cast<std::size_t>(received));
  }
}

}  // namespace acr::service
