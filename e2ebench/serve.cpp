#include "serve.hpp"

#include <chrono>

namespace e2e {

namespace {

acr::service::ServiceOptions serviceOptions(int workers,
                                            std::uint64_t cache_bytes) {
  acr::service::ServiceOptions options;
  options.scheduler.workers = workers;
  // Every client has at most one job in flight, so this limit is never
  // reached: a rejection would be a service defect, and counts as failed.
  options.scheduler.queue_limit = 1024;
  options.cache.byte_budget = cache_bytes;
  return options;
}

double msBetween(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

ServeRig::ServeRig(int workers, std::uint64_t cache_bytes, int clients)
    : service_(serviceOptions(workers, cache_bytes)), server_(service_) {
  serve_thread_ = std::thread([this] { server_.serve(); });
  try {
    for (int c = 0; c < clients; ++c) {
      clients_.push_back(
          std::make_unique<acr::service::Client>("127.0.0.1", server_.port()));
    }
  } catch (...) {
    clients_.clear();
    server_.stop();
    serve_thread_.join();
    throw;
  }
}

ServeRig::~ServeRig() {
  clients_.clear();
  server_.stop();
  serve_thread_.join();
  service_.drain();
}

ServeReply serveIncident(acr::service::Client& client, const std::string& dir,
                         std::uint64_t repair_seed) {
  using acr::service::Json;
  ServeReply reply;
  const auto call = [&client, &reply](const Json& request, int* exit_code,
                                      std::string* text) {
    const Json response = client.call(request);
    const Json* ok = response.find("ok");
    if (ok == nullptr || !ok->asBool()) {
      if (reply.error.empty()) reply.error = response.str();
      return false;
    }
    const Json* exit_field = response.find("exit");
    const Json* output = response.find("output");
    *exit_code = exit_field != nullptr ? static_cast<int>(exit_field->asInt(-1))
                                       : -1;
    if (output != nullptr) *text = output->asString();
    return true;
  };

  Json verify;
  verify.set("op", "submit");
  verify.set("dir", dir);
  verify.set("command", "verify");
  verify.set("wait", true);
  Json repair;
  repair.set("op", "submit");
  repair.set("dir", dir);
  repair.set("command", "repair");
  repair.set("seed", repair_seed);
  repair.set("wait", true);

  const auto started = std::chrono::steady_clock::now();
  const bool verified = call(verify, &reply.verify_exit, &reply.verify_text);
  const auto verify_done = std::chrono::steady_clock::now();
  const bool repaired =
      verified && call(repair, &reply.repair_exit, &reply.repair_text);
  const auto repair_done = std::chrono::steady_clock::now();
  reply.answered = verified && repaired;
  reply.ttr_ms = msBetween(started, repair_done);
  reply.verify_ms = msBetween(started, verify_done);
  reply.repair_ms = msBetween(verify_done, repair_done);
  return reply;
}

}  // namespace e2e
