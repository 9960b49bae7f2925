#include "service/server.hpp"

#include <future>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/ops.hpp"
#include "localize/sbfl.hpp"
#include "obs/trace.hpp"

namespace acr::service {

namespace {

Json errorResponse(const std::string& message) {
  Json response;
  response.set("ok", false);
  response.set("error", message);
  return response;
}

SchedulerOptions withMetrics(SchedulerOptions options,
                             util::MetricsRegistry* metrics) {
  if (options.metrics == nullptr) options.metrics = metrics;
  return options;
}

SnapshotCache::Options withMetrics(SnapshotCache::Options options,
                                   util::MetricsRegistry* metrics) {
  if (options.metrics == nullptr) options.metrics = metrics;
  return options;
}

}  // namespace

RepairService::RepairService(const ServiceOptions& options)
    : options_(options),
      metrics_(options.metrics != nullptr ? *options.metrics
                                          : util::MetricsRegistry::global()),
      cache_(withMetrics(options.cache, &metrics_)),
      scheduler_(withMetrics(options.scheduler, &metrics_)) {}

Json RepairService::dispatch(const Json& request) {
  const std::string& verb = request.find("op")->asString();
  try {
    if (verb == "submit") return submitOne(request).response;
    if (verb == "status") return handleStatus(request);
    if (verb == "result") return handleResult(request);
    if (verb == "cancel") return handleCancel(request);
    if (verb == "stats") return handleStats();
    if (verb == "shutdown") {
      shutdown_.store(true, std::memory_order_relaxed);
      Json response;
      response.set("ok", true);
      response.set("draining", true);
      return response;
    }
  } catch (const std::exception& error) {
    return errorResponse(error.what());
  }
  return errorResponse("unknown op \"" + verb + "\"");
}

void RepairService::handleAsync(const Json& request,
                                std::function<void(Json)> done) {
  metrics_.counter("service.requests").add(1);
  if (!request.isObject()) {
    done(errorResponse("request must be an object"));
    return;
  }
  const Json* op = request.find("op");
  if (op == nullptr) {
    done(errorResponse("missing \"op\""));
    return;
  }
  const std::string& verb = op->asString();
  const bool wait =
      request.find("wait") != nullptr && request.find("wait")->asBool();
  obs::Span span("service.request");
  span.attr("op", verb);

  // A waiting op parks `done` on its job; every other op answers through
  // dispatch() before returning.
  try {
    if (verb == "submit" && wait) {
      const SubmitOutcome submitted = submitOne(request);
      if (!submitted.accepted) {
        done(submitted.response);
        return;
      }
      const std::uint64_t id = submitted.id;
      scheduler_.onFinished(
          id, [this, id, done = std::move(done)] { done(resultResponse(id)); });
      return;
    }
    if (verb == "result" && wait) {
      const Json* id_field = request.find("id");
      if (id_field == nullptr) {
        done(errorResponse("result requires \"id\""));
        return;
      }
      const std::uint64_t id = id_field->asUint();
      if (!scheduler_.status(id)) {
        done(errorResponse("unknown job id"));
        return;
      }
      scheduler_.onFinished(
          id, [this, id, done = std::move(done)] { done(resultResponse(id)); });
      return;
    }
  } catch (const std::exception& error) {
    done(errorResponse(error.what()));
    return;
  }

  const util::ScopedTimer timer(metrics_.histogram("service.request_ms"));
  done(dispatch(request));
}

void RepairService::handleLineAsync(const std::string& line,
                                    std::function<void(std::string)> done) {
  const std::optional<Json> request = Json::parse(line);
  if (!request) {
    done(errorResponse("malformed JSON").str());
    return;
  }
  handleAsync(*request,
              [done = std::move(done)](Json response) { done(response.str()); });
}

Json RepairService::handle(const Json& request) {
  // Shared: a waiting op's callback runs on a worker thread, which may
  // still be inside set_value() when get() below returns.
  auto response = std::make_shared<std::promise<Json>>();
  std::future<Json> answered = response->get_future();
  handleAsync(request, [response](Json answer) {
    response->set_value(std::move(answer));
  });
  return answered.get();
}

RepairService::SubmitOutcome RepairService::submitOne(const Json& request) {
  SubmitOutcome outcome;
  const Json* dir_field = request.find("dir");
  if (dir_field == nullptr || dir_field->asString().empty()) {
    outcome.response = errorResponse("submit requires \"dir\"");
    return outcome;
  }
  const std::string dir = dir_field->asString();

  std::string command = "repair";
  if (const Json* field = request.find("command")) command = field->asString();
  if (command != "repair" && command != "verify") {
    outcome.response = errorResponse("unknown command \"" + command +
                                     "\" (repair | verify)");
    return outcome;
  }

  repair::RepairOptions repair_options;  // CLI defaults: seed 1, tarantula
  if (const Json* field = request.find("seed")) {
    repair_options.seed = field->asUint(1);
  }
  if (const Json* field = request.find("metric")) {
    const std::optional<sbfl::Metric> metric =
        sbfl::metricByName(field->asString());
    if (!metric) {
      outcome.response =
          errorResponse("unknown metric \"" + field->asString() + "\"");
      return outcome;
    }
    repair_options.metric = *metric;
  }
  const bool report = request.find("report") != nullptr &&
                      request.find("report")->asBool();
  int priority = 0;
  if (const Json* field = request.find("priority")) {
    priority = static_cast<int>(field->asInt(0));
  }

  // Wire-protocol trace propagation: a client that carries a trace sends
  // its trace id (and the submitting span as "parent"); the job's spans
  // then join the client's trace instead of starting a fresh one.
  obs::TraceContext wire_trace = obs::currentContext();
  if (const Json* field = request.find("trace")) {
    wire_trace.trace_id = field->asUint();
    wire_trace.span_id = wire_trace.trace_id;
    if (const Json* parent = request.find("parent")) {
      wire_trace.span_id = parent->asUint();
    }
  }
  const obs::ContextScope trace_scope(wire_trace);

  const bool cache_enabled = options_.cache_enabled;
  SnapshotCache* cache = &cache_;
  const JobScheduler::Submitted submitted = scheduler_.submit(
      priority,
      [dir, command, repair_options, report, cache_enabled,
       cache](const std::atomic<bool>& cancelled) -> JobResult {
        try {
          if (command == "verify") {
            const std::shared_ptr<const Snapshot> snapshot =
                cache_enabled ? cache->fetch(dir) : makeSnapshot(dir);
            return JobResult{snapshot->verify_ok ? 0 : 1,
                             snapshot->verify_text};
          }
          repair::RepairOptions options = repair_options;
          options.cancel = &cancelled;
          // Cache hit: reuse the parsed scenario AND its primed baseline
          // simulation — the engine adopts the latter as its incremental
          // verifier's anchor instead of re-converging (same converged
          // state, same bytes as the offline run). Cache off: plain load,
          // no priming.
          ops::RepairOutcome outcome;
          if (cache_enabled) {
            const std::shared_ptr<const Snapshot> snapshot = cache->fetch(dir);
            options.baseline_sim = &snapshot->baseline_sim;
            outcome =
                ops::repairScenario(snapshot->loaded.scenario, options, report);
          } else {
            outcome =
                ops::repairScenario(LoadScenario(dir).scenario, options, report);
          }
          return JobResult{outcome.result.success ? 0 : 1,
                           std::move(outcome.text)};
        } catch (const std::exception& error) {
          return JobResult{1, std::string("error: ") + error.what() + '\n'};
        }
      });

  if (!submitted.accepted) {
    outcome.response = errorResponse(submitted.reject_reason);
    outcome.response.set("retry_after_ms", submitted.retry_after_ms);
    return outcome;
  }

  outcome.accepted = true;
  outcome.id = submitted.id;
  outcome.response.set("ok", true);
  outcome.response.set("id", submitted.id);
  outcome.response.set("status", jobStatusName(JobStatus::kQueued));
  if (wire_trace.trace_id != 0) {
    outcome.response.set("trace", wire_trace.trace_id);
  }
  return outcome;
}

Json RepairService::resultResponse(std::uint64_t id) {
  Json response;
  response.set("ok", true);
  response.set("id", id);
  response.set("status", jobStatusName(*scheduler_.status(id)));
  const std::optional<JobResult> result = scheduler_.result(id);
  response.set("exit", result->exit_code);
  response.set("output", result->output);
  if (const std::optional<obs::TraceContext> trace = scheduler_.trace(id)) {
    if (trace->trace_id != 0) response.set("trace", trace->trace_id);
  }
  return response;
}

Json RepairService::handleStatus(const Json& request) {
  const Json* id_field = request.find("id");
  if (id_field == nullptr) return errorResponse("status requires \"id\"");
  const std::uint64_t id = id_field->asUint();
  const std::optional<JobStatus> status = scheduler_.status(id);
  if (!status) return errorResponse("unknown job id");
  Json response;
  response.set("ok", true);
  response.set("id", id);
  response.set("status", jobStatusName(*status));
  return response;
}

Json RepairService::handleResult(const Json& request) {
  const Json* id_field = request.find("id");
  if (id_field == nullptr) return errorResponse("result requires \"id\"");
  const std::uint64_t id = id_field->asUint();
  if (!scheduler_.status(id)) return errorResponse("unknown job id");
  if (!scheduler_.result(id)) {
    Json response = errorResponse("not finished");
    response.set("id", id);
    response.set("status", jobStatusName(*scheduler_.status(id)));
    return response;
  }
  return resultResponse(id);
}

Json RepairService::handleCancel(const Json& request) {
  // "if_queued" once promised "dequeue, but never stop a running job".
  // Ignoring it like other unknown keys would turn that promise into a
  // plain cancel, so a request that still carries it changes nothing.
  if (request.find("if_queued") != nullptr) {
    return errorResponse("cancel does not take \"if_queued\"");
  }
  const Json* id_field = request.find("id");
  if (id_field == nullptr) return errorResponse("cancel requires \"id\"");
  const std::uint64_t id = id_field->asUint();
  if (!scheduler_.status(id)) return errorResponse("unknown job id");
  if (!scheduler_.cancel(id)) return errorResponse("already finished");
  Json response;
  response.set("ok", true);
  response.set("id", id);
  return response;
}

Json RepairService::handleStats() {
  Json response;
  response.set("ok", true);
  response.set("uptime_ms",
               static_cast<std::int64_t>(
                   std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - started_)
                       .count()));
  response.set("queue_depth", scheduler_.queueDepth());
  Json by_priority{Json::Object{}};
  for (const auto& [priority, depth] : scheduler_.queueDepthByPriority()) {
    by_priority.set(std::to_string(priority), depth);
  }
  response.set("queue_by_priority", std::move(by_priority));
  response.set("running", scheduler_.runningCount());
  response.set("workers", scheduler_.workerCount());
  // Connection-level gauges, written by the event-loop front end (zero
  // for an embedded service with no TCP listener).
  Json connections;
  connections.set("open", metrics_.gauge("service.connections.open").value());
  connections.set("accepted",
                  metrics_.counter("service.connections.accepted").value());
  connections.set("dropped",
                  metrics_.counter("service.connections.dropped").value());
  response.set("connections", std::move(connections));
  const SnapshotCache::Stats cache = cache_.stats();
  Json cache_json;
  cache_json.set("enabled", options_.cache_enabled);
  cache_json.set("entries", cache.entries);
  cache_json.set("bytes", cache.bytes);
  cache_json.set("hits", cache.hits);
  cache_json.set("misses", cache.misses);
  cache_json.set("evictions", cache.evictions);
  cache_json.set("hit_rate", cache.hitRate());
  response.set("cache", std::move(cache_json));
  // The registry renders its own JSON; re-parse so the dump nests as a
  // value instead of a quoted string.
  if (std::optional<Json> metrics = Json::parse(metrics_.renderJson())) {
    response.set("metrics", std::move(*metrics));
  }
  return response;
}

void RepairService::drain() { scheduler_.drain(); }

}  // namespace acr::service
