#include "service/server.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/ops.hpp"
#include "localize/sbfl.hpp"
#include "obs/trace.hpp"
#include "service/event_loop.hpp"

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
    if (verb == "submit") return handleSubmit(request);
    if (verb == "submit_batch") return handleSubmitBatch(request);
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

Json RepairService::handle(const Json& request) {
  metrics_.counter("service.requests").add(1);
  const util::ScopedTimer timer(metrics_.histogram("service.request_ms"));
  if (!request.isObject()) return errorResponse("request must be an object");
  const Json* op = request.find("op");
  if (op == nullptr) return errorResponse("missing \"op\"");
  obs::Span span("service.request");
  span.attr("op", op->asString());
  return dispatch(request);
}

std::string RepairService::handleLine(const std::string& line) {
  const std::optional<Json> request = Json::parse(line);
  if (!request) return errorResponse("malformed JSON").str();
  return handle(*request).str();
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

  // Only the waiting paths need special treatment: everything else
  // answers before returning, through the very same handlers the
  // synchronous surface uses.
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
    if (verb == "submit_batch" && wait) {
      const Json* items = request.find("items");
      if (items == nullptr || items->kind() != Json::Kind::kArray ||
          items->asArray().empty()) {
        done(errorResponse("submit_batch requires a non-empty \"items\" array"));
        return;
      }
      // Admit everything first (order fixed by the items array), then park
      // one completion callback per accepted job; the last job to finish
      // assembles and delivers the batch response.
      struct BatchState {
        std::vector<Json> entries;
        std::atomic<std::size_t> remaining{0};
        std::function<void(Json)> done;
      };
      auto state = std::make_shared<BatchState>();
      state->entries.resize(items->asArray().size());
      state->done = std::move(done);
      std::vector<std::pair<std::size_t, std::uint64_t>> accepted;
      for (std::size_t i = 0; i < items->asArray().size(); ++i) {
        const std::optional<Json> merged =
            mergeBatchItem(request, items->asArray()[i]);
        if (!merged) {
          state->entries[i] = errorResponse("batch item must be an object");
          continue;
        }
        const SubmitOutcome submitted = submitOne(*merged);
        if (!submitted.accepted) {
          state->entries[i] = submitted.response;
          continue;
        }
        accepted.emplace_back(i, submitted.id);
      }
      const auto assemble = [](BatchState& batch) {
        Json response;
        response.set("ok", true);
        response.set("jobs", Json{Json::Array(batch.entries.begin(),
                                              batch.entries.end())});
        return response;
      };
      if (accepted.empty()) {
        state->done(assemble(*state));
        return;
      }
      state->remaining.store(accepted.size(), std::memory_order_relaxed);
      for (const auto& [index, id] : accepted) {
        scheduler_.onFinished(id, [this, state, assemble, index = index,
                                   id = id] {
          state->entries[index] = resultResponse(id);
          if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            state->done(assemble(*state));
          }
        });
      }
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
  const std::optional<JobResult> result = scheduler_.result(id, /*wait=*/false);
  response.set("exit", result->exit_code);
  response.set("output", result->output);
  if (const std::optional<obs::TraceContext> trace = scheduler_.trace(id)) {
    if (trace->trace_id != 0) response.set("trace", trace->trace_id);
  }
  return response;
}

Json RepairService::handleSubmit(const Json& request) {
  const SubmitOutcome submitted = submitOne(request);
  if (!submitted.accepted) return submitted.response;
  if (request.find("wait") != nullptr && request.find("wait")->asBool()) {
    (void)scheduler_.result(submitted.id, /*wait=*/true);
    return resultResponse(submitted.id);
  }
  return submitted.response;
}

std::optional<Json> RepairService::mergeBatchItem(const Json& request,
                                                  const Json& item) {
  if (!item.isObject()) return std::nullopt;
  // Top-level fields are the batch's shared defaults; the item overrides
  // field by field. `op`/`items`/`wait` never merge — an item is always a
  // plain non-waiting submit.
  Json merged;
  merged.set("op", "submit");
  for (const char* key :
       {"dir", "command", "seed", "metric", "priority", "report", "trace",
        "parent"}) {
    if (const Json* field = request.find(key)) merged.set(key, *field);
  }
  for (const auto& [key, value] : item.asObject()) {
    if (key == "op" || key == "items" || key == "wait") continue;
    merged.set(key, value);
  }
  return merged;
}

Json RepairService::handleSubmitBatch(const Json& request) {
  const Json* items = request.find("items");
  if (items == nullptr || items->kind() != Json::Kind::kArray ||
      items->asArray().empty()) {
    return errorResponse("submit_batch requires a non-empty \"items\" array");
  }
  const bool wait =
      request.find("wait") != nullptr && request.find("wait")->asBool();
  // Admit every item before waiting on any: one round-trip admits the
  // whole batch, and rejected items surface their own backpressure entry
  // while the accepted ones still run.
  std::vector<Json> entries(items->asArray().size());
  std::vector<std::pair<std::size_t, std::uint64_t>> accepted;
  for (std::size_t i = 0; i < items->asArray().size(); ++i) {
    const std::optional<Json> merged =
        mergeBatchItem(request, items->asArray()[i]);
    if (!merged) {
      entries[i] = errorResponse("batch item must be an object");
      continue;
    }
    const SubmitOutcome submitted = submitOne(*merged);
    if (!submitted.accepted) {
      entries[i] = submitted.response;
      continue;
    }
    accepted.emplace_back(i, submitted.id);
    entries[i] = submitted.response;
  }
  if (wait) {
    for (const auto& [index, id] : accepted) {
      (void)scheduler_.result(id, /*wait=*/true);
      entries[index] = resultResponse(id);
    }
  }
  Json response;
  response.set("ok", true);
  response.set("jobs", Json{Json::Array(entries.begin(), entries.end())});
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
  const bool wait =
      request.find("wait") != nullptr && request.find("wait")->asBool();
  if (!scheduler_.status(id)) return errorResponse("unknown job id");
  const std::optional<JobResult> result = scheduler_.result(id, wait);
  if (!result) {
    Json response = errorResponse("not finished");
    response.set("id", id);
    response.set("status", jobStatusName(*scheduler_.status(id)));
    return response;
  }
  return resultResponse(id);
}

Json RepairService::handleCancel(const Json& request) {
  const Json* id_field = request.find("id");
  if (id_field == nullptr) return errorResponse("cancel requires \"id\"");
  const std::uint64_t id = id_field->asUint();
  const std::optional<JobStatus> status = scheduler_.status(id);
  if (!status) return errorResponse("unknown job id");
  // "if_queued": only dequeue a job that has not started — a client that
  // resubmits queued work elsewhere must never kill a running job. Plain
  // cancel keeps its raise-the-flag semantics.
  const bool if_queued = request.find("if_queued") != nullptr &&
                         request.find("if_queued")->asBool();
  if (!scheduler_.cancel(id, if_queued)) {
    if (if_queued && scheduler_.status(id) == JobStatus::kRunning) {
      return errorResponse("already running");
    }
    return errorResponse("already finished");
  }
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

// ---------------------------------------------------------------------------
// TCP front end — a thin veneer over the epoll event loop
// ---------------------------------------------------------------------------

TcpServer::TcpServer(RepairService& service, const TcpServerOptions& options) {
  EventLoopOptions loop_options;
  loop_options.host = options.host;
  loop_options.port = options.port;
  loop_options.stop = options.stop;
  loop_options.max_line_bytes = options.max_line_bytes;
  loop_options.metrics = &service.metrics();
  loop_ = std::make_unique<EventLoop>(service, loop_options);
}

TcpServer::~TcpServer() = default;

int TcpServer::port() const { return loop_->port(); }

void TcpServer::serve() { loop_->serve(); }

void TcpServer::stop() { loop_->stop(); }

}  // namespace acr::service
