#include "core/ops.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "core/campaign.hpp"
#include "repair/report.hpp"

namespace acr::ops {

namespace {

void appendf(std::string& out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string& out, const char* format, ...) {
  char buffer[1024];
  va_list args;
  va_start(args, format);
  const int written = std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  if (written > 0) out.append(buffer, std::min<std::size_t>(
                                  static_cast<std::size_t>(written),
                                  sizeof(buffer) - 1));
}

}  // namespace

bool verifyOk(const route::SimResult& sim,
              const verify::VerifyResult& result) {
  return result.ok() && sim.converged;
}

std::string renderVerifyText(const Scenario& scenario,
                             const route::SimResult& sim,
                             const verify::VerifyResult& result) {
  std::string out;
  appendf(out, "control plane: %s (%d rounds)\n",
          sim.converged ? "converged" : "NOT CONVERGED", sim.rounds);
  for (const auto& prefix : sim.flapping) {
    appendf(out, "  route flapping: %s\n", prefix.str().c_str());
  }
  for (const auto& session : sim.sessions) {
    if (!session.up) {
      appendf(out, "  session DOWN %s-%s: %s\n", session.a.c_str(),
              session.b.c_str(), session.down_reason.c_str());
    }
  }
  appendf(out, "%d/%d tests failing\n", result.tests_failed,
          result.tests_run);
  for (const auto* failure : result.failures()) {
    appendf(out, "  FAIL %s -- %s\n",
            scenario.intents[failure->test.intent_index].str().c_str(),
            failure->reason.c_str());
  }
  return out;
}

VerifyOutcome verifyScenario(const Scenario& scenario) {
  VerifyOutcome outcome;
  outcome.sim = route::Simulator(scenario.network()).run();
  outcome.result = verify::Verifier(scenario.intents)
                       .verifyWithSim(scenario.network(), outcome.sim);
  outcome.text = renderVerifyText(scenario, outcome.sim, outcome.result);
  outcome.ok = verifyOk(outcome.sim, outcome.result);
  return outcome;
}

util::Json repairOptionsJson(const repair::RepairOptions& options) {
  util::Json json{util::Json::Object{}};
  json.set("metric", util::Json(sbfl::metricName(options.metric)));
  json.set("max_iterations", util::Json(options.max_iterations));
  json.set("top_k_lines", util::Json(options.top_k_lines));
  json.set("samples_per_intent", util::Json(options.samples_per_intent));
  json.set("seed", util::Json(static_cast<std::uint64_t>(options.seed)));
  json.set("use_incremental", util::Json(options.use_incremental));
  json.set("batch_validate", util::Json(options.batch_validate));
  json.set("brute_force", util::Json(options.brute_force));
  json.set("use_crossover", util::Json(options.use_crossover));
  json.set("multipath", util::Json(options.multipath));
  json.set("tolerance_k", util::Json(options.tolerance_k));
  json.set("symbolic", util::Json(options.symbolic));
  // Fixed-precision string (like recorded scores) so the rendering can
  // never drift between platforms.
  char suspicion[32];
  std::snprintf(suspicion, sizeof(suspicion), "%.6f",
                options.symbolic_suspicion);
  json.set("symbolic_suspicion", util::Json(std::string(suspicion)));
  json.set("symbolic_max_variables",
           util::Json(options.symbolic_max_variables));
  json.set("symbolic_fork_budget", util::Json(options.symbolic_fork_budget));
  // validate_jobs is deliberately absent: it is a wall-clock knob with no
  // effect on results or recording events, and including it would break the
  // "recordings are byte-identical at any --jobs value" contract.
  return json;
}

repair::RepairOptions repairOptionsFromJson(const util::Json& json) {
  repair::RepairOptions options;
  const auto intField = [&json](const char* key, int fallback) {
    const util::Json* value = json.find(key);
    return value != nullptr ? static_cast<int>(value->asInt(fallback))
                            : fallback;
  };
  const auto boolField = [&json](const char* key, bool fallback) {
    const util::Json* value = json.find(key);
    return value != nullptr ? value->asBool(fallback) : fallback;
  };
  if (const util::Json* metric = json.find("metric")) {
    if (const auto parsed = sbfl::metricByName(metric->asString())) {
      options.metric = *parsed;
    }
  }
  options.max_iterations = intField("max_iterations", options.max_iterations);
  options.top_k_lines = intField("top_k_lines", options.top_k_lines);
  options.samples_per_intent =
      intField("samples_per_intent", options.samples_per_intent);
  if (const util::Json* seed = json.find("seed")) {
    options.seed = seed->asUint(options.seed);
  }
  options.use_incremental =
      boolField("use_incremental", options.use_incremental);
  options.batch_validate = boolField("batch_validate", options.batch_validate);
  options.brute_force = boolField("brute_force", options.brute_force);
  options.use_crossover = boolField("use_crossover", options.use_crossover);
  options.multipath = boolField("multipath", options.multipath);
  options.tolerance_k = intField("tolerance_k", options.tolerance_k);
  options.symbolic = boolField("symbolic", options.symbolic);
  if (const util::Json* suspicion = json.find("symbolic_suspicion")) {
    if (suspicion->kind() == util::Json::Kind::kString) {
      try {
        options.symbolic_suspicion = std::stod(suspicion->asString());
      } catch (...) {
        // keep the default on malformed input
      }
    }
  }
  options.symbolic_max_variables =
      intField("symbolic_max_variables", options.symbolic_max_variables);
  options.symbolic_fork_budget =
      intField("symbolic_fork_budget", options.symbolic_fork_budget);
  return options;
}

RepairOutcome repairScenario(const Scenario& scenario,
                             const repair::RepairOptions& options,
                             bool report) {
  RepairOutcome outcome;
  outcome.result =
      repairNetwork(scenario.network(), scenario.intents, options);
  if (report) {
    outcome.text = repair::renderReport(outcome.result);
  } else {
    outcome.text = outcome.result.summary() + '\n';
    for (const auto& diff : outcome.result.diff) outcome.text += diff.str();
  }
  return outcome;
}

}  // namespace acr::ops
