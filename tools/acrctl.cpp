// acrctl — command-line front end for the ACR library.
//
//   acrctl export  --scenario <name> --out DIR [--dialect huawei|cisco]
//   acrctl inject  DIR --fault <index|random> [--seed S] --out DIR2
//   acrctl verify  DIR
//   acrctl triage  DIR [--metric tarantula|ochiai|jaccard|dstar2]
//   acrctl repair  DIR [--out DIR2] [--metric M] [--brute-force]
//                      [--crossover] [--symbolic] [--seed S]
//                      [--metrics|--metrics-json]
//                      [--trace|--trace-json] [--record PATH]
//                      [--obs-out PATH]
//   acrctl explain RECORDING [--replay DIR]
//   acrctl campaign [--incidents N] [--seed S] [--jobs N]
//                   [--metrics|--metrics-json] [--trace|--trace-json]
//                   [--obs-out PATH]
//   acrctl list-faults
//
// Scenario names: figure2, figure2-faulty, dcn[-PxT], backbone[-N].
// A scenario directory is the serialization format of core/serialization.hpp
// (topology.acr + intents.acr + one .cfg per device, either dialect).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "core/acr.hpp"
#include "core/ops.hpp"
#include "core/serialization.hpp"
#include "localize/coverage.hpp"
#include "localize/sbfl.hpp"
#include "obs/record.hpp"
#include "obs/trace.hpp"
#include "repair/report.hpp"
#include "service/client.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "verify/failures.hpp"

namespace acr::cli {

void usage(const char* why) {
  if (why != nullptr) std::fprintf(stderr, "error: %s\n\n", why);
  std::fputs(
      "usage:\n"
      "  acrctl export  --scenario <name> --out DIR [--dialect huawei|cisco]\n"
      "  acrctl inject  DIR --fault <index|random> [--seed S] --out DIR2\n"
      "  acrctl verify  DIR\n"
      "  acrctl triage  DIR [--metric tarantula|ochiai|jaccard|dstar2]\n"
      "  acrctl repair  DIR [--out DIR2] [--metric M] [--brute-force]\n"
      "                 [--crossover] [--symbolic] [--symbolic-threshold F]\n"
      "                 [--symbolic-vars N] [--symbolic-forks N]\n"
      "                 [--report] [--seed S] [--top-k N]\n"
      "                 [--metrics|--metrics-json] [--trace|--trace-json]\n"
      "                 [--record PATH] [--obs-out PATH]\n"
      "  acrctl explain RECORDING [--replay DIR]\n"
      "  acrctl tolerance DIR [--k N]\n"
      "  acrctl campaign [--incidents N] [--seed S] [--jobs N]\n"
      "                  [--metrics|--metrics-json] [--trace|--trace-json]\n"
      "                  [--obs-out PATH]\n"
      "  acrctl list-faults\n"
      "  acrctl remote submit DIR [--command repair|verify] [--seed S]\n"
      "                [--metric M] [--priority N] [--report] [--wait]\n"
      "                [--retries N] [--retry-budget-ms N]\n"
      "  acrctl remote status|result|cancel ID [--wait]\n"
      "  acrctl remote stats | shutdown\n"
      "         (all remote verbs: [--host H] --port P)\n"
      "\n"
      "scenarios: figure2 | figure2-faulty | dcn-<pods>x<tors> | backbone-<n>\n"
      "campaign --jobs 0 = one worker per hardware thread; results are\n"
      "identical at any --jobs value (parallelism changes wall-clock only).\n"
      "--metrics / --metrics-json dump the per-stage pipeline metrics\n"
      "(localize/fix/validate timings, verifier work, campaign counters)\n"
      "as a text table or JSON after the command runs.\n"
      "\n"
      "observability (docs/observability.md): --trace renders the span\n"
      "tree, --trace-json emits Chrome/Perfetto trace JSON; --record PATH\n"
      "writes the repair's flight recording (deterministic JSONL) and\n"
      "`explain` renders it (--replay DIR re-runs the repair and verifies\n"
      "the recording reproduces byte-identically). --metrics-json and the\n"
      "trace output go to --obs-out PATH when given, else stderr — never\n"
      "stdout, which carries only the repair report.\n"
      "\n"
      "exit codes: 0 ok; 1 failed (intents violated, repair not converged,\n"
      "runtime error); 2 usage (unknown command/flag/argument).\n"
      "`remote` talks to an acrd daemon (see docs/service.md); `remote\n"
      "submit --wait` exits with the job's own exit code. A backpressured\n"
      "submit (rejection carrying retry_after_ms) retries with bounded\n"
      "exponential backoff + jitter (--retries, --retry-budget-ms) before\n"
      "giving up with exit 1.\n",
      stderr);
  std::exit(2);
}

}  // namespace acr::cli

namespace {

using namespace acr;
using cli::parseNumber;
using cli::usage;

/// Tiny flag map: --key value and boolean --key.
struct Args {
  std::string positional;
  std::map<std::string, std::string> flags;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  /// A numeric flag's value, `fallback` when absent; a malformed value is a
  /// usage error (exit 2) naming the flag.
  template <typename T>
  [[nodiscard]] T number(const std::string& key, T fallback) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    return parseNumber<T>(it->second, "flag '--" + key + "'");
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return flags.count(key) != 0;
  }
};

/// What one subcommand accepts. Unknown flags are a usage error (exit 2)
/// instead of being silently swallowed — a typoed `--metrik` must not
/// quietly run with the default.
struct FlagSpec {
  std::set<std::string> value_flags;  // --key VALUE
  std::set<std::string> bool_flags;   // --key
};

Args parseArgs(int argc, char** argv, int start, const FlagSpec& spec) {
  Args args;
  for (int i = start; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::string key = token.substr(2);
      if (spec.bool_flags.count(key) != 0) {
        args.flags[key] = "1";
      } else if (spec.value_flags.count(key) != 0) {
        if (i + 1 >= argc) {
          usage(("flag '--" + key + "' needs a value").c_str());
        }
        args.flags[key] = argv[++i];
      } else {
        usage(("unknown flag '--" + key + "' for this command").c_str());
      }
    } else if (args.positional.empty()) {
      args.positional = token;
    } else {
      usage(("unexpected argument '" + token + "'").c_str());
    }
  }
  return args;
}

/// Flag vocabulary per subcommand (the `remote` verbs parse separately).
FlagSpec specFor(const std::string& command) {
  if (command == "export") return {{"scenario", "out", "dialect"}, {}};
  if (command == "inject") return {{"fault", "seed", "out"}, {}};
  if (command == "verify") return {{}, {}};
  if (command == "triage") return {{"metric"}, {}};
  if (command == "repair") {
    return {{"out", "metric", "seed", "top-k", "record", "obs-out",
             "symbolic-threshold", "symbolic-vars", "symbolic-forks"},
            {"brute-force", "crossover", "symbolic", "report", "metrics",
             "metrics-json", "trace", "trace-json"}};
  }
  if (command == "explain") return {{"replay"}, {}};
  if (command == "tolerance") return {{"k"}, {}};
  if (command == "campaign") {
    return {{"incidents", "seed", "jobs", "obs-out"},
            {"metrics", "metrics-json", "trace", "trace-json"}};
  }
  return {{}, {}};  // list-faults and anything unknown take no flags
}

/// The observability channel: machine-readable side output (--metrics-json,
/// --trace, --trace-json) goes to the --obs-out file when given, else to
/// stderr — never to stdout, which carries only the repair report (scripts
/// and the service compare those bytes). The file is opened once per process
/// and truncated, so repeated writes in one run append in order.
void writeObs(const Args& args, const std::string& text) {
  static std::FILE* file = nullptr;
  const std::string path = args.get("obs-out");
  if (!path.empty() && file == nullptr) {
    file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "warning: cannot open --obs-out %s; using stderr\n",
                   path.c_str());
    }
  }
  std::FILE* out = file != nullptr ? file : stderr;
  std::fputs(text.c_str(), out);
  std::fflush(out);
}

/// Enables span collection up front when any trace output was requested.
/// Call before the command's work.
void maybeEnableTracing(const Args& args) {
  if (args.has("trace") || args.has("trace-json")) {
    obs::Tracer::global().setEnabled(true);
  }
}

/// Dumps metrics and trace output per the --metrics*/--trace* flags. The
/// human-readable --metrics table stays on stdout (it is a report for eyes,
/// not a parse target); everything machine-readable uses the obs channel.
/// Call after the command's work, before returning.
void maybeDumpMetrics(const Args& args) {
  if (args.has("metrics-json")) {
    writeObs(args, util::MetricsRegistry::global().renderJson());
  } else if (args.has("metrics")) {
    std::fputs(util::MetricsRegistry::global().renderTable().c_str(), stdout);
  }
  if (args.has("trace-json")) {
    writeObs(args, obs::Tracer::global().renderChromeJson() + "\n");
  } else if (args.has("trace")) {
    writeObs(args, obs::Tracer::global().renderTree());
  }
  if (args.has("trace") || args.has("trace-json")) {
    if (const auto open = obs::Tracer::global().openSpans(); open != 0) {
      std::fprintf(stderr, "acrctl: warning: %lld span(s) still open at exit\n",
                   static_cast<long long>(open));
    }
  }
}

Scenario scenarioByName(const std::string& name) {
  if (name == "figure2") return figure2Scenario(false);
  if (name == "figure2-faulty") return figure2Scenario(true);
  int a = 0, b = 0;
  if (std::sscanf(name.c_str(), "dcn-%dx%d", &a, &b) == 2) {
    return dcnScenario(a, b);
  }
  if (name == "dcn") return dcnScenario(3, 2);
  if (std::sscanf(name.c_str(), "backbone-%d", &a) == 1) {
    return backboneScenario(a);
  }
  if (name == "backbone") return backboneScenario(8);
  usage(("unknown scenario '" + name + "'").c_str());
}

sbfl::Metric metricByName(const std::string& name) {
  // sbfl::metricByName is the one metric parser, shared with the repair
  // service so CLI and wire protocol accept the same spellings.
  const std::optional<sbfl::Metric> metric = sbfl::metricByName(name);
  if (!metric) usage(("unknown metric '" + name + "'").c_str());
  return *metric;
}

int cmdExport(const Args& args) {
  const std::string out = args.get("out");
  if (out.empty()) usage("export requires --out DIR");
  const Scenario scenario = scenarioByName(args.get("scenario", "figure2"));
  SaveOptions options;
  if (args.get("dialect", "huawei") == "cisco") {
    options.dialect = cfg::Dialect::kCisco;
  }
  saveScenario(scenario, out, options);
  std::printf("exported %s (%zu devices, %zu intents) to %s\n",
              scenario.name.c_str(), scenario.network().configs.size(),
              scenario.intents.size(), out.c_str());
  return 0;
}

int cmdListFaults() {
  std::puts("idx  lines  ratio   category  type");
  int index = 0;
  for (const auto& spec : inject::faultCatalog()) {
    std::printf("%3d  %-5s  %4.1f%%   %-8s  %s\n", index++,
                spec.multi_line ? "M" : "S", spec.ratio * 100, spec.category,
                spec.label);
  }
  return 0;
}

int cmdInject(const Args& args) {
  if (args.positional.empty()) usage("inject requires a scenario directory");
  const std::string out = args.get("out");
  if (out.empty()) usage("inject requires --out DIR");
  Scenario scenario = loadScenario(args.positional);
  const auto seed = args.number<std::uint64_t>("seed", 1);
  inject::FaultInjector injector(seed);
  const std::string fault = args.get("fault", "random");
  std::optional<inject::Incident> incident;
  if (fault == "random") {
    for (int attempt = 0; attempt < 16 && !incident; ++attempt) {
      incident = injector.inject(scenario.built, injector.sampleType());
    }
  } else {
    const auto index = args.number<std::size_t>("fault", 0);
    if (index >= inject::faultCatalog().size()) usage("fault index out of range");
    incident =
        injector.inject(scenario.built, inject::faultCatalog()[index].type);
  }
  if (!incident) {
    std::fprintf(stderr, "fault not applicable to this scenario\n");
    return 1;
  }
  Scenario broken = scenario;
  broken.built.network = incident->network;
  saveScenario(broken, out);
  std::printf("injected: %s (%s, %d line(s))\nground-truth diff:\n%s",
              incident->description.c_str(),
              inject::faultTypeName(incident->type).c_str(),
              incident->changed_lines,
              [&] {
                std::string text;
                for (const auto& diff : incident->injected_diff) {
                  text += diff.str();
                }
                return text;
              }()
                  .c_str());
  return 0;
}

int cmdVerify(const Args& args) {
  if (args.positional.empty()) usage("verify requires a scenario directory");
  const LoadedScenario loaded = LoadScenario(args.positional);
  // ops::verifyScenario renders the exact same text the repair service
  // returns for a remote `verify` job — byte-identical by construction.
  const ops::VerifyOutcome outcome = ops::verifyScenario(loaded.scenario);
  std::fputs(outcome.text.c_str(), stdout);
  return outcome.ok ? 0 : 1;
}

int cmdTriage(const Args& args) {
  if (args.positional.empty()) usage("triage requires a scenario directory");
  const Scenario scenario = loadScenario(args.positional);
  const sbfl::Metric metric = metricByName(args.get("metric", "tarantula"));
  route::SimOptions options;
  options.record_provenance = true;
  const route::SimResult sim =
      route::Simulator(scenario.network()).run(options);
  const verify::Verifier verifier(scenario.intents, options);
  const sbfl::Spectrum spectrum =
      sbfl::runSuite(scenario.network(), sim, verifier,
                     verify::generateTests(scenario.intents, 1))
          .spectrum;
  if (spectrum.totalFailed() == 0) {
    std::puts("no failing tests; nothing to triage");
    return 0;
  }
  std::printf("%d failing / %d passing tests; top suspicious lines (%s):\n",
              spectrum.totalFailed(), spectrum.totalPassed(),
              sbfl::metricName(metric).c_str());
  int shown = 0;
  for (const auto& score : spectrum.rank(metric)) {
    if (score.failed_cover == 0 || shown++ >= 10) break;
    const auto index =
        scenario.network().config(score.line.device)->buildLineIndex();
    std::printf("  %.3f  %s:%-3d  %s\n", score.suspiciousness,
                score.line.device.c_str(), score.line.line,
                index.at(score.line.line).text.c_str());
  }
  return 1;
}

int cmdRepair(const Args& args) {
  if (args.positional.empty()) usage("repair requires a scenario directory");
  maybeEnableTracing(args);
  const LoadedScenario loaded = LoadScenario(args.positional);
  repair::RepairOptions options;
  options.metric = metricByName(args.get("metric", "tarantula"));
  options.brute_force = args.has("brute-force");
  options.use_crossover = args.has("crossover");
  // --symbolic: selective symbolic simulation (docs/symbolic.md) — solve
  // multi-line, multi-device fixes as one SMT conjunction before the
  // concrete template loop. The value flags tune the device gate and the
  // path-condition fork budget.
  options.symbolic = args.has("symbolic");
  options.symbolic_suspicion =
      args.number("symbolic-threshold", options.symbolic_suspicion);
  options.symbolic_max_variables =
      args.number("symbolic-vars", options.symbolic_max_variables);
  options.symbolic_fork_budget =
      args.number("symbolic-forks", options.symbolic_fork_budget);
  options.seed = args.number<std::uint64_t>("seed", 1);
  // --top-k widens the FIX stage beyond the default 3 suspicious lines —
  // e.g. to reach value-solving templates on lines that tie below the
  // cutoff (the Figure-2 narrow-override-list fix needs the full ranking).
  options.top_k_lines = args.number("top-k", options.top_k_lines);
  // --record: flight-record the run. The `begin` event carries the scenario
  // fingerprint and every byte-affecting option so `explain --replay` can
  // reproduce the recording exactly.
  obs::FlightRecorder recorder;
  const std::string record_path = args.get("record");
  if (!record_path.empty()) {
    recorder.beginRepair(loaded.scenario.name, loaded.content_hash,
                         loaded.content_bytes, ops::repairOptionsJson(options));
    options.recorder = &recorder;
  }
  // Same renderer the repair service uses, so offline and remote repair
  // output are byte-identical.
  const ops::RepairOutcome outcome =
      ops::repairScenario(loaded.scenario, options, args.has("report"));
  std::fputs(outcome.text.c_str(), stdout);
  const std::string out = args.get("out");
  if (!out.empty() && outcome.result.success) {
    Scenario repaired = loaded.scenario;
    repaired.built.network = outcome.result.repaired;
    saveScenario(repaired, out);
    std::printf("repaired configs written to %s\n", out.c_str());
  }
  if (!record_path.empty()) {
    if (!recorder.save(record_path)) {
      std::fprintf(stderr, "error: cannot write recording to %s\n",
                   record_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "acrctl: recording written to %s (%zu event(s))\n",
                 record_path.c_str(), recorder.lines().size());
  }
  maybeDumpMetrics(args);
  return outcome.result.success ? 0 : 1;
}

/// explain — renders a flight recording's decision tree; with --replay DIR
/// re-runs the recorded repair against DIR and demands a byte-identical
/// recording (the determinism guard of docs/observability.md).
int cmdExplain(const Args& args) {
  if (args.positional.empty()) usage("explain requires a recording file");
  std::ifstream in(args.positional);
  if (!in) {
    std::fprintf(stderr, "error: cannot read recording %s\n",
                 args.positional.c_str());
    return 1;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::vector<util::Json> events;
  if (!obs::parseRecording(text, &events)) {
    std::fprintf(stderr, "error: malformed recording %s (bad line %zu)\n",
                 args.positional.c_str(), events.size() + 1);
    return 1;
  }
  std::fputs(obs::renderExplainTree(events).c_str(), stdout);

  const std::string replay_dir = args.get("replay");
  if (replay_dir.empty()) return 0;
  const util::Json* kind =
      events.empty() ? nullptr : events.front().find("event");
  if (kind == nullptr || kind->kind() != util::Json::Kind::kString ||
      kind->asString() != "begin") {
    std::fprintf(stderr, "replay: recording does not start with a begin "
                         "event\n");
    return 1;
  }
  const util::Json& begin = events.front();
  const LoadedScenario loaded = LoadScenario(replay_dir);
  const util::Json* hash = begin.find("scenario_hash");
  if (hash == nullptr || hash->asUint() != loaded.content_hash) {
    std::fprintf(stderr,
                 "replay: scenario fingerprint mismatch (recorded %llu, %s "
                 "has %llu) — wrong or modified scenario directory\n",
                 static_cast<unsigned long long>(
                     hash != nullptr ? hash->asUint() : 0),
                 replay_dir.c_str(),
                 static_cast<unsigned long long>(loaded.content_hash));
    return 1;
  }
  const util::Json* options_json = begin.find("options");
  const util::Json recorded_options =
      options_json != nullptr ? *options_json : util::Json{};
  repair::RepairOptions options = ops::repairOptionsFromJson(recorded_options);
  const util::Json normalised_options = ops::repairOptionsJson(options);
  // The begin event is compared with its options normalised through this
  // build's codec, so a key that an older build recorded and this one no
  // longer reads is reported instead of failing the replay. Every later
  // event must still match byte for byte: a behavioural difference fails.
  if (recorded_options.isObject()) {
    std::string ignored;
    for (const auto& [key, value] : recorded_options.asObject()) {
      if (normalised_options.find(key) != nullptr) continue;
      ignored += (ignored.empty() ? "" : ", ") + key;
    }
    if (!ignored.empty()) {
      std::fprintf(stderr,
                   "replay: ignoring recorded option(s) this build does not "
                   "read: %s\n",
                   ignored.c_str());
    }
  }
  util::Json expected_begin = begin;
  expected_begin.set("options", normalised_options);
  const std::size_t first_newline = text.find('\n');
  const std::string expected =
      expected_begin.str() + '\n' +
      (first_newline == std::string::npos ? std::string()
                                          : text.substr(first_newline + 1));

  obs::FlightRecorder replay;
  replay.beginRepair(loaded.scenario.name, loaded.content_hash,
                     loaded.content_bytes, normalised_options);
  options.recorder = &replay;
  (void)ops::repairScenario(loaded.scenario, options, false);
  if (replay.text() == expected) {
    std::printf("replay: OK — %zu event(s) reproduced byte-identically\n",
                replay.lines().size());
    return 0;
  }
  // Point at the first diverging line so a mismatch is debuggable.
  std::size_t line = 0;
  for (; line < events.size() && line < replay.lines().size(); ++line) {
    const std::string recorded =
        line == 0 ? expected_begin.str() : events[line].str();
    if (recorded != replay.lines()[line]) break;
  }
  std::fprintf(stderr,
               "replay: MISMATCH at event %zu (recorded %zu, replay produced "
               "%zu event(s)) — recording does not reproduce\n",
               line, events.size(), replay.lines().size());
  return 1;
}

int cmdTolerance(const Args& args) {
  if (args.positional.empty()) usage("tolerance requires a scenario directory");
  const Scenario scenario = loadScenario(args.positional);
  verify::FailureToleranceOptions options;
  options.max_link_failures = args.number("k", 1);
  const verify::FailureToleranceReport report =
      verify::verifyUnderFailures(scenario.network(), scenario.intents, options);
  std::printf("%d failure scenario(s) checked%s, %zu violating\n",
              report.scenarios_checked, report.truncated ? " (truncated)" : "",
              report.violations.size());
  for (const auto& violation : report.violations) {
    std::printf("  %s\n", violation.str().c_str());
    for (const auto& test : violation.failures) {
      std::printf("    %s -- %s\n",
                  scenario.intents[test.test.intent_index].str().c_str(),
                  test.reason.c_str());
    }
  }
  const auto spofs = report.singlePointsOfFailure();
  if (!spofs.empty()) {
    std::printf("single points of failure:\n");
    for (const auto& link : spofs) std::printf("  %s\n", link.c_str());
  }
  return report.ok() ? 0 : 1;
}

int cmdCampaign(const Args& args) {
  maybeEnableTracing(args);
  CampaignOptions options;
  options.incidents = args.number("incidents", 50);
  options.seed = args.number<std::uint64_t>("seed", 42);
  options.jobs = args.number("jobs", 0);  // 0 = hardware threads
  const CampaignResult campaign = runCampaign(options);
  std::printf("%zu incidents, %d repaired (%d worker(s))\n",
              campaign.records.size(), campaign.repairedCount(),
              util::resolveJobs(options.jobs));
  for (const auto& record : campaign.records) {
    std::printf("  [%s] %-14s %-52s -> %s (%d iters, %.1f ms)\n",
                record.repair.success ? "ok" : "!!",
                record.scenario.c_str(), record.description.c_str(),
                repair::terminationName(record.repair.termination).c_str(),
                record.repair.iterations, record.repair.elapsed_ms);
  }
  maybeDumpMetrics(args);
  return campaign.repairedCount() == static_cast<int>(campaign.records.size())
             ? 0
             : 1;
}

// ---------------------------------------------------------------------------
// remote — client for an acrd daemon (docs/service.md wire protocol)
// ---------------------------------------------------------------------------

/// Prints the failure of a non-ok response and returns exit code 1.
int remoteFailure(const service::Json& response) {
  const service::Json* error = response.find("error");
  std::fprintf(stderr, "error: %s\n",
               error != nullptr ? error->asString().c_str()
                                : "request failed");
  if (const service::Json* retry = response.find("retry_after_ms")) {
    std::fprintf(stderr, "retry after %lld ms\n",
                 static_cast<long long>(retry->asInt()));
  }
  return 1;
}

/// Prints a finished job's output verbatim and exits with the job's own
/// exit code, so `remote submit --wait` scripts exactly like offline runs.
int printJobResult(const service::Json& response) {
  if (const service::Json* output = response.find("output")) {
    std::fputs(output->asString().c_str(), stdout);
  }
  const service::Json* exit_code = response.find("exit");
  return exit_code != nullptr ? static_cast<int>(exit_code->asInt(1)) : 1;
}

int cmdRemote(int argc, char** argv) {
  if (argc < 3) {
    usage("remote requires a verb (submit|status|result|cancel|stats|shutdown)");
  }
  const std::string verb = argv[2];
  FlagSpec spec{{"host", "port"}, {}};
  if (verb == "submit") {
    spec.value_flags.insert({"command", "seed", "metric", "priority", "retries",
                             "retry-budget-ms"});
    spec.bool_flags.insert({"report", "wait"});
  } else if (verb == "result") {
    spec.bool_flags.insert("wait");
  } else if (verb != "status" && verb != "cancel" && verb != "stats" &&
             verb != "shutdown") {
    usage(("unknown remote verb '" + verb + "'").c_str());
  }
  const Args args = parseArgs(argc, argv, 3, spec);
  if (!args.has("port")) usage("remote requires --port P");
  const int port = args.number("port", 0);

  service::Json request;
  request.set("op", verb);
  if (verb == "submit") {
    if (args.positional.empty()) {
      usage("remote submit requires a scenario directory");
    }
    request.set("dir", args.positional);
    request.set("command", args.get("command", "repair"));
    if (args.has("metric")) {
      metricByName(args.get("metric"));  // typos fail locally with exit 2
      request.set("metric", args.get("metric"));
    }
    if (args.has("seed")) {
      request.set("seed", args.number<std::uint64_t>("seed", 1));
    }
    if (args.has("priority")) {
      request.set("priority", args.number("priority", 0));
    }
    if (args.has("report")) request.set("report", true);
    if (args.has("wait")) request.set("wait", true);
  } else if (verb == "status" || verb == "result" || verb == "cancel") {
    if (args.positional.empty()) {
      usage(("remote " + verb + " requires a job id").c_str());
    }
    request.set("id", parseNumber<std::uint64_t>(args.positional, "job id"));
    if (args.has("wait")) request.set("wait", true);
  }

  service::Client client(args.get("host", "127.0.0.1"), port);
  service::Json response = client.call(request);
  if (verb == "submit") {
    // Honor the daemon's backpressure hint: a rejection carrying
    // retry_after_ms means "try again shortly", so retry with bounded
    // exponential backoff (hint × 2^attempt, plus jitter so a herd of
    // rejected clients does not re-arrive in lockstep) until the retry
    // count or the wall-clock budget runs out.
    const int max_retries = args.number("retries", 5);
    const auto budget_ms = args.number<long long>("retry-budget-ms", 10000);
    long long slept_ms = 0;
    std::mt19937_64 rng(std::random_device{}());
    for (int attempt = 0; attempt < max_retries; ++attempt) {
      const service::Json* ok = response.find("ok");
      if (ok != nullptr && ok->asBool()) break;
      const service::Json* retry = response.find("retry_after_ms");
      if (retry == nullptr) break;  // a real error, not backpressure
      const long long hint = retry->asInt(0) > 0 ? retry->asInt() : 1;
      long long delay = hint << attempt;
      delay += static_cast<long long>(
          std::uniform_int_distribution<std::uint64_t>(0, hint / 2 + 1)(rng));
      if (slept_ms + delay > budget_ms) break;
      std::fprintf(stderr,
                   "acrctl: queue full, retrying in %lld ms "
                   "(attempt %d/%d)\n",
                   delay, attempt + 1, max_retries);
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      slept_ms += delay;
      response = client.call(request);
    }
  }
  const service::Json* ok = response.find("ok");
  if (ok == nullptr || !ok->asBool()) return remoteFailure(response);

  if (verb == "submit" && !args.has("wait")) {
    const service::Json* id = response.find("id");
    std::printf("job %llu queued\n",
                static_cast<unsigned long long>(
                    id != nullptr ? id->asUint() : 0));
    return 0;
  }
  if (verb == "submit" || verb == "result") return printJobResult(response);
  if (verb == "status") {
    const service::Json* status = response.find("status");
    std::printf("%s\n",
                status != nullptr ? status->asString().c_str() : "unknown");
    return 0;
  }
  if (verb == "cancel") {
    std::puts("cancelled");
    return 0;
  }
  if (verb == "shutdown") {
    std::puts("acrd draining");
    return 0;
  }
  // stats: dump the response JSON verbatim for scripts to parse.
  std::printf("%s\n", response.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  try {
    if (command == "remote") return cmdRemote(argc, argv);
    const std::set<std::string> known = {
        "export",   "inject",    "verify",   "triage",     "repair",
        "explain",  "tolerance", "campaign", "list-faults"};
    if (known.count(command) == 0) {
      usage(("unknown command '" + command + "'").c_str());
    }
    const Args args = parseArgs(argc, argv, 2, specFor(command));
    if (command == "export") return cmdExport(args);
    if (command == "inject") return cmdInject(args);
    if (command == "verify") return cmdVerify(args);
    if (command == "triage") return cmdTriage(args);
    if (command == "repair") return cmdRepair(args);
    if (command == "explain") return cmdExplain(args);
    if (command == "tolerance") return cmdTolerance(args);
    if (command == "campaign") return cmdCampaign(args);
    return cmdListFaults();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
