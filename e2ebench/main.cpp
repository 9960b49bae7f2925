// e2ebench: end-to-end benchmark of the localize-fix-validate loop.
//
//   e2ebench --workload table1|fabric|compound|serve --seed N --seconds S
//            --trace 0|1
//
// Generates the workload's incidents from the seed, sets up (and warms up),
// measures closed-loop passes over the corpus with further set-ups timed
// between them, checks every repair, and prints one JSON object as the
// last line of stdout. With
// --trace 0 it reports the end-to-end metrics; with --trace 1 it reports
// the per-layer metrics (spans, stage histograms, counters, ablations).
// README.md in this directory defines every metric and workload.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/ops.hpp"
#include "core/serialization.hpp"
#include "corpus.hpp"
#include "obs/trace.hpp"
#include "repair/engine.hpp"
#include "serve.hpp"
#include "spans.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "verify/verifier.hpp"

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;
namespace util = acr::util;

double msSince(Clock::time_point started) {
  return std::chrono::duration<double, std::milli>(Clock::now() - started)
      .count();
}

// ---- run shape --------------------------------------------------------

/// Incidents per second of --seconds on the reference machine (4-core
/// x86-64 VM, Release build), passes over the corpus (at least 2), and
/// set-ups (setup_s is their median). The corpus holds rate x seconds /
/// passes incidents. The work is a function of (workload, seed, seconds)
/// only: two commits measured with the same arguments repair exactly the
/// same incidents.
struct Shape {
  double rate;
  int passes;
  int setups;
};

Shape shapeOf(Workload workload) {
  switch (workload) {
    case Workload::kTable1: return {240, 6, 7};
    case Workload::kFabric: return {50, 5, 5};
    // Not in BENCHMARK.json (README.md says why): its p90 and throughput
    // sit in a sparse tail that the corpus's mix of fault pairs moves.
    case Workload::kCompound: return {200, 4, 5};
    case Workload::kServe: return {400, 20, 9};
  }
  return {1, 2, 1};
}

constexpr int kMinIncidents = 100;   // p90 keeps >= 10 samples beyond it
constexpr int kWarmupIncidents = 4;  // repaired/served during each setup
constexpr int kServeClients = 4;
constexpr int kServeWorkers = 2;
/// The serve snapshot cache holds this many of the largest scenarios: room
/// for every in-flight verify -> repair pair, far too little for a corpus,
/// so an incident's verify misses (unless an identical scenario was just
/// served) and its repair hits.
constexpr int kServeCacheScenarios = 8;
/// The table1 prefix cross-checked against runCampaign's records (or the
/// whole corpus, when it is shorter).
constexpr int kCampaignCheckIncidents = 240;
/// Every k-th serve incident is re-run offline and compared byte for byte.
constexpr int kServeTextStride = 8;
/// The traced pass covers the corpus's first quarter (at least
/// kMinIncidents); the ablations pair up the first half of those.
constexpr int kTraceShare = 4;

struct Args {
  Workload workload = Workload::kTable1;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work_dir = ".bench_work";  // under the current directory
};

bool parseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      have_workload = workloadByName(value, &args->workload);
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0' && value[0] != '-';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && args->seconds > 0 &&
                     args->seconds <= 3600;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

// ---- outcomes and statistics -------------------------------------------

/// One incident's result, as the correctness gate and the metrics need it.
struct Outcome {
  double ms = 0;
  bool repaired = false;  // false = a failed operation
  int iterations = 0;
  std::uint64_t validations = 0;
  std::vector<std::string> changes;
  /// Offline, first pass: tests a fresh, non-incremental verifier fails on
  /// the repaired network, checked right after the repair and outside its
  /// time; the network itself is not kept.
  int failing_after = 0;
  ServeReply reply;  // serve: what the service answered
};

/// Nearest-rank percentile. Failed incidents rank above every repaired one
/// (they miss any latency limit) and read as the slowest time measured.
double percentile(const std::vector<Outcome>& outcomes, double q) {
  double slowest = 0;
  for (const auto& o : outcomes) slowest = std::max(slowest, o.ms);
  std::vector<double> values;
  values.reserve(outcomes.size());
  for (const auto& o : outcomes) values.push_back(o.repaired ? o.ms : slowest);
  std::sort(values.begin(), values.end());
  if (values.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

struct PassStats {
  int attempted = 0;
  int failed = 0;
  double elapsed_s = 0;
  double p50_ms = 0;
  double p90_ms = 0;

  [[nodiscard]] double repairsPerSecond() const {
    return elapsed_s > 0 ? (attempted - failed) / elapsed_s : 0;
  }
  [[nodiscard]] double repairRate() const {
    return attempted > 0 ? static_cast<double>(attempted - failed) / attempted
                         : 0;
  }
};

PassStats summarize(const std::vector<Outcome>& outcomes, double elapsed_s) {
  PassStats stats;
  stats.attempted = static_cast<int>(outcomes.size());
  for (const auto& o : outcomes) stats.failed += o.repaired ? 0 : 1;
  stats.elapsed_s = elapsed_s;
  stats.p50_ms = percentile(outcomes, 0.50);
  stats.p90_ms = percentile(outcomes, 0.90);
  return stats;
}

// ---- setup ---------------------------------------------------------------

/// Everything the timed phase needs, built before timing starts.
struct Prepared {
  Corpus corpus;
  std::vector<std::string> dirs;  // serve: one scenario directory each
  std::unique_ptr<ServeRig> rig;  // serve: the running service
  double setup_s = 0;
};

/// serve's scenario directories, written once per run from the first
/// set-up's corpus (every set-up builds the same one) and kept out of
/// setup_s: creating a file costs this host's disk anywhere from 0.03 to
/// 0.6 ms depending on its cache state, which would swamp the set-up's
/// own time.
struct ServeFiles {
  std::vector<std::string> dirs;
  std::uint64_t cache_bytes = 0;
  double serialize_ms = 0;
};

void writeServeFiles(const Args& args, const Corpus& corpus,
                     ServeFiles* files) {
  const auto started = Clock::now();
  const fs::path root = fs::path(args.work_dir) / "serve";
  // Cache budget from each scenario family's first directory; faults
  // change a family's size by a few lines at most.
  std::map<std::string, std::uint64_t> family_bytes;
  for (const auto& incident : corpus.incidents) {
    const fs::path dir = root / std::to_string(incident.index);
    acr::saveScenario(incident.scenario, dir.string());
    files->dirs.push_back(dir.string());
    if (family_bytes.count(incident.scenario.name) == 0) {
      family_bytes[incident.scenario.name] =
          acr::fingerprintScenarioDir(dir.string()).bytes;
    }
  }
  for (const auto& [name, bytes] : family_bytes) {
    files->cache_bytes =
        std::max<std::uint64_t>(files->cache_bytes, bytes * kServeCacheScenarios);
  }
  files->serialize_ms = msSince(started);
}

acr::repair::RepairOptions repairOptionsFor(const Incident& incident) {
  acr::repair::RepairOptions options;  // runCampaign's defaults
  options.seed = incident.repair_seed;
  return options;
}

std::unique_ptr<Prepared> prepare(const Args& args, int size,
                                  ServeFiles* files) {
  const auto started = Clock::now();
  auto prepared = std::make_unique<Prepared>();
  prepared->corpus = buildCorpus(args.workload, args.seed, size);
  const auto& incidents = prepared->corpus.incidents;
  const std::size_t warmup =
      std::min<std::size_t>(kWarmupIncidents, incidents.size());

  double untimed_ms = 0;
  if (args.workload == Workload::kServe) {
    if (files->dirs.empty()) {
      writeServeFiles(args, prepared->corpus, files);
      untimed_ms = files->serialize_ms;
    }
    prepared->dirs = files->dirs;
    prepared->rig = std::make_unique<ServeRig>(kServeWorkers,
                                               files->cache_bytes,
                                               kServeClients);
    // Warm up on the corpus's last incidents: by the time the pass reaches
    // them the small cache has long evicted these entries.
    for (std::size_t i = 0; i < warmup; ++i) {
      const std::size_t at = incidents.size() - 1 - i;
      (void)serveIncident(prepared->rig->client(0), prepared->dirs[at],
                          incidents[at].repair_seed);
    }
  } else {
    for (std::size_t i = 0; i < warmup; ++i) {
      const Incident& incident = incidents[incidents.size() - 1 - i];
      (void)acr::repair::AcrEngine(incident.scenario.intents,
                                   repairOptionsFor(incident))
          .repair(incident.scenario.network());
    }
  }
  prepared->setup_s = (msSince(started) - untimed_ms) / 1000.0;
  return prepared;
}

// ---- timed passes ----------------------------------------------------------

using OptionsEdit = void (*)(acr::repair::RepairOptions&);

/// One AcrEngine::repair call on `incident`, timed. With `verify`, a fresh
/// verifier then re-checks the repaired network, untimed.
Outcome repairOne(const Incident& incident, OptionsEdit edit,
                  bool verify = false) {
  acr::repair::RepairOptions options = repairOptionsFor(incident);
  if (edit != nullptr) edit(options);
  const auto started = Clock::now();
  acr::repair::RepairResult result;
  {
    const acr::obs::Span span("e2e.incident");
    result = acr::repair::AcrEngine(incident.scenario.intents, options)
                 .repair(incident.scenario.network());
  }
  Outcome out;
  out.ms = msSince(started);
  out.repaired = result.success &&
                 result.termination == acr::repair::Termination::kRepaired;
  out.iterations = result.iterations;
  out.validations = result.validations;
  out.changes = std::move(result.changes);
  if (verify && out.repaired) {
    const acr::verify::Verifier verifier(incident.scenario.intents);
    out.failing_after = verifier.verify(result.repaired).tests_failed;
  }
  return out;
}

/// Repairs incidents [0, count) sequentially and returns their outcomes
/// plus the pass's wall-clock, less the time `verify` spent re-checking.
std::vector<Outcome> offlinePass(const Corpus& corpus, std::size_t count,
                                 OptionsEdit edit, bool verify,
                                 double* elapsed_s) {
  std::vector<Outcome> outcomes;
  outcomes.reserve(count);
  double checking_ms = 0;
  const auto started = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    const auto before = Clock::now();
    outcomes.push_back(repairOne(corpus.incidents[i], edit, verify));
    checking_ms += msSince(before) - outcomes.back().ms;
  }
  *elapsed_s = (msSince(started) - checking_ms) / 1000.0;
  return outcomes;
}

/// Repairs incidents [0, count) twice each, with and without `edit`,
/// alternating which runs first, so both sides of a pair meet the same
/// moment of the host's speed drift.
std::pair<std::vector<Outcome>, std::vector<Outcome>> pairedPass(
    const Corpus& corpus, std::size_t count, OptionsEdit edit) {
  std::vector<Outcome> plain(count), edited(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Incident& incident = corpus.incidents[i];
    if (i % 2 == 0) {
      plain[i] = repairOne(incident, nullptr);
      edited[i] = repairOne(incident, edit);
    } else {
      edited[i] = repairOne(incident, edit);
      plain[i] = repairOne(incident, nullptr);
    }
  }
  return {std::move(plain), std::move(edited)};
}

const std::regex& summaryPattern() {
  static const std::regex pattern(
      R"(^(\S+): \d+ -> \d+ failing tests in (\d+) iteration\(s\), (\d+) validation\(s\))");
  return pattern;
}

/// Serves incidents [0, count) from kServeClients closed-loop clients; each
/// client takes the next unserved incident when its previous one returns.
std::vector<Outcome> servePass(Prepared& prepared, std::size_t count,
                               double* elapsed_s) {
  std::vector<Outcome> outcomes(count);
  std::atomic<std::size_t> next{0};
  const auto started = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < prepared.rig->clients(); ++c) {
    clients.emplace_back([&, c] {
      acr::service::Client& client = prepared.rig->client(c);
      for (std::size_t i = next.fetch_add(1); i < count;
           i = next.fetch_add(1)) {
        const acr::obs::Span span("e2e.incident");
        Outcome& out = outcomes[i];
        try {
          out.reply = serveIncident(client, prepared.dirs[i],
                                    prepared.corpus.incidents[i].repair_seed);
        } catch (const std::exception& error) {
          out.reply.error = error.what();
        }
        out.ms = out.reply.ttr_ms;
        std::smatch match;
        if (out.reply.answered &&
            std::regex_search(out.reply.repair_text, match, summaryPattern())) {
          out.repaired = out.reply.repair_exit == 0 && match[1] == "repaired";
          out.iterations = std::stoi(match[2]);
          out.validations = std::stoull(match[3]);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  *elapsed_s = msSince(started) / 1000.0;
  return outcomes;
}

std::vector<Outcome> runPass(Prepared& prepared, Workload workload,
                             std::size_t count, double* elapsed_s,
                             bool verify = false) {
  return workload == Workload::kServe
             ? servePass(prepared, count, elapsed_s)
             : offlinePass(prepared.corpus, count, nullptr, verify, elapsed_s);
}

// ---- correctness gate -----------------------------------------------------

/// Collects gate failures; the run is correct when none were recorded.
struct Gate {
  int count = 0;
  std::vector<std::string> failures;  // the first 20, for the log

  void check(bool ok, const std::string& what) {
    if (ok) return;
    ++count;
    if (failures.size() < 20) failures.push_back(what);
  }
};

/// The per-workload structure fingerprint: per-class attempted/repaired,
/// total iterations and validations. A pure function of (workload, seed,
/// corpus size) for one build: two runs of it must print the same line.
std::string fingerprint(const Corpus& corpus,
                        const std::vector<Outcome>& outcomes) {
  std::map<std::string, std::pair<int, int>> classes;
  long iterations = 0;
  std::uint64_t validations = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    auto& [attempted, repaired] = classes[corpus.incidents[i].fault_class];
    ++attempted;
    repaired += outcomes[i].repaired ? 1 : 0;
    iterations += outcomes[i].iterations;
    validations += outcomes[i].validations;
  }
  std::string out = "iterations=" + std::to_string(iterations) +
                    " validations=" + std::to_string(validations);
  for (const auto& [name, counts] : classes) {
    out += "; " + name + " " + std::to_string(counts.second) + "/" +
           std::to_string(counts.first);
  }
  return out;
}

/// The same incidents, repaired again, must reach the same verdicts by the
/// same search: repair outcome, iteration and validation counts, changes.
void checkSameSearch(Gate& gate, const std::vector<Outcome>& reference,
                     const std::vector<Outcome>& again, const char* what) {
  for (std::size_t i = 0; i < again.size() && i < reference.size(); ++i) {
    const bool same = reference[i].repaired == again[i].repaired &&
                      reference[i].iterations == again[i].iterations &&
                      reference[i].validations == again[i].validations &&
                      reference[i].changes == again[i].changes;
    gate.check(same, std::string(what) + ": incident " + std::to_string(i) +
                         " searched differently");
  }
}

/// Drops "<number> ms" fields, the only bytes allowed to differ between
/// the service's and the offline rendering.
std::string withoutMs(const std::string& text) {
  static const std::regex ms(R"([0-9]+(\.[0-9]+)? ?ms\b)");
  return std::regex_replace(text, ms, "ms");
}

void checkOutcomes(Gate& gate, const Args& args, Prepared& prepared,
                   const std::vector<Outcome>& outcomes) {
  const auto& incidents = prepared.corpus.incidents;
  if (isOffline(args.workload)) {
    // A fresh, non-incremental verifier passed every repaired network.
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      gate.check(outcomes[i].failing_after == 0,
                 "incident " + std::to_string(i) + ": " +
                     std::to_string(outcomes[i].failing_after) +
                     " tests fail after repair");
    }
  } else {
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const ServeReply& reply = outcomes[i].reply;
      gate.check(reply.error.empty(),
                 "incident " + std::to_string(i) + ": " + reply.error);
      if (!reply.answered || i % kServeTextStride != 0) continue;
      // The served bytes must be exactly what the offline path prints for
      // the same scenario directory and repair seed.
      const acr::Scenario loaded = acr::LoadScenario(prepared.dirs[i]).scenario;
      const acr::ops::VerifyOutcome verify = acr::ops::verifyScenario(loaded);
      gate.check(reply.verify_text == verify.text &&
                     reply.verify_exit == (verify.ok ? 0 : 1),
                 "incident " + std::to_string(i) + ": verify text differs");
      const acr::ops::RepairOutcome repair =
          acr::ops::repairScenario(loaded, repairOptionsFor(incidents[i]));
      gate.check(withoutMs(reply.repair_text) == withoutMs(repair.text) &&
                     reply.repair_exit == (repair.result.success ? 0 : 1),
                 "incident " + std::to_string(i) + ": repair text differs");
    }
  }

  if (args.workload == Workload::kTable1) {
    // The corpus is runCampaign's incident stream for the seed.
    acr::CampaignOptions campaign;
    campaign.seed = args.seed;
    campaign.jobs = 1;
    // Incident k has index >= k, so every index below the corpus size that
    // yields an incident is in the corpus.
    campaign.incidents = std::min(kCampaignCheckIncidents,
                                  static_cast<int>(incidents.size()));
    const acr::CampaignResult result = acr::runCampaign(campaign);
    std::size_t matched = 0;
    for (std::size_t i = 0; i < incidents.size() && i < outcomes.size() &&
                            incidents[i].index < campaign.incidents;
         ++i, ++matched) {
      const bool same =
          matched < result.records.size() &&
          result.records[matched].type == incidents[i].types.front() &&
          result.records[matched].description == incidents[i].description &&
          result.records[matched].repair.iterations ==
              outcomes[i].iterations &&
          result.records[matched].repair.success == outcomes[i].repaired;
      gate.check(same, "incident " + std::to_string(i) +
                           " differs from runCampaign's record");
    }
    gate.check(matched == result.records.size(),
               "runCampaign produced " +
                   std::to_string(result.records.size()) +
                   " records, corpus prefix has " + std::to_string(matched));
  }
}

// ---- reporting -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string number(double value) {
  if (!std::isfinite(value)) value = 0;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void printResult(bool correct, int attempted, int failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i > 0 ? ", " : "") + std::string("\"") + metrics[i].name +
           "\": {\"value\": " + number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Restarts the process's high-water RSS (VmHWM) from its current RSS.
void resetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// A "<field>: <n> kB" line of /proc/self/status, in MB (0 if absent).
double statusMb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  return 0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

/// Percentile q of `edited` over that of `plain` (paired passes).
double percentileRatio(const std::vector<Outcome>& edited,
                       const std::vector<Outcome>& plain, double q) {
  const double denominator = percentile(plain, q);
  return denominator > 0 ? percentile(edited, q) / denominator : 0;
}

double summedMs(const std::vector<Outcome>& outcomes) {
  double sum = 0;
  for (const auto& o : outcomes) sum += o.ms;
  return sum;
}

// ---- per-layer (traced) metrics ----------------------------------------

double counterOf(const util::Json& registry, const std::string& name) {
  const util::Json* counters = registry.find("counters");
  const util::Json* value = counters != nullptr ? counters->find(name) : nullptr;
  return value != nullptr ? value->asNumber() : 0;
}

double histogramField(const util::Json& registry, const std::string& name,
                      const char* field) {
  const util::Json* histograms = registry.find("histograms");
  const util::Json* h = histograms != nullptr ? histograms->find(name) : nullptr;
  const util::Json* value = h != nullptr ? h->find(field) : nullptr;
  return value != nullptr ? value->asNumber() : 0;
}

double ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

/// Set-up times of every repetition, by layer.
struct SetupSeries {
  std::vector<double> total_s, scenario_ms, inject_ms, detect_ms;
  double serialize_ms = 0;  // serve: written once, outside total_s
};

/// The --trace 1 half of a run: a traced pass over the corpus's first
/// share, bracketed by untraced passes for the tracing overhead, then the
/// paired ablation passes. `outcomes` is the first untraced pass.
std::vector<Metric> tracedMetrics(const Args& args, Prepared& prepared,
                                  const std::vector<Outcome>& outcomes,
                                  const SetupSeries& setup, Gate& gate) {
  const std::size_t count = outcomes.size();
  util::MetricsRegistry& registry = util::MetricsRegistry::global();
  const std::size_t traced_count = std::min(
      count, std::max<std::size_t>(kMinIncidents, count / kTraceShare));
  // Untraced passes over the same incidents right before and after the
  // traced one are the baseline of the tracing overhead.
  double untraced_s = 0;
  const double before_ms = summedMs(
      runPass(prepared, args.workload, traced_count, &untraced_s));
  acr::obs::Tracer& tracer = acr::obs::Tracer::global();
  tracer.clear();
  registry.reset();
  tracer.setEnabled(true);
  double traced_s = 0;
  const std::vector<Outcome> traced =
      runPass(prepared, args.workload, traced_count, &traced_s);
  tracer.setEnabled(false);
  const std::vector<acr::obs::SpanRecord> spans = tracer.collect();
  const util::Json reg =
      util::Json::parse(registry.renderJson()).value_or(util::Json{});
  const double after_ms = summedMs(
      runPass(prepared, args.workload, traced_count, &untraced_s));
  checkSameSearch(gate, outcomes, traced, "traced pass");
  {
    std::ofstream out(fs::path(args.work_dir) /
                      (std::string(workloadName(args.workload)) + "-" +
                       std::to_string(args.seed) + ".trace.json"));
    out << tracer.renderChromeJson();
  }
  tracer.clear();

  const std::map<std::string, SpanTotals> by_name = spanTotals(spans);
  const auto self = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second.self_ms;
  };
  const auto spanCount = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const double n = static_cast<double>(traced_count);
  const auto perIncident = [&](const char* histogram) {
    return histogramField(reg, histogram, "sum_ms") / n;
  };

  // Repair time: the benchmark's clock around each engine call
  // offline; the engine's own `repair` span inside serve jobs.
  double repair_ms = 0;
  if (isOffline(args.workload)) {
    for (const auto& o : traced) repair_ms += o.ms;
    repair_ms /= n;
  } else {
    const auto it = by_name.find("repair");
    repair_ms = it == by_name.end() ? 0 : it->second.total_ms / n;
  }
  const double stages[] = {
      perIncident("repair.localize.sim_ms"),
      perIncident("repair.localize.suite_ms"),
      perIncident("repair.localize.rank_ms"),
      perIncident("repair.fix_ms"),
      perIncident("repair.validate_ms"),
  };
  double stage_sum = 0;
  for (const double s : stages) stage_sum += s;
  const double other_ms = repair_ms - stage_sum;
  if (isOffline(args.workload)) {
    gate.check(other_ms >= 0, "stage times exceed repair time");
  }

  double iterations = 0, validations = 0;
  for (const auto& o : traced) {
    iterations += o.iterations;
    validations += static_cast<double>(o.validations);
  }
  double tree_fallbacks = 0;
  if (const util::Json* counters = reg.find("counters")) {
    for (const auto& [name, value] : counters->asObject()) {
      if (name.rfind("sim.tree.fallback.", 0) == 0) {
        tree_fallbacks += value.asNumber();
      }
    }
  }
  double roundtrip_ms = 0;
  for (const auto& o : traced) {
    roundtrip_ms += o.reply.verify_ms + o.reply.repair_ms;
  }
  const double requests = spanCount("service.request");

  // Tracing overhead: the traced pass's summed time-to-repair over the
  // mean of its untraced neighbours', minus one.
  const double untraced_ms = (before_ms + after_ms) / 2;

  std::vector<Metric> metrics = {
      {"setup.scenario_ms", median(setup.scenario_ms), "ms"},
      {"setup.inject_ms", median(setup.inject_ms), "ms"},
      {"setup.detect_ms", median(setup.detect_ms), "ms"},
      {"setup.serialize_ms", setup.serialize_ms, "ms"},
      {"repair.repair_ms", repair_ms, "ms"},
      {"repair.other_ms", other_ms, "ms"},
      {"repair.iterations_per_repair", iterations / n, "count"},
      {"repair.validations_per_repair", validations / n, "count"},
      {"repair.candidates_discarded",
       counterOf(reg, "repair.candidates_discarded"), "count"},
      {"localize.sim_ms", stages[0], "ms"},
      {"localize.suite_ms", stages[1], "ms"},
      {"localize.rank_ms", stages[2], "ms"},
      {"localize.cache.hit_ratio",
       ratio(counterOf(reg, "localize.cache.probe_hits"),
             counterOf(reg, "localize.cache.probe_hits") +
                 counterOf(reg, "localize.cache.probe_misses")),
       "ratio"},
      {"fixgen.fix_ms", stages[3], "ms"},
      {"smt.solve.self_ms", self("smt.solve") / n, "ms"},
      {"symbolic.propose.self_ms", self("symbolic.propose") / n, "ms"},
      {"validate.validate_ms", stages[4], "ms"},
      {"verify.batch_probe.self_ms", self("verify.batch_probe") / n, "ms"},
      {"verify.skip_ratio",
       ratio(counterOf(reg, "verify.tests_skipped"),
             counterOf(reg, "verify.tests_skipped") +
                 counterOf(reg, "verify.tests_reverified")),
       "ratio"},
      {"sim.full.self_ms", self("sim.full") / n, "ms"},
      {"sim.full.count", spanCount("sim.full"), "count"},
      {"sim.tree.leaf.self_ms", self("sim.tree.leaf") / n, "ms"},
      {"sim.tree.node.self_ms", self("sim.tree.node") / n, "ms"},
      {"sim.delta.self_ms", self("sim.delta") / n, "ms"},
      {"sim.tree.fallback_ratio",
       ratio(tree_fallbacks, counterOf(reg, "sim.tree.leaves")), "ratio"},
      {"service.roundtrip_ms", ratio(roundtrip_ms, 2 * n), "ms"},
      {"service.queue_wait_ms",
       histogramField(reg, "service.queue_wait_ms", "mean_ms"), "ms"},
      {"service.job_ms", histogramField(reg, "service.job_ms", "mean_ms"),
       "ms"},
      {"service.request.self_ms",
       ratio(self("service.request"), requests), "ms"},
      {"service.cache.hit_ratio",
       ratio(counterOf(reg, "service.cache_hits"),
             counterOf(reg, "service.cache_hits") +
                 counterOf(reg, "service.cache_misses")),
       "ratio"},
      {"obs.trace_overhead",
       untraced_ms > 0 ? summedMs(traced) / untraced_ms - 1 : 0,
       "ratio"},
  };

  // ---- ablations: one public RepairOptions field flipped each, over the
  // first half of the traced share (each incident runs twice) ----
  double no_incremental = 0, no_batch = 0, symbolic_rate = 0,
         symbolic_p90 = 0;
  if (isOffline(args.workload)) {
    const std::size_t pairs = std::min(
        traced_count,
        std::max<std::size_t>(kMinIncidents / 2, traced_count / 2));
    const auto noIncremental = [](acr::repair::RepairOptions& o) {
      o.use_incremental = false;
    };
    const auto noBatch = [](acr::repair::RepairOptions& o) {
      o.batch_validate = false;
    };
    const auto symbolic = [](acr::repair::RepairOptions& o) {
      o.symbolic = true;
    };
    auto [plain, edited] =
        pairedPass(prepared.corpus, pairs, noIncremental);
    checkSameSearch(gate, outcomes, edited, "use_incremental=false");
    no_incremental = percentileRatio(edited, plain, 0.5);
    std::tie(plain, edited) =
        pairedPass(prepared.corpus, pairs, noBatch);
    checkSameSearch(gate, outcomes, edited, "batch_validate=false");
    no_batch = percentileRatio(edited, plain, 0.5);
    std::tie(plain, edited) = pairedPass(prepared.corpus, pairs, symbolic);
    symbolic_rate = summarize(edited, 0).repairRate();
    symbolic_p90 = percentileRatio(edited, plain, 0.9);
  }
  metrics.push_back(
      {"ablate.no_incremental.ttr_p50_ratio", no_incremental, "ratio"});
  metrics.push_back(
      {"ablate.no_batch_validate.ttr_p50_ratio", no_batch, "ratio"});
  metrics.push_back({"ablate.symbolic.repair_rate", symbolic_rate, "ratio"});
  metrics.push_back(
      {"ablate.symbolic.ttr_p90_ratio", symbolic_p90, "ratio"});
  return metrics;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Args args;
  if (!parseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload table1|fabric|compound|serve "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const Shape shape = shapeOf(args.workload);
  const int size = std::max(
      kMinIncidents,
      static_cast<int>(std::lround(shape.rate * args.seconds / shape.passes)));
  fs::create_directories(args.work_dir);

  try {
    // ---- set-up ----
    // The first set-up is the one the passes use. The other shape.setups -
    // 1 are spread over the timed phase, between passes, and thrown away:
    // their median then samples the same stretch of the host's speed as the
    // passes do, not just its first second.
    SetupSeries setup;
    ServeFiles files;
    fs::remove_all(fs::path(args.work_dir) / "serve");
    const auto setUp = [&] {
      auto prepared = prepare(args, size, &files);
      std::printf("setup %zu: %.3f s (corpus %.0f ms)\n",
                  setup.total_s.size() + 1, prepared->setup_s,
                  prepared->corpus.times.scenario_ms +
                      prepared->corpus.times.inject_ms +
                      prepared->corpus.times.detect_ms);
      setup.total_s.push_back(prepared->setup_s);
      setup.scenario_ms.push_back(prepared->corpus.times.scenario_ms);
      setup.inject_ms.push_back(prepared->corpus.times.inject_ms);
      setup.detect_ms.push_back(prepared->corpus.times.detect_ms);
      return prepared;
    };
    std::unique_ptr<Prepared> prepared = setUp();
    setup.serialize_ms = files.serialize_ms;
    if (!isOffline(args.workload)) {
      std::printf("serve files: %.0f ms\n", files.serialize_ms);
    }
    const std::size_t count = prepared->corpus.incidents.size();

    // ---- the timed, untraced passes ----
    // Offline, each incident's time-to-repair is the fastest of its passes:
    // the host's neighbours only ever slow a call down, and over many short
    // passes every incident meets a moment when none does, so the minimum
    // is the steadiest estimate of what the code costs. Repairs are
    // sequential, so throughput is repaired incidents over the summed
    // fastest times. serve's percentiles and throughput are those of its
    // best pass, each pass a closed loop in which the clients queue for
    // the workers: the queueing stays in, the slow moments of the host
    // drop out.
    util::MetricsRegistry::global().reset();
    resetPeakRss();
    const double setup_rss_mb = statusMb("VmRSS");
    double peak_rss_mb = 0;
    Gate gate;
    std::vector<Outcome> outcomes;  // the first pass's
    std::vector<Outcome> samples;   // offline: each incident's fastest
    PassStats best;                 // serve: each metric's best pass
    for (int pass = 0; pass < shape.passes; ++pass) {
      while (static_cast<int>(setup.total_s.size()) <
             1 + pass * (shape.setups - 1) / (shape.passes - 1)) {
        // The high-water mark of the passes so far; the extra set-up's
        // corpus is not the program's working set.
        peak_rss_mb = std::max(peak_rss_mb, statusMb("VmHWM"));
        setUp().reset();
        resetPeakRss();
      }
      double elapsed_s = 0;
      std::vector<Outcome> again = runPass(*prepared, args.workload, count,
                                           &elapsed_s, /*verify=*/pass == 0);
      std::printf("pass %d: %.3f s\n", pass + 1, elapsed_s);
      const PassStats stats = summarize(again, elapsed_s);
      if (pass == 0) {
        best = stats;
        samples = again;
        outcomes = std::move(again);
        continue;
      }
      checkSameSearch(gate, outcomes, again, "repeated pass");
      best.p50_ms = std::min(best.p50_ms, stats.p50_ms);
      best.p90_ms = std::min(best.p90_ms, stats.p90_ms);
      best.elapsed_s = std::min(best.elapsed_s, stats.elapsed_s);
      for (std::size_t i = 0; i < count; ++i) {
        samples[i].ms = std::min(samples[i].ms, again[i].ms);
      }
    }
    peak_rss_mb = std::max(peak_rss_mb, statusMb("VmHWM"));
    if (isOffline(args.workload)) {
      best = summarize(samples, summedMs(samples) / 1000.0);
    }
    const int attempted = static_cast<int>(count) * shape.passes;
    const int failed = best.failed * shape.passes;

    {
      // Per-incident record of the timed phase (each incident's fastest
      // time), for looking behind the percentiles.
      std::ofstream csv(fs::path(args.work_dir) /
                        (std::string(workloadName(args.workload)) + "-" +
                         std::to_string(args.seed) + ".incidents.csv"));
      csv << "index,scenario,class,ms,repaired,iterations,validations\n";
      for (std::size_t k = 0; k < samples.size(); ++k) {
        const Incident& incident = prepared->corpus.incidents[k];
        csv << incident.index << ',' << incident.scenario.name << ",\""
            << incident.fault_class << "\"," << samples[k].ms << ','
            << samples[k].repaired << ',' << samples[k].iterations << ','
            << samples[k].validations << '\n';
      }
    }

    checkOutcomes(gate, args, *prepared, outcomes);
    std::printf("workload %s seed %llu: %zu incidents x %d pass(es), "
                "%d repaired, setup %.3f s (median of %d), rss %.1f MB "
                "after set-up, %.1f MB peak\n",
                workloadName(args.workload),
                static_cast<unsigned long long>(args.seed), count,
                shape.passes, attempted - failed, median(setup.total_s),
                static_cast<int>(setup.total_s.size()), setup_rss_mb,
                peak_rss_mb);
    std::printf("fingerprint %s\n",
                fingerprint(prepared->corpus, outcomes).c_str());

    std::vector<Metric> metrics;
    if (!args.trace) {
      metrics = {
          {"setup_s", median(setup.total_s), "s"},
          {"ttr_p50_ms", best.p50_ms, "ms"},
          {"ttr_p90_ms", best.p90_ms, "ms"},
          {"repairs_per_s", best.repairsPerSecond(), "1/s"},
          {"repair_rate", best.repairRate(), "ratio"},
          {"peak_rss_mb", peak_rss_mb, "MB"},
      };
    } else {
      metrics = tracedMetrics(args, *prepared, outcomes, setup, gate);
    }

    for (const auto& failure : gate.failures) {
      std::printf("GATE FAILED: %s\n", failure.c_str());
    }
    prepared.reset();
    fs::remove_all(fs::path(args.work_dir) / "serve");
    const bool correct = gate.count == 0;
    printResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "e2ebench: %s\n", error.what());
    return 1;
  }
}
