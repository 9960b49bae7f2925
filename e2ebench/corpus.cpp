#include "corpus.hpp"

#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"
#include "verify/verifier.hpp"

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point started) {
  return std::chrono::duration<double, std::milli>(Clock::now() - started)
      .count();
}

// runCampaign's default sizes and retry budget.
constexpr int kDcnPods = 3;
constexpr int kDcnTors = 2;
constexpr int kBackboneN = 8;
constexpr int kMaxAttempts = 8;

// The fabric workload puts the Table-1 mix on the large generators: the
// DCN families on an 8-pod x 8-ToR fabric, everything else (backbone
// policy faults and figure2's prefix-list faults) on a 24-router backbone.
acr::Scenario scenarioFor(Workload workload, const std::string& family) {
  if (workload == Workload::kFabric) {
    return family == "backbone" ? acr::backboneScenario(24)
                                : acr::dcnScenario(8, 8);
  }
  return acr::scenarioByFamily(family, kDcnPods, kDcnTors, kBackboneN);
}

// One incident from the (seed, index) streams, or nullopt when every
// attempt was masked or found no structure to break (runCampaign drops
// such an index the same way).
std::optional<Incident> makeIncident(Workload workload, std::uint64_t seed,
                                     int index, SetupTimes& times) {
  const auto stream = 2 * static_cast<std::uint64_t>(index);
  acr::inject::FaultInjector injector(acr::util::streamSeed(seed, stream));
  const int faults = workload == Workload::kCompound ? 2 : 1;

  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    std::vector<acr::inject::FaultType> types;
    const acr::inject::FaultType first = injector.sampleType();
    types.push_back(first);

    auto started = Clock::now();
    acr::Scenario scenario =
        scenarioFor(workload, acr::inject::specOf(first).scenario);
    times.scenario_ms += msSince(started);

    // Each fault lands on the network the previous one produced; a second
    // fault is drawn from the same stream and injected into the same
    // scenario. No structure to break means a fresh attempt.
    started = Clock::now();
    std::string description;
    bool injected = true;
    acr::topo::BuiltNetwork built = scenario.built;
    for (int f = 0; f < faults; ++f) {
      const acr::inject::FaultType type = f == 0 ? first : injector.sampleType();
      if (f > 0) types.push_back(type);
      const auto incident = injector.inject(built, type);
      if (!incident) {
        injected = false;
        break;
      }
      built.network = incident->network;
      description += (f > 0 ? " + " : "") + incident->description;
    }
    times.inject_ms += msSince(started);
    if (!injected) continue;

    started = Clock::now();
    const acr::verify::Verifier verifier(scenario.intents);
    const int failing = verifier.verify(built.network).tests_failed;
    times.detect_ms += msSince(started);
    if (failing == 0) continue;  // masked (or a self-masking pair)

    Incident out;
    out.index = index;
    out.types = types;
    for (std::size_t t = 0; t < types.size(); ++t) {
      out.fault_class += (t > 0 ? " & " : "") +
                         acr::inject::faultTypeName(types[t]);
    }
    out.description = std::move(description);
    scenario.built = std::move(built);
    out.scenario = std::move(scenario);
    out.repair_seed = acr::util::streamSeed(seed, stream + 1);
    return out;
  }
  return std::nullopt;
}

}  // namespace

bool workloadByName(const std::string& name, Workload* out) {
  for (const Workload w : {Workload::kTable1, Workload::kFabric,
                           Workload::kCompound, Workload::kServe}) {
    if (name == workloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* workloadName(Workload workload) {
  switch (workload) {
    case Workload::kTable1: return "table1";
    case Workload::kFabric: return "fabric";
    case Workload::kCompound: return "compound";
    case Workload::kServe: return "serve";
  }
  return "?";
}

Corpus buildCorpus(Workload workload, std::uint64_t seed, int size) {
  const Workload stream =
      workload == Workload::kServe ? Workload::kTable1 : workload;
  Corpus corpus;
  for (int index = 0; static_cast<int>(corpus.incidents.size()) < size;
       ++index) {
    if (index >= 2 * size) {
      throw std::runtime_error("seed " + std::to_string(seed) + " yields " +
                               std::to_string(corpus.incidents.size()) +
                               " incidents in " + std::to_string(index) +
                               " draws");
    }
    if (auto incident = makeIncident(stream, seed, index, corpus.times)) {
      corpus.incidents.push_back(std::move(*incident));
    }
  }
  return corpus;
}

}  // namespace e2e
