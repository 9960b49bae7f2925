// Seeded incident corpora for the end-to-end benchmark's workloads.
//
// Every workload is a list of incidents generated from the workload seed
// before timing starts: a scenario, the faulty network, the intents, and
// the repair seed the engine is run with. Incident i draws only from the
// (seed, i) RNG streams, exactly like core/campaign.cpp's runIncident, so
// the `table1` corpus is the incident stream runCampaign samples for the
// same seed and incident count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scenarios.hpp"
#include "faultinject/faults.hpp"

namespace e2e {

enum class Workload { kTable1, kFabric, kCompound, kServe };

/// Parses a workload name; returns false when unknown.
bool workloadByName(const std::string& name, Workload* out);
[[nodiscard]] const char* workloadName(Workload workload);
[[nodiscard]] inline bool isOffline(Workload workload) {
  return workload != Workload::kServe;
}

struct Incident {
  int index = 0;  // campaign incident index (its RNG stream pair)
  std::vector<acr::inject::FaultType> types;  // one, or two for compound
  std::string fault_class;  // per-class key of the structure fingerprint
  std::string description;
  /// The faulty network is `scenario.built.network`, so the whole scenario
  /// can be serialized as an operator's scenario directory.
  acr::Scenario scenario;
  std::uint64_t repair_seed = 1;
};

/// Wall-clock of one corpus build, split by the layer doing the work.
struct SetupTimes {
  double scenario_ms = 0;  // core/topo: scenario generation + intents
  double inject_ms = 0;    // faultinject
  double detect_ms = 0;    // verify: the detection verify of each injection
};

struct Corpus {
  std::vector<Incident> incidents;
  SetupTimes times;
};

/// Generates the workload's corpus for `seed`: the first `size` incidents
/// of its stream. An index whose every attempt was masked is skipped, as
/// runCampaign drops it. serve replays the table1 stream. Throws when the
/// stream yields too few incidents.
[[nodiscard]] Corpus buildCorpus(Workload workload, std::uint64_t seed,
                                 int size);

}  // namespace e2e
