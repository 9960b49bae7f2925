#include "core/campaign.hpp"

#include <algorithm>
#include <optional>

#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "verify/verifier.hpp"

namespace acr {

int CampaignResult::violatedCount() const {
  int count = 0;
  for (const auto& record : records) {
    if (record.violated) ++count;
  }
  return count;
}

int CampaignResult::repairedCount() const {
  int count = 0;
  for (const auto& record : records) {
    if (record.violated && record.repair.success) ++count;
  }
  return count;
}

namespace {

/// One incident, fully self-contained. Every random draw comes from streams
/// split from (seed, index) — stream 2*index drives fault sampling and
/// injection, stream 2*index+1 drives the repair search — so the returned
/// record is a pure function of (options, index), never of worker count or
/// scheduling order. That is the campaign's determinism contract.
std::optional<IncidentRecord> runIncident(
    const CampaignOptions& options, int index,
    const std::shared_ptr<fix::RepairHistory>& history) {
  util::MetricsRegistry& metrics = util::MetricsRegistry::global();
  inject::FaultInjector injector(
      util::streamSeed(options.seed, 2 * static_cast<std::uint64_t>(index)));

  for (int attempt = 0; attempt < options.max_attempts_per_incident;
       ++attempt) {
    const inject::FaultType type = injector.sampleType();
    const inject::FaultSpec& spec = inject::specOf(type);
    Scenario scenario = scenarioByFamily(spec.scenario, options.dcn_pods,
                                         options.dcn_tors, options.backbone_n);
    const auto incident = injector.inject(scenario.built, type);
    if (!incident) continue;

    const verify::Verifier verifier(scenario.intents);
    const verify::VerifyResult verdict = verifier.verify(
        incident->network, options.repair.samples_per_intent);
    if (verdict.tests_failed == 0) {  // masked by redundancy
      metrics.counter("campaign.masked_attempts").add(1);
      continue;
    }

    IncidentRecord record;
    record.type = type;
    record.scenario = scenario.name;
    record.description = incident->description;
    record.injected_lines = incident->changed_lines;
    record.violated = true;

    repair::RepairOptions repair_options = options.repair;
    repair_options.seed = util::streamSeed(
        options.seed, 2 * static_cast<std::uint64_t>(index) + 1);
    if (history != nullptr) repair_options.history = history;
    const repair::AcrEngine engine(scenario.intents, repair_options);
    record.repair = engine.repair(incident->network);
    return record;
  }
  return std::nullopt;
}

}  // namespace

CampaignResult runCampaign(const CampaignOptions& options) {
  util::MetricsRegistry& metrics = util::MetricsRegistry::global();
  std::shared_ptr<fix::RepairHistory> history;
  if (options.share_history) history = std::make_shared<fix::RepairHistory>();
  // Shared history makes incident i's template draws depend on the repairs
  // of incidents < i — inherently sequential.
  const int jobs = history != nullptr ? 1 : util::resolveJobs(options.jobs);

  // Each worker writes only its own slot; the records are assembled in
  // incident order afterwards, so the result is scheduling-independent.
  std::vector<std::optional<IncidentRecord>> slots(
      static_cast<std::size_t>(std::max(0, options.incidents)));
  util::Histogram& incident_ms = metrics.histogram("campaign.incident_ms");
  util::parallelFor(jobs, static_cast<int>(slots.size()), [&](int index) {
    const util::ScopedTimer timer(incident_ms);
    slots[static_cast<std::size_t>(index)] =
        runIncident(options, index, history);
  });

  CampaignResult campaign;
  campaign.records.reserve(slots.size());
  for (auto& slot : slots) {
    if (slot.has_value()) campaign.records.push_back(std::move(*slot));
  }
  metrics.counter("campaign.incidents").add(campaign.records.size());
  metrics.counter("campaign.violated")
      .add(static_cast<std::uint64_t>(campaign.violatedCount()));
  metrics.counter("campaign.repaired")
      .add(static_cast<std::uint64_t>(campaign.repairedCount()));
  return campaign;
}

repair::RepairResult repairNetwork(const topo::Network& faulty,
                                   const std::vector<verify::Intent>& intents,
                                   const repair::RepairOptions& options) {
  return repair::AcrEngine(intents, options).repair(faulty);
}

}  // namespace acr
