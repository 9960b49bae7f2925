// Triage dashboard: ACR as a *localization-only* assistant.
//
// This example feeds raw configuration text through the acr-cfg parser (the
// way an external CMDB export would arrive), swaps one device's config into
// the Figure-2 network, and prints an incident triage report — violations,
// per-device suspiciousness summary, and the top suspicious lines with the
// change templates that would apply — without performing the repair. This is
// the "help operators localize the root causes" half of the paper's pitch,
// usable even when auto-apply is not trusted.
#include <cstdio>

#include "core/acr.hpp"

int main() {
  using namespace acr;

  // Router A's configuration arrives as text, as exported from the device —
  // with the over-broad catch-all the incident shipped.
  const char* router_a_config = R"(hostname A
interface eth0
 ip address 172.16.0.1 30
interface eth1
 ip address 172.16.0.14 30
interface eth2
 ip address 10.70.0.1 16
bgp 65001
 router-id 1.1.1.2
 redistribute connected
 peer 172.16.0.2 as-number 65002
 peer 172.16.0.13 as-number 65004
 peer 172.16.0.13 route-policy Override_All import
ip prefix-list default_all index 10 permit 0.0.0.0 0
route-policy Override_All permit node 10
 if-match ip-prefix default_all
 apply as-path overwrite
route-policy Override_All permit node 20
)";

  std::vector<std::string> parse_errors;
  const auto parsed = cfg::tryParseDevice(router_a_config, parse_errors);
  if (!parsed) {
    for (const auto& error : parse_errors) std::puts(error.c_str());
    return 1;
  }
  std::printf("parsed %d config lines for %s\n", parsed->lineCount(),
              parsed->hostname.c_str());

  Scenario scenario = figure2Scenario(/*faulty=*/true);
  scenario.built.network.configs["A"] = *parsed;
  scenario.built.network.renumberAll();

  route::SimOptions options;
  options.record_provenance = true;
  const route::SimResult sim =
      route::Simulator(scenario.network()).run(options);
  const verify::Verifier verifier(scenario.intents, options);
  const sbfl::SuiteRun suite =
      sbfl::runSuite(scenario.network(), sim, verifier,
                     verify::generateTests(scenario.intents, 1));

  std::puts("\n--- violations ---");
  int failing = 0;
  for (const auto& result : suite.results) {
    if (!result.passed) {
      ++failing;
      std::printf("  %s: %s [%s]\n",
                  scenario.intents[result.test.intent_index].name.c_str(),
                  result.reason.c_str(), result.trace.str().c_str());
    }
  }
  if (failing == 0) {
    std::puts("  none — network is healthy");
    return 0;
  }

  std::puts("\n--- suspiciousness by device ---");
  std::map<std::string, double> device_max;
  for (const auto& score : suite.spectrum.rank(sbfl::Metric::kTarantula)) {
    device_max.try_emplace(score.line.device, score.suspiciousness);
  }
  for (const auto& [device, score] : device_max) {
    std::string bar(static_cast<std::size_t>(score * 40), '#');
    std::printf("  %-8s %5.2f %s\n", device.c_str(), score, bar.c_str());
  }

  std::puts("\n--- top suspicious lines and applicable templates ---");
  const fix::RepairContext context{scenario.network(), sim, scenario.intents,
                                   suite.results, suite.coverage};
  int shown = 0;
  for (const auto& score : suite.spectrum.rank(sbfl::Metric::kTarantula)) {
    if (score.failed_cover == 0 || shown >= 6) break;
    const cfg::DeviceConfig* device = scenario.network().config(score.line.device);
    if (device == nullptr) continue;
    const auto index = device->buildLineIndex();
    const auto it = index.find(score.line.line);
    if (it == index.end()) continue;
    ++shown;
    std::printf("%d. susp %.2f  %s:%d  \"%s\"\n", shown, score.suspiciousness,
                score.line.device.c_str(), score.line.line,
                it->second.text.c_str());
    for (const auto& tmpl : fix::templatesFor(it->second.kind)) {
      const auto proposals = tmpl->propose(context, score.line, it->second);
      for (const auto& proposal : proposals) {
        std::printf("      -> [%s] %s\n", proposal.template_name.c_str(),
                    proposal.description.c_str());
      }
    }
  }
  std::puts("\n(triage only — run the quickstart example for auto-repair)");
  return 0;
}
