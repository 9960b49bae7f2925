// Figure 2 / §5 reproduction: the route-flapping incident end to end.
//
// Prints: (1) the oscillation the simulator detects for 10.0/16; (2) the
// Tarantula localization table for router A (the right-hand columns of
// Figure 2b); (3) the solved symbolic value (§5 step 2); (4) the §2.3
// comparison — MetaProv-style single-site fix vs AED-style synthesis vs the
// full ACR loop.
#include <cstdio>

#include "bench/util.hpp"
#include "core/acr.hpp"

int main() {
  using namespace acr;
  Scenario scenario = figure2Scenario(/*faulty=*/true);

  bench::section("Simulation of the incident network");
  route::SimOptions sim_options;
  sim_options.record_provenance = true;
  const route::SimResult sim =
      route::Simulator(scenario.network()).run(sim_options);
  std::printf("converged: %s after %d rounds\n", sim.converged ? "yes" : "no",
              sim.rounds);
  for (const auto& prefix : sim.flapping) {
    std::printf("route flapping detected for %s (the paper's 10.0/16)\n",
                prefix.str().c_str());
  }

  bench::section("Tarantula suspiciousness, router A (cf. Figure 2b)");
  const verify::Verifier verifier(scenario.intents, sim_options);
  const sbfl::SuiteRun suite =
      sbfl::runSuite(scenario.network(), sim, verifier,
                     verify::generateTests(scenario.intents, 1));
  const cfg::DeviceConfig* a = scenario.network().config("A");
  bench::Table table({"Line", "Configuration", "failed(s)", "passed(s)",
                      "Suspiciousness"},
                     {6, 52, 10, 10, 15});
  table.printHeader();
  const auto index = a->buildLineIndex();
  const auto ranked = suite.spectrum.rank(sbfl::Metric::kTarantula);
  for (const auto& [line_no, info] : index) {
    double score = 0;
    int failed = 0, passed = 0;
    for (const auto& entry : ranked) {
      if (entry.line.device == "A" && entry.line.line == line_no) {
        score = entry.suspiciousness;
        failed = entry.failed_cover;
        passed = entry.passed_cover;
      }
    }
    table.printRow({std::to_string(line_no), info.text,
                    std::to_string(failed), std::to_string(passed),
                    bench::fmt(score, 2)});
  }
  table.printRule();

  bench::section("Solved symbolic value (P and not F)");
  const fix::RepairContext context{scenario.network(), sim, scenario.intents,
                                   suite.results, suite.coverage};
  const fix::PrefixListConstraints constraints = fix::collectListConstraints(
      context, "A", *a->findPrefixList("default_all"));
  std::printf("P (must stay in var):");
  for (const auto& prefix : constraints.required) {
    std::printf(" %s", prefix.str().c_str());
  }
  std::printf("\nF (must leave var): ");
  for (const auto& prefix : constraints.forbidden) {
    std::printf(" %s", prefix.str().c_str());
  }
  const auto model = fix::solveListModel(constraints);
  std::printf("\nvar =");
  if (model) {
    for (const auto& prefix : *model) std::printf(" %s", prefix.str().c_str());
  }
  std::printf("\n");

  bench::section("Method comparison on the incident (cf. §2.3)");
  bench::Table cmp({"Method", "Search space", "Resolved", "Regressions",
                    "Validations", "Time (ms)"},
                   {10, 22, 10, 13, 13, 11});
  cmp.printHeader();

  const repair::BaselineResult metaprov =
      repair::provenanceRepair(scenario.network(), scenario.intents);
  cmp.printRow({"MetaProv",
                std::to_string(metaprov.search_space) + " leaves",
                metaprov.resolved ? "yes" : "NO",
                metaprov.regressions ? "YES" : "no", "0 (unvalidated)",
                bench::fmt(metaprov.elapsed_ms, 2)});

  repair::SynthesisRepairOptions synth_options;
  synth_options.budget = 400;
  const repair::BaselineResult aed = repair::synthesisRepair(
      scenario.network(), scenario.intents, synth_options);
  cmp.printRow({"AED", "2^" + bench::fmt(aed.aed_log2_space, 0) + " states",
                aed.resolved ? "yes" : "NO", aed.regressions ? "YES" : "no",
                std::to_string(aed.explored),
                bench::fmt(aed.elapsed_ms, 2)});

  const repair::AcrEngine engine(scenario.intents);
  const repair::RepairResult acr = engine.repair(scenario.network());
  cmp.printRow({"ACR", std::to_string(acr.search_space) + " leaves",
                acr.success ? "yes" : "NO", "no (validated)",
                std::to_string(acr.validations),
                bench::fmt(acr.elapsed_ms, 2)});
  cmp.printRule();

  bench::section("ACR repair transcript");
  std::printf("%s\n", acr.summary().c_str());
  for (const auto& diff : acr.diff) std::printf("%s", diff.str().c_str());

  const bool repaired_converges =
      route::Simulator(acr.repaired).run().converged;
  std::printf("\nrepaired network converges: %s\n",
              repaired_converges ? "yes" : "NO");
  return acr.success && repaired_converges ? 0 : 1;
}
