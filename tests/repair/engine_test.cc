#include "repair/engine.hpp"

#include "repair/report.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "core/scenarios.hpp"
#include "faultinject/faults.hpp"
#include "obs/trace.hpp"
#include "verify/verifier.hpp"

namespace acr::repair {
namespace {

TEST(Engine, NothingToRepairOnHealthyNetwork) {
  const acr::Scenario scenario = acr::figure2Scenario(false);
  const AcrEngine engine(scenario.intents);
  const RepairResult result = engine.repair(scenario.network());
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.termination, Termination::kNothingToRepair);
  EXPECT_EQ(result.initial_failed, 0);
  EXPECT_TRUE(result.diff.empty());
}

TEST(Engine, RepairsFigure2Flap) {
  const acr::Scenario scenario = acr::figure2Scenario(true);
  const AcrEngine engine(scenario.intents);
  const RepairResult result = engine.repair(scenario.network());
  ASSERT_TRUE(result.success) << result.summary();
  EXPECT_EQ(result.termination, Termination::kRepaired);
  EXPECT_GT(result.initial_failed, 0);
  EXPECT_EQ(result.final_failed, 0);
  EXPECT_FALSE(result.changes.empty());
  EXPECT_FALSE(result.diff.empty());
  EXPECT_GT(result.validations, 0u);
  // Independent full verification of the repaired network.
  const verify::Verifier verifier(scenario.intents);
  EXPECT_TRUE(verifier.verify(result.repaired).ok());
  // The repaired control plane converges.
  EXPECT_TRUE(route::Simulator(result.repaired).run().converged);
}

TEST(Engine, RepairIsNotARegressionFactory) {
  // Every test passing before the incident must pass after the repair —
  // this is the validation guarantee over the provenance baseline.
  const acr::Scenario scenario = acr::figure2Scenario(true);
  const AcrEngine engine(scenario.intents);
  const RepairResult result = engine.repair(scenario.network());
  ASSERT_TRUE(result.success);
  const verify::Verifier verifier(scenario.intents);
  const verify::VerifyResult after = verifier.verify(result.repaired);
  EXPECT_EQ(after.tests_failed, 0);
}

TEST(Engine, IncrementalAndFullValidationAgree) {
  const acr::Scenario scenario = acr::figure2Scenario(true);
  RepairOptions incremental_options;
  incremental_options.use_incremental = true;
  RepairOptions full_options;
  full_options.use_incremental = false;
  const RepairResult a =
      AcrEngine(scenario.intents, incremental_options).repair(scenario.network());
  const RepairResult b =
      AcrEngine(scenario.intents, full_options).repair(scenario.network());
  EXPECT_TRUE(a.success);
  EXPECT_TRUE(b.success);
  // Same seed, same proposals: identical repair either way.
  EXPECT_EQ(a.changes, b.changes);
  EXPECT_EQ(b.tests_skipped, 0u);
}

/// Two faults on dcn-3x2 (a missing redistribution plus an extra PBR
/// redirect): a repair that takes more than one iteration, so the verifier
/// anchor moves between rounds.
topo::Network twoFaultDcnIncident(const acr::Scenario& scenario) {
  inject::FaultInjector injector(29);
  auto first = injector.inject(scenario.built,
                               inject::FaultType::kMissingRedistribution);
  EXPECT_TRUE(first.has_value());
  if (!first) return scenario.network();
  topo::BuiltNetwork compound = scenario.built;
  compound.network = first->network;
  auto second = injector.inject(compound, inject::FaultType::kExtraPbrRedirect);
  EXPECT_TRUE(second.has_value());
  return second ? second->network : first->network;
}

TEST(Engine, FullValidationOracleMatchesIncrementalOnTwoFaults) {
  // The full-validation oracle must score candidates on the engine's own
  // suite: at samples_per_intent=2 an oracle judging a different suite than
  // the baseline and the fitness rule shows in the discards and the
  // history of a multi-iteration repair.
  const acr::Scenario scenario = acr::dcnScenario(3, 2);
  const topo::Network faulty = twoFaultDcnIncident(scenario);

  RepairOptions options;
  options.samples_per_intent = 2;
  options.use_incremental = true;
  const RepairResult incremental =
      AcrEngine(scenario.intents, options).repair(faulty);
  options.use_incremental = false;
  const RepairResult full = AcrEngine(scenario.intents, options).repair(faulty);
  ASSERT_TRUE(incremental.success) << incremental.summary();
  EXPECT_GT(incremental.iterations, 1);
  EXPECT_EQ(incremental.changes, full.changes);
  EXPECT_EQ(incremental.iterations, full.iterations);
  EXPECT_EQ(incremental.validations, full.validations);
  ASSERT_EQ(incremental.history.size(), full.history.size());
  for (std::size_t i = 0; i < full.history.size(); ++i) {
    EXPECT_EQ(incremental.history[i].fitness, full.history[i].fitness)
        << "iteration " << i + 1;
  }
}

TEST(Engine, FullValidationOracleNeverReanchorsTheVerifier) {
  // The oracle simulates every candidate from scratch and never reads the
  // verifier's anchor, so moving the anchor between iterations (one delta
  // simulation plus a re-judge, span verify.update) is pure waste there.
  const acr::Scenario scenario = acr::dcnScenario(3, 2);
  const topo::Network faulty = twoFaultDcnIncident(scenario);
  const auto repairCountingReanchors = [&](bool use_incremental) {
    RepairOptions options;
    options.use_incremental = use_incremental;
    obs::Tracer::global().clear();
    obs::Tracer::global().setEnabled(true);
    RepairResult result = AcrEngine(scenario.intents, options).repair(faulty);
    obs::Tracer::global().setEnabled(false);
    int reanchors = 0;
    for (const auto& span : obs::Tracer::global().collect()) {
      if (span.name == "verify.update") ++reanchors;
    }
    obs::Tracer::global().clear();
    return std::make_pair(std::move(result), reanchors);
  };

  const auto [incremental, incremental_reanchors] =
      repairCountingReanchors(true);
  const auto [full, full_reanchors] = repairCountingReanchors(false);
  ASSERT_TRUE(incremental.success) << incremental.summary();
  ASSERT_GT(incremental.iterations, 1);
  EXPECT_EQ(incremental_reanchors, incremental.iterations - 1);
  EXPECT_EQ(full_reanchors, 0);
  EXPECT_EQ(full.changes, incremental.changes);
  EXPECT_EQ(full.iterations, incremental.iterations);
  EXPECT_EQ(full.validations, incremental.validations);
}

TEST(Engine, IncrementalValidationSkipsUnaffectedTests) {
  // A PBR fault never changes FIBs, so the differential verifier re-checks
  // only the failing tests and those crossing the edited device.
  acr::Scenario scenario = acr::dcnScenario(2, 2);
  inject::FaultInjector injector(13);
  const auto incident =
      injector.inject(scenario.built, inject::FaultType::kExtraPbrRedirect);
  ASSERT_TRUE(incident.has_value());
  RepairOptions options;
  options.use_incremental = true;
  const RepairResult result =
      AcrEngine(scenario.intents, options).repair(incident->network);
  ASSERT_TRUE(result.success) << result.summary();
  EXPECT_GT(result.tests_skipped, 0u);
}

TEST(Engine, HistoryTracksTheLoop) {
  const acr::Scenario scenario = acr::figure2Scenario(true);
  const AcrEngine engine(scenario.intents);
  const RepairResult result = engine.repair(scenario.network());
  ASSERT_TRUE(result.success);
  ASSERT_FALSE(result.history.empty());
  EXPECT_EQ(result.history.back().fitness, 0);
  EXPECT_EQ(result.history.front().iteration, 1);
  EXPECT_GT(result.search_space, 0u);
}

TEST(Engine, IterationLimitTerminates) {
  const acr::Scenario scenario = acr::figure2Scenario(true);
  RepairOptions options;
  options.max_iterations = 0;  // degenerate: loop never runs
  const RepairResult result =
      AcrEngine(scenario.intents, options).repair(scenario.network());
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.termination, Termination::kIterationLimit);
}

TEST(Engine, ExhaustedWhenNoTemplatesApply) {
  // A violation no template can address: an intent towards a subnet that is
  // declared nowhere (no origination context, no denying policy).
  acr::Scenario scenario = acr::figure2Scenario(false);
  verify::Intent ghost;
  ghost.kind = verify::IntentKind::kReachability;
  ghost.name = "ghost";
  ghost.space.src_space = *net::Prefix::parse("10.70.0.0/16");
  ghost.space.dst_space = *net::Prefix::parse("99.99.0.0/16");
  scenario.intents.push_back(ghost);
  RepairOptions options;
  options.max_iterations = 5;
  const RepairResult result =
      AcrEngine(scenario.intents, options).repair(scenario.network());
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.termination, Termination::kExhausted);
}

TEST(Engine, TimeBudgetTerminates) {
  // A violation no template resolves plus a tiny budget: the loop must stop
  // with kTimeBudget instead of burning all 500 iterations.
  acr::Scenario scenario = acr::figure2Scenario(false);
  verify::Intent ghost;
  ghost.kind = verify::IntentKind::kReachability;
  ghost.name = "ghost";
  ghost.space.src_space = *net::Prefix::parse("10.70.0.0/16");
  ghost.space.dst_space = *net::Prefix::parse("99.99.0.0/16");
  scenario.intents.push_back(ghost);
  // Make the incident otherwise repair-resistant: also break reachability so
  // iterations keep running.
  RepairOptions options;
  options.time_budget_ms = 0.0001;  // expires at the first boundary
  const RepairResult result =
      AcrEngine(scenario.intents, options).repair(scenario.network());
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.termination, Termination::kTimeBudget);
  EXPECT_NE(result.summary().find("time-budget-exceeded"), std::string::npos);
}

TEST(Engine, SummaryMentionsOutcome) {
  const acr::Scenario scenario = acr::figure2Scenario(true);
  const RepairResult result =
      AcrEngine(scenario.intents).repair(scenario.network());
  const std::string summary = result.summary();
  EXPECT_NE(summary.find("repaired"), std::string::npos);
  EXPECT_NE(summary.find("changes:"), std::string::npos);
}

TEST(Engine, DeterministicForFixedSeed) {
  const acr::Scenario scenario = acr::figure2Scenario(true);
  RepairOptions options;
  options.seed = 17;
  const RepairResult a =
      AcrEngine(scenario.intents, options).repair(scenario.network());
  const RepairResult b =
      AcrEngine(scenario.intents, options).repair(scenario.network());
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.changes, b.changes);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(Engine, BruteForceAlsoRepairsAndExploresMore) {
  const acr::Scenario scenario = acr::figure2Scenario(true);
  RepairOptions search;
  RepairOptions brute;
  brute.brute_force = true;
  const RepairResult a =
      AcrEngine(scenario.intents, search).repair(scenario.network());
  const RepairResult b =
      AcrEngine(scenario.intents, brute).repair(scenario.network());
  EXPECT_TRUE(a.success);
  EXPECT_TRUE(b.success);
  // Brute force enumerates all templates per line: never a smaller forest
  // per iteration (compare first-iteration generation).
  ASSERT_FALSE(a.history.empty());
  ASSERT_FALSE(b.history.empty());
  EXPECT_GE(b.history[0].candidates_generated, a.history[0].candidates_generated);
}

TEST(Engine, HistoryRecordsAttemptsAndSuccesses) {
  const acr::Scenario scenario = acr::figure2Scenario(true);
  auto history = std::make_shared<fix::RepairHistory>();
  RepairOptions options;
  options.history = history;
  const RepairResult result =
      AcrEngine(scenario.intents, options).repair(scenario.network());
  ASSERT_TRUE(result.success);
  ASSERT_FALSE(history->empty());
  std::uint64_t attempts = 0;
  std::uint64_t successes = 0;
  for (const auto& [name, entry] : history->entries()) {
    attempts += entry.attempts;
    successes += entry.successes;
  }
  EXPECT_EQ(attempts, result.validations);
  EXPECT_EQ(successes, result.changes.size());
  // The winning template has at least one recorded success and its weight
  // never falls below a never-successful template with equal attempts.
  bool any_success = false;
  for (const auto& [name, entry] : history->entries()) {
    if (entry.successes > 0) {
      any_success = true;
      EXPECT_GE(history->weight(name), 0.5) << name;
    }
  }
  EXPECT_TRUE(any_success);
}

TEST(Engine, WarmHistoryStillRepairsDeterministically) {
  const acr::Scenario scenario = acr::figure2Scenario(true);
  auto history = std::make_shared<fix::RepairHistory>();
  RepairOptions options;
  options.history = history;
  options.seed = 7;
  const RepairResult first =
      AcrEngine(scenario.intents, options).repair(scenario.network());
  ASSERT_TRUE(first.success);
  // Second run with warm history: still succeeds, and the history-guided
  // draw picks a previously-successful template first.
  const RepairResult second =
      AcrEngine(scenario.intents, options).repair(scenario.network());
  ASSERT_TRUE(second.success);
  EXPECT_LE(second.validations, first.validations + 2);
}

TEST(Report, RendersMarkdownPostMortem) {
  const acr::Scenario scenario = acr::figure2Scenario(true);
  const RepairResult result =
      AcrEngine(scenario.intents).repair(scenario.network());
  ASSERT_TRUE(result.success);
  const std::string report = renderReport(result);
  EXPECT_NE(report.find("# ACR repair report"), std::string::npos);
  EXPECT_NE(report.find("**repaired**"), std::string::npos);
  EXPECT_NE(report.find("## Applied changes"), std::string::npos);
  EXPECT_NE(report.find("## Configuration delta"), std::string::npos);
  EXPECT_NE(report.find("## Loop telemetry"), std::string::npos);
  ReportOptions terse;
  terse.include_diff = false;
  terse.include_history = false;
  const std::string short_report = renderReport(result, terse);
  EXPECT_EQ(short_report.find("## Configuration delta"), std::string::npos);
  EXPECT_EQ(short_report.find("## Loop telemetry"), std::string::npos);
}

TEST(RepairHistory, WeightsAreLaplaceSmoothed) {
  fix::RepairHistory history;
  EXPECT_DOUBLE_EQ(history.weight("unknown"), 0.5);
  history.recordAttempt("t");
  EXPECT_DOUBLE_EQ(history.weight("t"), 1.0 / 3.0);
  history.recordSuccess("t");
  EXPECT_DOUBLE_EQ(history.weight("t"), 2.0 / 3.0);
  EXPECT_NE(history.str().find("t: 1/1"), std::string::npos);
}

TEST(Engine, CrossoverStillRepairsAndStaysValidated) {
  const acr::Scenario scenario = acr::figure2Scenario(true);
  RepairOptions options;
  options.use_crossover = true;
  const RepairResult result =
      AcrEngine(scenario.intents, options).repair(scenario.network());
  ASSERT_TRUE(result.success) << result.summary();
  const verify::Verifier verifier(scenario.intents);
  EXPECT_TRUE(verifier.verify(result.repaired).ok());
}

TEST(Engine, RepairsCompoundIncident) {
  // Two independent faults in one incident — the multi-change case the
  // evolutionary loop (and crossover) exists for.
  acr::Scenario scenario = acr::dcnScenario(3, 2);
  inject::FaultInjector injector(29);
  auto first =
      injector.inject(scenario.built, inject::FaultType::kMissingRedistribution);
  ASSERT_TRUE(first.has_value());
  topo::BuiltNetwork compound = scenario.built;
  compound.network = first->network;
  auto second =
      injector.inject(compound, inject::FaultType::kExtraPbrRedirect);
  ASSERT_TRUE(second.has_value());

  const verify::Verifier verifier(scenario.intents);
  ASSERT_GT(verifier.verify(second->network).tests_failed, 0);

  RepairOptions options;
  options.use_crossover = true;
  options.seed = 5;
  const RepairResult result =
      AcrEngine(scenario.intents, options).repair(second->network);
  ASSERT_TRUE(result.success) << result.summary();
  EXPECT_GE(result.changes.size(), 2u);  // one change per fault, at least
  EXPECT_TRUE(verifier.verify(result.repaired).ok());
}

// The repair matrix: every Table-1 fault type, injected into its scenario,
// is repaired by the engine and the repaired network passes full
// verification. This is the core claim of the reproduction.
class RepairMatrix : public ::testing::TestWithParam<inject::FaultType> {};

TEST_P(RepairMatrix, InjectThenRepair) {
  const inject::FaultSpec& spec = inject::specOf(GetParam());
  acr::Scenario scenario = acr::scenarioByFamily(spec.scenario);
  inject::FaultInjector injector(21);
  const auto incident = injector.inject(scenario.built, GetParam());
  ASSERT_TRUE(incident.has_value()) << spec.label;

  RepairOptions options;
  options.seed = 3;
  const AcrEngine engine(scenario.intents, options);
  const RepairResult result = engine.repair(incident->network);
  EXPECT_TRUE(result.success)
      << spec.label << "\n" << incident->description << "\n"
      << result.summary();
  if (result.success) {
    const verify::Verifier verifier(scenario.intents);
    EXPECT_TRUE(verifier.verify(result.repaired).ok()) << spec.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultTypes, RepairMatrix,
    ::testing::Values(inject::FaultType::kMissingRedistribution,
                      inject::FaultType::kMissingPbrPermit,
                      inject::FaultType::kExtraPbrRedirect,
                      inject::FaultType::kMissingPeerGroup,
                      inject::FaultType::kExtraGroupItems,
                      inject::FaultType::kMissingRoutePolicy,
                      inject::FaultType::kLeftoverRouteMap,
                      inject::FaultType::kWrongPeerAs,
                      inject::FaultType::kMissingPrefixListItemsS,
                      inject::FaultType::kMissingPrefixListItemsM),
    [](const ::testing::TestParamInfo<inject::FaultType>& info) {
      std::string name = inject::faultTypeName(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace acr::repair

