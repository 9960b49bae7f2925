#include "core/ops.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/scenarios.hpp"
#include "obs/trace.hpp"

namespace acr::ops {
namespace {

void expectSameRecordedOptions(const repair::RepairOptions& a,
                               const repair::RepairOptions& b) {
  EXPECT_EQ(a.metric, b.metric);
  EXPECT_EQ(a.max_iterations, b.max_iterations);
  EXPECT_EQ(a.top_k_lines, b.top_k_lines);
  EXPECT_EQ(a.samples_per_intent, b.samples_per_intent);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.use_incremental, b.use_incremental);
  EXPECT_EQ(a.batch_validate, b.batch_validate);
  EXPECT_EQ(a.brute_force, b.brute_force);
  EXPECT_EQ(a.use_crossover, b.use_crossover);
  EXPECT_EQ(a.multipath, b.multipath);
  EXPECT_EQ(a.tolerance_k, b.tolerance_k);
  EXPECT_EQ(a.symbolic, b.symbolic);
  EXPECT_EQ(a.symbolic_suspicion, b.symbolic_suspicion);
  EXPECT_EQ(a.symbolic_max_variables, b.symbolic_max_variables);
  EXPECT_EQ(a.symbolic_fork_budget, b.symbolic_fork_budget);
}

TEST(Ops, RepairOptionsJsonRoundTrips) {
  // Every field the recording carries, each away from its default, so a
  // field that one direction forgets cannot pass by matching the default.
  const repair::RepairOptions defaults;
  repair::RepairOptions options;
  options.metric = sbfl::Metric::kOchiai;
  options.max_iterations = 17;
  options.top_k_lines = 5;
  options.samples_per_intent = 3;
  options.seed = 0xFEDCBA9876543210ULL;  // beyond double precision
  options.use_incremental = false;
  options.batch_validate = false;
  options.brute_force = true;
  options.use_crossover = true;
  options.multipath = true;
  options.tolerance_k = 2;
  options.symbolic = true;
  options.symbolic_suspicion = 0.25;
  options.symbolic_max_variables = 7;
  options.symbolic_fork_budget = 11;
  ASSERT_NE(options.metric, defaults.metric);
  ASSERT_NE(options.use_incremental, defaults.use_incremental);
  ASSERT_NE(options.batch_validate, defaults.batch_validate);
  ASSERT_NE(options.symbolic_suspicion, defaults.symbolic_suspicion);

  const util::Json json = repairOptionsJson(options);
  // The exact key set: a byte-affecting RepairOptions field added without
  // a key here would make recordings that --replay cannot reproduce.
  std::vector<std::string> keys;
  for (const auto& [key, value] : json.asObject()) keys.push_back(key);
  const std::vector<std::string> expected_keys = {
      "batch_validate",         "brute_force",
      "max_iterations",         "metric",
      "multipath",              "samples_per_intent",
      "seed",                   "symbolic",
      "symbolic_fork_budget",   "symbolic_max_variables",
      "symbolic_suspicion",     "tolerance_k",
      "top_k_lines",            "use_crossover",
      "use_incremental"};
  EXPECT_EQ(keys, expected_keys);

  // In memory, and through the rendered text a recording stores.
  expectSameRecordedOptions(repairOptionsFromJson(json), options);
  const auto parsed = util::Json::parse(json.str());
  ASSERT_TRUE(parsed.has_value());
  const repair::RepairOptions reparsed = repairOptionsFromJson(*parsed);
  expectSameRecordedOptions(reparsed, options);
  EXPECT_EQ(repairOptionsJson(reparsed).str(), json.str());

  // Absent keys keep their defaults.
  expectSameRecordedOptions(
      repairOptionsFromJson(util::Json{util::Json::Object{}}), defaults);
}

TEST(Ops, VerifyScenarioSimulatesOnce) {
  // The suite runs on the simulation the outcome reports, so one `verify`
  // costs one full simulation, with the same verdicts as verifying from
  // scratch.
  const Scenario scenario = figure2Scenario(/*faulty=*/true);
  obs::Tracer::global().clear();
  obs::Tracer::global().setEnabled(true);
  const VerifyOutcome outcome = verifyScenario(scenario);
  obs::Tracer::global().setEnabled(false);
  int full_sims = 0;
  for (const auto& span : obs::Tracer::global().collect()) {
    if (span.name == "sim.full") ++full_sims;
  }
  obs::Tracer::global().clear();
  EXPECT_EQ(full_sims, 1);

  const verify::VerifyResult expected =
      verify::Verifier(scenario.intents).verify(scenario.network());
  EXPECT_EQ(outcome.result.tests_run, expected.tests_run);
  EXPECT_EQ(outcome.result.tests_failed, expected.tests_failed);
  ASSERT_EQ(outcome.result.results.size(), expected.results.size());
  for (std::size_t i = 0; i < expected.results.size(); ++i) {
    EXPECT_EQ(outcome.result.results[i].passed, expected.results[i].passed);
    EXPECT_EQ(outcome.result.results[i].reason, expected.results[i].reason);
  }
}

}  // namespace
}  // namespace acr::ops
