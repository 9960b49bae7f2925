// End-to-end assertions for the paper's §5 worked example on the Figure-2
// incident: localization scores, the solved symbolic value, the danger of a
// single-site fix, and the full ACR repair.
#include <gtest/gtest.h>

#include "core/scenarios.hpp"
#include "fixgen/change.hpp"
#include "localize/coverage.hpp"
#include "localize/sbfl.hpp"
#include "repair/engine.hpp"

namespace acr::repair {
namespace {

net::Prefix P(const char* text) { return *net::Prefix::parse(text); }

struct Figure2Harness {
  acr::Scenario scenario = acr::figure2Scenario(true);
  route::SimResult sim;
  std::vector<verify::TestResult> results;
  std::vector<std::set<cfg::LineId>> coverage;
  sbfl::Spectrum spectrum;

  Figure2Harness() {
    route::SimOptions options;
    options.record_provenance = true;
    sim = route::Simulator(scenario.network()).run(options);
    const verify::Verifier verifier(scenario.intents, options);
    for (auto& result : verifier.runTests(
             scenario.network(), sim,
             verify::generateTests(scenario.intents, 1))) {
      coverage.push_back(sbfl::coverageOf(scenario.network(), sim, result));
      spectrum.addTest(coverage.back(), result.passed);
      results.push_back(std::move(result));
    }
  }
};

TEST(Figure2, OnlyTenZeroSixteenFlaps) {
  const Figure2Harness h;
  ASSERT_FALSE(h.sim.converged);
  ASSERT_EQ(h.sim.flapping.size(), 1u);
  EXPECT_EQ(*h.sim.flapping.begin(), P("10.0.0.0/16"));
}

TEST(Figure2, OverrideLinesScoreBetweenZeroAndOne) {
  // The paper's Tarantula table: the override machinery is covered by both
  // the failing 10.0/16 test and the passing DCN test, so its score lands
  // strictly between the innocent lines (0) and failure-only lines (1) —
  // 0.67 in the paper's 1-failed/2-passed setting, here with more tests the
  // exact value differs but the ordering is the point.
  const Figure2Harness h;
  const cfg::DeviceConfig* a = h.scenario.network().config("A");
  const int entry_line = a->findPrefixList("default_all")->entries[0].line;
  const double score =
      h.spectrum.score(cfg::LineId{"A", entry_line}, sbfl::Metric::kTarantula);
  EXPECT_GT(score, 0.4);
  EXPECT_LT(score, 1.0);
  // An innocent line on B used only by passing tests scores 0.
  const cfg::DeviceConfig* b = h.scenario.network().config("B");
  const double innocent = h.spectrum.score(
      cfg::LineId{"B", b->policies[0].nodes[0].line}, sbfl::Metric::kTarantula);
  EXPECT_EQ(innocent, 0.0);
}

TEST(Figure2, SolvedSymbolicValueMatchesPaper) {
  // §5 step 2: on A, P ∧ ¬F solves var to {10.70/16, 20.0/16}.
  const Figure2Harness h;
  const fix::RepairContext context{h.scenario.network(), h.sim,
                                   h.scenario.intents, h.results, h.coverage};
  const cfg::DeviceConfig* a = h.scenario.network().config("A");
  const fix::PrefixListConstraints constraints = fix::collectListConstraints(
      context, "A", *a->findPrefixList("default_all"));
  const auto model = fix::solveListModel(constraints);
  ASSERT_TRUE(model.has_value());
  bool has_dcn = false;
  for (const auto& piece : *model) {
    EXPECT_FALSE(piece.overlaps(P("10.0.0.0/16"))) << piece.str();
    if (piece.contains(P("20.0.0.0/16"))) has_dcn = true;
  }
  // The paper's P also contains 10.70/16 because A imports its PoP routes
  // over a CE session; in this model PoP_A is directly connected (never
  // crosses the override), so P = {20.0/16}. The essential property — the
  // flapping 10.0/16 is excluded while the intended rewrite scope is kept —
  // holds either way.
  EXPECT_TRUE(has_dcn);
}

TEST(Figure2, SingleSiteNarrowingDoesNotResolve) {
  // §2.3's warning, adapted to the reproduced dynamics: narrowing ONLY A's
  // prefix-list leaves C's catch-all override in place and the 10.0/16
  // violation persists.
  acr::Scenario scenario = acr::figure2Scenario(true);
  topo::Network half_fixed = scenario.network();
  cfg::PrefixList* list = half_fixed.config("A")->findPrefixList("default_all");
  list->entries.clear();
  cfg::PrefixListEntry pop;
  pop.index = 10;
  pop.prefix = P("10.70.0.0/16");
  pop.greater_equal = 16;
  pop.less_equal = 32;
  list->entries.push_back(pop);
  cfg::PrefixListEntry dcn = pop;
  dcn.index = 20;
  dcn.prefix = P("20.0.0.0/16");
  list->entries.push_back(dcn);
  half_fixed.renumberAll();

  const verify::Verifier verifier(scenario.intents);
  EXPECT_GT(verifier.verify(half_fixed).tests_failed, 0)
      << "fixing A alone should not resolve the incident";

  // Narrowing C as well (the paper's second iteration) resolves it.
  cfg::PrefixList* c_list =
      half_fixed.config("C")->findPrefixList("default_all");
  c_list->entries.clear();
  cfg::PrefixListEntry only_dcn = dcn;
  only_dcn.index = 10;
  c_list->entries.push_back(only_dcn);
  half_fixed.renumberAll();
  EXPECT_EQ(verifier.verify(half_fixed).tests_failed, 0);
}

TEST(Figure2, NarrowListRepairAloneFixesTheIncident) {
  // Applying the NarrowOverrideList template on both devices (the paper's
  // two evolution iterations) yields a converging, intent-clean network.
  const Figure2Harness h;
  const fix::RepairContext context{h.scenario.network(), h.sim,
                                   h.scenario.intents, h.results, h.coverage};
  const auto tmpl = fix::makeNarrowOverrideList();
  topo::Network updated = h.scenario.network();
  for (const char* router : {"A", "C"}) {
    const cfg::DeviceConfig* device = h.scenario.network().config(router);
    const int entry_line =
        device->findPrefixList("default_all")->entries[0].line;
    const cfg::LineId line{router, entry_line};
    const cfg::LineInfo info =
        device->buildLineIndex().at(entry_line);
    const auto proposals = tmpl->propose(context, line, info);
    ASSERT_FALSE(proposals.empty()) << router;
    ASSERT_TRUE(proposals[0].apply(updated)) << router;
  }
  const route::SimResult sim = route::Simulator(updated).run();
  EXPECT_TRUE(sim.converged);
  const verify::Verifier verifier(h.scenario.intents);
  EXPECT_TRUE(verifier.verify(updated).ok());
}

TEST(Figure2, FullEngineRepairEndToEnd) {
  const acr::Scenario scenario = acr::figure2Scenario(true);
  const AcrEngine engine(scenario.intents);
  const RepairResult result = engine.repair(scenario.network());
  ASSERT_TRUE(result.success) << result.summary();
  EXPECT_TRUE(route::Simulator(result.repaired).run().converged);
  // The repair touches only the incident devices (A and/or C).
  for (const auto& diff : result.diff) {
    EXPECT_TRUE(diff.device == "A" || diff.device == "C") << diff.device;
  }
}

}  // namespace
}  // namespace acr::repair
