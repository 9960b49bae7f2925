#include "provenance/negative.hpp"

#include <gtest/gtest.h>

#include "core/scenarios.hpp"
#include "localize/coverage.hpp"
#include "localize/sbfl.hpp"

namespace acr::prov {
namespace {

net::Prefix P(const char* text) { return *net::Prefix::parse(text); }

route::SimResult simulate(const topo::Network& network) {
  route::SimOptions options;
  options.record_provenance = true;
  return route::Simulator(network).run(options);
}

TEST(NegativeProvenance, BlamesMissingRedistribution) {
  acr::Scenario scenario = acr::dcnScenario(2, 2);
  topo::Network broken = scenario.network();
  cfg::DeviceConfig* owner = broken.config("tor1_1");
  std::erase_if(owner->bgp->redistributes,
                [](const cfg::RedistributeConfig& redist) {
                  return redist.source == cfg::RedistSource::kStatic;
                });
  broken.renumberAll();
  const route::SimResult sim = simulate(broken);
  // Ask from a remote ToR: why is the pod-1 VIP missing?
  const AbsenceExplanation explanation =
      explainAbsence(broken, sim, "tor2_1", P("20.1.1.0/24"));
  ASSERT_FALSE(explanation.reasons.empty());
  EXPECT_TRUE(explanation.blames(AbsenceReason::Kind::kNotRedistributed))
      << explanation.str();
  // The blamed lines sit on the owning ToR.
  bool owner_blamed = false;
  for (const auto& line : explanation.lines()) {
    if (line.device == "tor1_1") owner_blamed = true;
  }
  EXPECT_TRUE(owner_blamed);
}

TEST(NegativeProvenance, BlamesMissingOrigination) {
  acr::Scenario scenario = acr::dcnScenario(2, 2);
  topo::Network broken = scenario.network();
  broken.config("tor1_1")->static_routes.clear();
  broken.renumberAll();
  const route::SimResult sim = simulate(broken);
  const AbsenceExplanation explanation =
      explainAbsence(broken, sim, "tor2_1", P("20.1.1.0/24"));
  EXPECT_TRUE(explanation.blames(AbsenceReason::Kind::kNoOrigination))
      << explanation.str();
}

TEST(NegativeProvenance, BlamesDenyAllImportBinding) {
  acr::Scenario scenario = acr::dcnScenario(2, 2);
  topo::Network broken = scenario.network();
  // Leftover maintenance route-map on the legacy ToR's single uplink.
  cfg::DeviceConfig* tor = broken.config("tor2_1");
  tor->bgp->peers[0].import_policy = "MAINT";
  broken.renumberAll();
  const route::SimResult sim = simulate(broken);
  const AbsenceExplanation explanation =
      explainAbsence(broken, sim, "tor2_1", P("10.1.1.0/24"));
  ASSERT_TRUE(explanation.blames(AbsenceReason::Kind::kImportDenied))
      << explanation.str();
  // It must blame the binding line itself.
  const int binding_line = broken.config("tor2_1")->bgp->peers[0].import_line;
  EXPECT_EQ(explanation.lines().count(cfg::LineId{"tor2_1", binding_line}), 1u);
}

TEST(NegativeProvenance, BlamesExportGuard) {
  // The backbone's private range is export-guarded by design: asking why it
  // is absent elsewhere must blame the EXPORT_GUARD lines on its owner.
  const acr::Scenario scenario = acr::backboneScenario(6);
  const route::SimResult sim = simulate(scenario.network());
  const AbsenceExplanation explanation =
      explainAbsence(scenario.network(), sim, "R3", P("30.0.0.0/16"));
  EXPECT_TRUE(explanation.blames(AbsenceReason::Kind::kExportDenied))
      << explanation.str();
  bool guard_blamed = false;
  for (const auto& reason : explanation.reasons) {
    if (reason.kind == AbsenceReason::Kind::kExportDenied) {
      EXPECT_EQ(reason.router, "R6");
      EXPECT_NE(reason.detail.find("EXPORT_GUARD"), std::string::npos);
      guard_blamed = true;
    }
  }
  EXPECT_TRUE(guard_blamed);
}

TEST(NegativeProvenance, BlamesDownSession) {
  acr::Scenario scenario = acr::dcnScenario(2, 2);
  topo::Network broken = scenario.network();
  // Corrupt the agg-side AS number towards the legacy ToR: session down.
  const auto tor_address =
      broken.topology.peeringAddress("tor2_1", "agg2a").value();
  broken.config("agg2a")->bgp->findPeer(tor_address)->remote_as += 1000;
  broken.renumberAll();
  const route::SimResult sim = simulate(broken);
  const AbsenceExplanation explanation =
      explainAbsence(broken, sim, "agg2a", P("10.2.1.0/24"));
  ASSERT_TRUE(explanation.blames(AbsenceReason::Kind::kSessionDown))
      << explanation.str();
  // Both ends' peer statements are in the blamed lines.
  std::set<std::string> devices;
  for (const auto& line : explanation.lines()) devices.insert(line.device);
  EXPECT_TRUE(devices.count("agg2a") == 1);
}

TEST(NegativeProvenance, HealthyNetworkBlamesNoFaultClass) {
  const acr::Scenario scenario = acr::dcnScenario(2, 2);
  const route::SimResult sim = simulate(scenario.network());
  // On a healthy network some neighbors legitimately cannot supply a route
  // (their own path runs through the asking router: loop-rejected). What
  // must NOT appear is any origin-side fault class.
  const AbsenceExplanation explanation =
      explainAbsence(scenario.network(), sim, "core1", P("10.1.1.0/24"));
  EXPECT_FALSE(explanation.blames(AbsenceReason::Kind::kNoOrigination))
      << explanation.str();
  EXPECT_FALSE(explanation.blames(AbsenceReason::Kind::kNotRedistributed));
  EXPECT_FALSE(explanation.blames(AbsenceReason::Kind::kSessionDown));
  EXPECT_FALSE(explanation.blames(AbsenceReason::Kind::kImportDenied));
  EXPECT_FALSE(explanation.blames(AbsenceReason::Kind::kExportDenied));
}

TEST(NegativeProvenance, SharpensLocalizationForDenyFaults) {
  // With negative coverage, the leftover MAINT binding line is covered by
  // the failing tests and becomes (one of) the most suspicious lines.
  acr::Scenario scenario = acr::dcnScenario(2, 2);
  topo::Network broken = scenario.network();
  cfg::DeviceConfig* tor = broken.config("tor2_1");
  tor->bgp->peers[0].import_policy = "MAINT";
  broken.renumberAll();
  const route::SimResult sim = simulate(broken);
  const verify::Verifier verifier(
      scenario.intents, {.max_rounds = 64, .record_provenance = true});
  const auto results = verifier.runTests(
      broken, sim, verify::generateTests(scenario.intents, 1));
  sbfl::Spectrum spectrum;
  for (const auto& result : results) {
    spectrum.addTest(sbfl::coverageOf(broken, sim, result), result.passed);
  }
  const int binding_line = broken.config("tor2_1")->bgp->peers[0].import_line;
  const double score = spectrum.score(cfg::LineId{"tor2_1", binding_line},
                                      sbfl::Metric::kTarantula);
  EXPECT_GT(score, 0.9) << "the faulty binding line should be near-top";
}

TEST(NegativeProvenance, ReasonRendering) {
  AbsenceReason reason;
  reason.kind = AbsenceReason::Kind::kImportDenied;
  reason.router = "A";
  reason.neighbor = "B";
  reason.detail = "import policy MAINT denies 10.0.0.0/16";
  const std::string text = reason.str();
  EXPECT_NE(text.find("import-denied at A (from B)"), std::string::npos);
  EXPECT_NE(text.find("MAINT"), std::string::npos);
  EXPECT_EQ(absenceKindName(AbsenceReason::Kind::kLoopRejected),
            "loop-rejected");
}

}  // namespace
}  // namespace acr::prov
