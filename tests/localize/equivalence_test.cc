// LOCALIZE equivalence contract.
//
// The engine's LOCALIZE (a one-leaf delta tree off the anchor's full
// provenance run, then the whole suite on that simulation via runSuite) must
// be indistinguishable from the from-scratch pipeline: identical test
// verdicts, identical coverage sets, byte-identical SBFL rankings under
// every metric, and content-identical derivation chains on every RIB cell.
// Enforced across the fault campaign's error catalog in both directions
// (healthy anchor → injected candidate and faulty anchor → repaired
// candidate), plus whole-engine byte-identity at different worker counts.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/scenarios.hpp"
#include "faultinject/faults.hpp"
#include "localize/coverage.hpp"
#include "repair/engine.hpp"
#include "routing/delta_tree.hpp"
#include "routing/simulator.hpp"
#include "verify/verifier.hpp"

namespace acr::sbfl {
namespace {

std::vector<std::string> devicesOf(const std::vector<cfg::ConfigDiff>& diffs) {
  std::vector<std::string> devices;
  for (const auto& diff : diffs) devices.push_back(diff.device);
  return devices;
}

route::SimOptions localizeOptions() {
  route::SimOptions options;
  options.record_provenance = true;
  return options;
}

/// The old LOCALIZE pipeline, verbatim: full simulation, full suite, full
/// coverage extraction, spectrum built test by test.
struct FullLocalize {
  route::SimResult sim;
  std::vector<verify::TestResult> results;
  std::vector<std::set<cfg::LineId>> coverage;
  Spectrum spectrum;
};

FullLocalize fullLocalize(const topo::Network& network,
                          const std::vector<verify::Intent>& intents,
                          const std::vector<verify::TestCase>& tests) {
  FullLocalize out;
  out.sim = route::Simulator(network).run(localizeOptions());
  const verify::Verifier verifier(intents, localizeOptions());
  out.results = verifier.runTests(network, out.sim, tests);
  for (const auto& result : out.results) {
    out.coverage.push_back(coverageOf(network, out.sim, result));
    out.spectrum.addTest(out.coverage.back(), result.passed);
  }
  return out;
}

/// The engine's LOCALIZE for a candidate that differs from `anchor_network`
/// on `changed`: full provenance run of the anchor, one-leaf delta tree off
/// it, whole suite on the delta-seeded simulation.
struct EngineLocalize {
  route::SimResult sim;
  SuiteRun suite;
};

EngineLocalize engineLocalize(const topo::Network& anchor_network,
                              const topo::Network& network,
                              const std::vector<std::string>& changed,
                              const std::vector<verify::Intent>& intents,
                              const std::vector<verify::TestCase>& tests) {
  const route::SimResult anchor =
      route::Simulator(anchor_network).run(localizeOptions());
  EngineLocalize out;
  out.sim = route::DeltaTree(anchor_network, anchor, localizeOptions())
                .run(network, changed);
  const verify::Verifier verifier(intents, localizeOptions());
  out.suite = runSuite(network, out.sim, verifier, tests);
  return out;
}

std::string chainOf(const prov::ProvenanceGraph& graph,
                    prov::DerivationId id) {
  std::string out;
  while (id != prov::kNoDerivation) {
    const prov::Derivation& derivation = graph.at(id);
    out += derivation.router + '|' + derivation.prefix.str() + '|';
    for (const auto& line : derivation.lines) out += line.str() + ',';
    out += ';';
    id = derivation.parent;
  }
  return out;
}

void expectEquivalent(const FullLocalize& full,
                      const EngineLocalize& engine) {
  const SuiteRun& suite = engine.suite;
  // Verdicts and traces.
  ASSERT_EQ(suite.results.size(), full.results.size());
  for (std::size_t i = 0; i < full.results.size(); ++i) {
    EXPECT_EQ(suite.results[i].passed, full.results[i].passed) << i;
    EXPECT_EQ(suite.results[i].reason, full.results[i].reason) << i;
    EXPECT_EQ(suite.results[i].trace.outcome,
              full.results[i].trace.outcome)
        << i;
  }
  // Coverage rows.
  ASSERT_EQ(suite.coverage.size(), full.coverage.size());
  for (std::size_t i = 0; i < full.coverage.size(); ++i) {
    EXPECT_EQ(suite.coverage[i], full.coverage[i]) << "test " << i;
  }
  // Rankings under every metric (and the paper's Tarantula twice with a
  // different tie-break seed to cover the Random ablation path too).
  for (const Metric metric : allMetrics()) {
    const std::vector<LineScore> expected = full.spectrum.rank(metric);
    const std::vector<LineScore> actual = suite.spectrum.rank(metric);
    ASSERT_EQ(actual.size(), expected.size()) << metricName(metric);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].line, expected[i].line)
          << metricName(metric) << " rank " << i;
      EXPECT_EQ(actual[i].suspiciousness, expected[i].suspiciousness)
          << metricName(metric) << " rank " << i;
      EXPECT_EQ(actual[i].failed_cover, expected[i].failed_cover)
          << metricName(metric) << " rank " << i;
      EXPECT_EQ(actual[i].passed_cover, expected[i].passed_cover)
          << metricName(metric) << " rank " << i;
    }
  }
  // Derivation chains, content-compared per RIB cell (ids are storage
  // artifacts and legitimately differ between a fork and a fresh graph).
  for (const std::string& router : full.sim.rib.routers()) {
    const std::map<net::Prefix, route::Route> expected =
        full.sim.rib.routesOf(router);
    const std::map<net::Prefix, route::Route> actual =
        engine.sim.rib.routesOf(router);
    ASSERT_EQ(actual.size(), expected.size()) << router;
    for (const auto& [prefix, route] : expected) {
      const auto it = actual.find(prefix);
      ASSERT_NE(it, actual.end()) << router << " " << prefix.str();
      EXPECT_EQ(chainOf(engine.sim.provenance, it->second.derivation),
                chainOf(full.sim.provenance, route.derivation))
          << router << " " << prefix.str();
    }
  }
}

// ---------------------------------------------------------------------------
// Table-1 sweep, both directions.
// ---------------------------------------------------------------------------

class LocalizeEquivalence
    : public ::testing::TestWithParam<inject::FaultType> {};

TEST_P(LocalizeEquivalence, InjectedFaultMatchesFullPipeline) {
  const inject::FaultSpec& spec = inject::specOf(GetParam());
  acr::Scenario scenario = acr::scenarioByFamily(spec.scenario);
  inject::FaultInjector injector(11);
  const auto incident = injector.inject(scenario.built, GetParam());
  ASSERT_TRUE(incident.has_value()) << spec.label;

  const std::vector<verify::TestCase> tests =
      verify::generateTests(scenario.intents, 1);
  expectEquivalent(
      fullLocalize(incident->network, scenario.intents, tests),
      engineLocalize(scenario.network(), incident->network,
                     devicesOf(incident->injected_diff), scenario.intents,
                     tests));
}

TEST_P(LocalizeEquivalence, RepairedFaultMatchesFullPipeline) {
  // The engine's real workload: the anchor is the faulty network and the
  // candidate restores the correct configs.
  const inject::FaultSpec& spec = inject::specOf(GetParam());
  acr::Scenario scenario = acr::scenarioByFamily(spec.scenario);
  inject::FaultInjector injector(11);
  const auto incident = injector.inject(scenario.built, GetParam());
  ASSERT_TRUE(incident.has_value()) << spec.label;

  const std::vector<verify::TestCase> tests =
      verify::generateTests(scenario.intents, 1);
  expectEquivalent(
      fullLocalize(scenario.network(), scenario.intents, tests),
      engineLocalize(incident->network, scenario.network(),
                     devicesOf(incident->injected_diff), scenario.intents,
                     tests));
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultTypes, LocalizeEquivalence,
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
}  // namespace acr::sbfl
