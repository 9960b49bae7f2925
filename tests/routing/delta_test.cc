// Byte-identity contract of the one-shot delta run (a one-leaf
// DeltaTree::run).
//
// The incremental engine must be indistinguishable from a from-scratch run:
// same convergence verdict, same flapping set, same RIB down to every route
// field. The sweep below enforces this across the fault campaign's error
// catalog in both directions — injecting each fault into a healthy baseline
// and repairing each fault from a faulty baseline — plus the explicit
// fallback triggers and the oscillation case.
#include "routing/delta_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "core/scenarios.hpp"
#include "faultinject/faults.hpp"
#include "routing/simulator.hpp"
#include "util/metrics.hpp"

namespace acr::route {
namespace {

net::Prefix P(const char* text) { return *net::Prefix::parse(text); }

SimOptions deltaOptions() {
  SimOptions options;
  options.record_provenance = false;
  return options;
}

std::vector<std::string> devicesOf(const std::vector<cfg::ConfigDiff>& diffs) {
  std::vector<std::string> devices;
  for (const auto& diff : diffs) devices.push_back(diff.device);
  return devices;
}

/// Field-level equality of two simulation results — stricter than
/// Route::key(): it also checks the derived state (derivation and
/// learned-from ids) and the session table.
void expectSimEqual(const SimResult& actual, const SimResult& expected) {
  EXPECT_EQ(actual.converged, expected.converged);
  EXPECT_EQ(actual.flapping, expected.flapping);

  ASSERT_EQ(actual.sessions.size(), expected.sessions.size());
  for (std::size_t i = 0; i < expected.sessions.size(); ++i) {
    EXPECT_EQ(actual.sessions[i].a, expected.sessions[i].a);
    EXPECT_EQ(actual.sessions[i].b, expected.sessions[i].b);
    EXPECT_EQ(actual.sessions[i].up, expected.sessions[i].up);
    EXPECT_EQ(actual.sessions[i].down_reason, expected.sessions[i].down_reason);
  }

  ASSERT_EQ(actual.rib.size(), expected.rib.size());
  const std::vector<std::string> routers = expected.rib.routers();
  ASSERT_EQ(actual.rib.routers(), routers);
  for (const std::string& router : routers) {
    const std::map<net::Prefix, Route> routes = expected.rib.routesOf(router);
    const std::map<net::Prefix, Route> actual_routes =
        actual.rib.routesOf(router);
    ASSERT_EQ(actual_routes.size(), routes.size()) << "router " << router;
    auto entry_it = actual_routes.begin();
    for (const auto& [prefix, route] : routes) {
      ASSERT_EQ(entry_it->first, prefix) << "router " << router;
      const Route& actual_route = entry_it->second;
      EXPECT_EQ(actual_route.key(), route.key())
          << "router " << router << " prefix " << prefix.str();
      EXPECT_EQ(actual_route.derivation, route.derivation)
          << "router " << router << " prefix " << prefix.str();
      EXPECT_EQ(actual_route.learned_from_id, route.learned_from_id)
          << "router " << router << " prefix " << prefix.str();
      ++entry_it;
    }
  }
}

/// The derivation chain of `id` flattened to content: routers, prefixes and
/// config lines in chain order. Two graphs agree on a cell iff these match —
/// DerivationIds themselves are storage-order artifacts and intentionally
/// differ between a full run and a forked delta graph.
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

// ---------------------------------------------------------------------------
// The campaign sweep: every Table-1 error type, both directions.
// ---------------------------------------------------------------------------

class DeltaEquivalence : public ::testing::TestWithParam<inject::FaultType> {};

TEST_P(DeltaEquivalence, InjectedFaultMatchesFullRun) {
  const inject::FaultSpec& spec = inject::specOf(GetParam());
  acr::Scenario scenario = acr::scenarioByFamily(spec.scenario);
  inject::FaultInjector injector(11);
  const auto incident = injector.inject(scenario.built, GetParam());
  ASSERT_TRUE(incident.has_value()) << spec.label;
  const SimOptions options = deltaOptions();

  const SimResult baseline = Simulator(scenario.network()).run(options);
  const SimResult full = Simulator(incident->network).run(options);
  TreeLeafStats stats;
  const SimResult incremental =
      DeltaTree(scenario.network(), baseline, options)
          .run(incident->network, devicesOf(incident->injected_diff), &stats);
  expectSimEqual(incremental, full);
}

TEST_P(DeltaEquivalence, RepairedFaultMatchesFullRun) {
  // The repair engine's real workload: the anchor is the *faulty* network
  // and the candidate update restores the correct configs.
  const inject::FaultSpec& spec = inject::specOf(GetParam());
  acr::Scenario scenario = acr::scenarioByFamily(spec.scenario);
  inject::FaultInjector injector(11);
  const auto incident = injector.inject(scenario.built, GetParam());
  ASSERT_TRUE(incident.has_value()) << spec.label;
  const SimOptions options = deltaOptions();

  const SimResult baseline = Simulator(incident->network).run(options);
  const SimResult full = Simulator(scenario.network()).run(options);
  TreeLeafStats stats;
  const SimResult incremental =
      DeltaTree(incident->network, baseline, options)
          .run(scenario.network(), devicesOf(incident->injected_diff), &stats);
  expectSimEqual(incremental, full);
}

/// The provenance-on direction of the sweep: chains content-equal to a full
/// run, plus the exact anchor diff the verifier's incremental re-judging
/// (verify/incremental.cpp) relies on.
void expectProvenanceRunMatches(const topo::Network& anchor_network,
                                const topo::Network& updated,
                                const std::vector<std::string>& changed) {
  const SimOptions options;  // record_provenance defaults to true
  const SimResult anchor = Simulator(anchor_network).run(options);
  const SimResult full = Simulator(updated).run(options);
  TreeLeafStats stats;
  const SimResult incremental =
      DeltaTree(anchor_network, anchor, options).run(updated, changed, &stats);
  EXPECT_EQ(incremental.converged, full.converged);
  EXPECT_EQ(incremental.flapping, full.flapping);
  ASSERT_EQ(incremental.rib.routers(), full.rib.routers());
  for (const std::string& router : full.rib.routers()) {
    const std::map<net::Prefix, Route> expected = full.rib.routesOf(router);
    const std::map<net::Prefix, Route> actual =
        incremental.rib.routesOf(router);
    ASSERT_EQ(actual.size(), expected.size()) << router;
    for (const auto& [prefix, route] : expected) {
      const auto it = actual.find(prefix);
      ASSERT_NE(it, actual.end()) << router << " " << prefix.str();
      EXPECT_EQ(it->second.key(), route.key()) << router << " " << prefix.str();
      EXPECT_EQ(chainOf(incremental.provenance, it->second.derivation),
                chainOf(full.provenance, route.derivation))
          << router << " " << prefix.str();
    }
  }
  if (!stats.used_delta) return;  // a fallback result is the full run

  // Changed cells are exactly the brute-force RIB diff against the anchor.
  std::vector<std::pair<std::string, net::Prefix>> expected_changed;
  for (const std::string& router : full.rib.routers()) {
    const std::map<net::Prefix, Route> now = full.rib.routesOf(router);
    const std::map<net::Prefix, Route> before = anchor.rib.routesOf(router);
    for (const auto& [prefix, route] : now) {
      const auto it = before.find(prefix);
      if (it == before.end() || it->second.key() != route.key()) {
        expected_changed.emplace_back(router, prefix);
      }
    }
    for (const auto& [prefix, route] : before) {
      if (now.count(prefix) == 0) expected_changed.emplace_back(router, prefix);
    }
  }
  std::vector<std::pair<std::string, net::Prefix>> changed =
      stats.changed_vs_anchor;
  std::sort(changed.begin(), changed.end());
  std::sort(expected_changed.begin(), expected_changed.end());
  EXPECT_EQ(changed, expected_changed);
}

TEST_P(DeltaEquivalence, InjectedFaultWithProvenanceMatchesFullRun) {
  const inject::FaultSpec& spec = inject::specOf(GetParam());
  acr::Scenario scenario = acr::scenarioByFamily(spec.scenario);
  inject::FaultInjector injector(11);
  const auto incident = injector.inject(scenario.built, GetParam());
  ASSERT_TRUE(incident.has_value()) << spec.label;
  expectProvenanceRunMatches(scenario.network(), incident->network,
                             devicesOf(incident->injected_diff));
}

TEST_P(DeltaEquivalence, RepairedFaultWithProvenanceMatchesFullRun) {
  // LOCALIZE's real workload: a provenance anchor on the
  // faulty network, the candidate restoring the correct configs.
  const inject::FaultSpec& spec = inject::specOf(GetParam());
  acr::Scenario scenario = acr::scenarioByFamily(spec.scenario);
  inject::FaultInjector injector(11);
  const auto incident = injector.inject(scenario.built, GetParam());
  ASSERT_TRUE(incident.has_value()) << spec.label;
  expectProvenanceRunMatches(incident->network, scenario.network(),
                             devicesOf(incident->injected_diff));
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultTypes, DeltaEquivalence,
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

// ---------------------------------------------------------------------------
// Delta-path engagement and locality.
// ---------------------------------------------------------------------------

TEST(Delta, EngagesOnConfigOnlyEdit) {
  acr::Scenario scenario = acr::dcnScenario(2, 2);
  const SimOptions options = deltaOptions();
  const SimResult baseline = Simulator(scenario.network()).run(options);
  ASSERT_TRUE(baseline.converged);

  topo::Network edited = scenario.network();
  edited.config("tor1_1")->bgp->redistributes.clear();
  edited.renumberAll();

  TreeLeafStats stats;
  const SimResult incremental =
      DeltaTree(scenario.network(), baseline, options)
          .run(edited, {"tor1_1"}, &stats);
  EXPECT_TRUE(stats.used_delta) << stats.fallback_reason;
  EXPECT_GT(stats.work_items, 0u);
  expectSimEqual(incremental, Simulator(edited).run(options));

  // Locality: a single-ToR edit must not dirty anywhere near the whole
  // (router, prefix) work space of the network.
  const std::size_t total_entries = baseline.rib.totalRoutes();
  EXPECT_LT(stats.dirty_prefixes, total_entries / 2);
}

TEST(Delta, NoChangeConvergesInOneRound) {
  acr::Scenario scenario = acr::dcnScenario(2, 2);
  const SimOptions options = deltaOptions();
  const SimResult baseline = Simulator(scenario.network()).run(options);
  ASSERT_TRUE(baseline.converged);

  TreeLeafStats stats;
  const SimResult incremental =
      DeltaTree(scenario.network(), baseline, options)
          .run(scenario.network(), {}, &stats);
  EXPECT_TRUE(stats.used_delta);
  EXPECT_EQ(stats.rounds, 1);
  EXPECT_EQ(stats.work_items, 0u);
  expectSimEqual(incremental, baseline);
}

// ---------------------------------------------------------------------------
// Fallback rules.
// ---------------------------------------------------------------------------

TEST(DeltaFallback, ProvenanceAnchorMissingFallsBack) {
  // Provenance requested but the anchor never recorded a graph: identity of
  // the forked chains cannot be guaranteed, so the full engine runs.
  acr::Scenario scenario = acr::dcnScenario(2, 2);
  const SimResult baseline =
      Simulator(scenario.network()).run(deltaOptions());

  SimOptions provenance_options;  // record_provenance defaults to true
  TreeLeafStats stats;
  const SimResult incremental =
      DeltaTree(scenario.network(), baseline, provenance_options)
          .run(scenario.network(), {}, &stats);
  EXPECT_FALSE(stats.used_delta);
  EXPECT_EQ(stats.fallback_reason, "provenance-anchor-missing");
  expectSimEqual(incremental, Simulator(scenario.network()).run(provenance_options));
}

// ---------------------------------------------------------------------------
// Delta provenance: COW chain reuse on the incremental path.
// ---------------------------------------------------------------------------

TEST(DeltaProvenance, EngagesAndReusesAnchorChains) {
  acr::Scenario scenario = acr::dcnScenario(2, 2);
  SimOptions options;  // record_provenance defaults to true
  const SimResult baseline = Simulator(scenario.network()).run(options);
  ASSERT_TRUE(baseline.converged);
  ASSERT_FALSE(baseline.provenance.empty());

  topo::Network edited = scenario.network();
  edited.config("tor1_1")->bgp->redistributes.clear();
  edited.renumberAll();

  TreeLeafStats stats;
  const SimResult incremental =
      DeltaTree(scenario.network(), baseline, options)
          .run(edited, {"tor1_1"}, &stats);
  EXPECT_TRUE(stats.used_delta) << stats.fallback_reason;
  EXPECT_GT(stats.fresh_derivations, 0u);
  EXPECT_GT(stats.reused_derivations, 0u);
  EXPECT_FALSE(stats.changed_vs_anchor.empty());

  // Chain content must match a from-scratch provenance run on every cell.
  const SimResult full = Simulator(edited).run(options);
  for (const std::string& router : full.rib.routers()) {
    const std::map<net::Prefix, Route> expected = full.rib.routesOf(router);
    const std::map<net::Prefix, Route> actual =
        incremental.rib.routesOf(router);
    ASSERT_EQ(actual.size(), expected.size()) << router;
    for (const auto& [prefix, route] : expected) {
      const auto it = actual.find(prefix);
      ASSERT_NE(it, actual.end()) << router << " " << prefix.str();
      EXPECT_EQ(chainOf(incremental.provenance, it->second.derivation),
                chainOf(full.provenance, route.derivation))
          << router << " " << prefix.str();
    }
  }
}

TEST(DeltaProvenance, UnchangedCellsKeepAnchorDerivationIds) {
  // Byte-for-byte reuse, not just content equality: an untouched cell's
  // DerivationId must be the anchor's id resolving in the shared frozen
  // base segment of the forked graph.
  acr::Scenario scenario = acr::dcnScenario(2, 2);
  SimOptions options;
  const SimResult baseline = Simulator(scenario.network()).run(options);
  ASSERT_TRUE(baseline.converged);

  topo::Network edited = scenario.network();
  edited.config("tor1_1")->bgp->redistributes.clear();
  edited.renumberAll();

  TreeLeafStats stats;
  const SimResult incremental =
      DeltaTree(scenario.network(), baseline, options)
          .run(edited, {"tor1_1"}, &stats);
  ASSERT_TRUE(stats.used_delta) << stats.fallback_reason;

  // Fresh derivations are appended past the anchor's frozen segment, so an
  // id below the anchor graph's size is by construction a reused one — and
  // it must be exactly the anchor's id for that same cell.
  const auto frozen =
      static_cast<prov::DerivationId>(baseline.provenance.size());
  std::size_t clean_cells = 0;
  for (const std::string& router : incremental.rib.routers()) {
    const std::map<net::Prefix, Route> anchor_routes =
        baseline.rib.routesOf(router);
    for (const auto& [prefix, route] : incremental.rib.routesOf(router)) {
      if (route.derivation == prov::kNoDerivation ||
          route.derivation >= frozen) {
        continue;  // fresh (chain-dirty) cell, rebuilt by canonicalization
      }
      const auto it = anchor_routes.find(prefix);
      ASSERT_NE(it, anchor_routes.end()) << router << " " << prefix.str();
      EXPECT_EQ(route.derivation, it->second.derivation)
          << router << " " << prefix.str();
      ++clean_cells;
    }
  }
  EXPECT_GT(clean_cells, 0u);
}

TEST(DeltaFallback, TopologyShapeChangeFallsBack) {
  acr::Scenario scenario = acr::dcnScenario(2, 2);
  const SimOptions options = deltaOptions();
  const SimResult baseline = Simulator(scenario.network()).run(options);

  // Same devices and configs, one router-id nudged: the dense router table
  // (and with it the decision process) is no longer comparable.
  topo::Network shifted = scenario.network();
  topo::Topology rebuilt;
  bool first = true;
  for (const auto& router : shifted.topology.routers()) {
    topo::RouterDecl copy = router;
    if (first) {
      copy.router_id = net::Ipv4Address::fromOctets(9, 9, 9, 9);
      first = false;
    }
    rebuilt.addRouter(copy);
  }
  for (const auto& link : shifted.topology.links()) rebuilt.addLink(link);
  for (const auto& subnet : shifted.topology.subnets()) rebuilt.addSubnet(subnet);
  shifted.topology = rebuilt;

  TreeLeafStats stats;
  const SimResult incremental =
      DeltaTree(scenario.network(), baseline, options).run(shifted, {}, &stats);
  EXPECT_FALSE(stats.used_delta);
  EXPECT_EQ(stats.fallback_reason, "topology-shape-changed");
  expectSimEqual(incremental, Simulator(shifted).run(options));
}

TEST(DeltaFallback, SessionStateChangeFallsBack) {
  // kWrongPeerAs knocks a BGP session down — the flow graph itself changed,
  // so the seed state is structurally stale.
  const inject::FaultSpec& spec = inject::specOf(inject::FaultType::kWrongPeerAs);
  acr::Scenario scenario = acr::scenarioByFamily(spec.scenario);
  inject::FaultInjector injector(11);
  const auto incident =
      injector.inject(scenario.built, inject::FaultType::kWrongPeerAs);
  ASSERT_TRUE(incident.has_value());
  const SimOptions options = deltaOptions();

  const SimResult baseline = Simulator(scenario.network()).run(options);
  TreeLeafStats stats;
  const SimResult incremental =
      DeltaTree(scenario.network(), baseline, options)
          .run(incident->network, devicesOf(incident->injected_diff), &stats);
  EXPECT_FALSE(stats.used_delta);
  EXPECT_EQ(stats.fallback_reason, "session-state-changed");
  expectSimEqual(incremental, Simulator(incident->network).run(options));
}

TEST(DeltaFallback, NonConvergedBaselineFallsBack) {
  const acr::Scenario faulty = acr::figure2Scenario(true);
  const SimOptions options = deltaOptions();
  const SimResult baseline = Simulator(faulty.network()).run(options);
  ASSERT_FALSE(baseline.converged);

  TreeLeafStats stats;
  const SimResult incremental =
      DeltaTree(faulty.network(), baseline, options)
          .run(faulty.network(), {}, &stats);
  EXPECT_FALSE(stats.used_delta);
  EXPECT_EQ(stats.fallback_reason, "baseline-not-converged");
  expectSimEqual(incremental, baseline);
}

TEST(DeltaFallback, OscillationFallsBackAndMatches) {
  // Figure-2's as-path overwrite: sessions survive, but the updated network
  // never converges. The delta orbit detects the repeated state and defers
  // to the full engine, reproducing the exact flapping set.
  const acr::Scenario correct = acr::figure2Scenario(false);
  const acr::Scenario faulty = acr::figure2Scenario(true);
  const SimOptions options = deltaOptions();
  const SimResult baseline = Simulator(correct.network()).run(options);
  ASSERT_TRUE(baseline.converged);

  const std::vector<cfg::ConfigDiff> diffs =
      topo::diffNetworks(correct.network(), faulty.network());
  ASSERT_FALSE(diffs.empty());
  TreeLeafStats stats;
  const SimResult incremental =
      DeltaTree(correct.network(), baseline, options)
          .run(faulty.network(), devicesOf(diffs), &stats);
  EXPECT_FALSE(stats.used_delta);
  EXPECT_EQ(stats.fallback_reason, "oscillation-detected");
  const SimResult full = Simulator(faulty.network()).run(options);
  expectSimEqual(incremental, full);
  EXPECT_FALSE(incremental.converged);
  EXPECT_EQ(incremental.flapping.count(P("10.0.0.0/16")), 1u);
}

// ---------------------------------------------------------------------------
// Memory regression: converging runs hold no per-round RIB history.
// ---------------------------------------------------------------------------

TEST(SimulatorMemory, ConvergingRunRetainsNoRibHistory) {
  // A long-converging backbone ring: before the rewrite the simulator kept
  // one deep Rib copy (plus one string snapshot) per round; now the cycle
  // re-derivation counter must stay untouched on every converging run.
  acr::Scenario scenario = acr::backboneScenario(16);
  util::Counter& history =
      util::MetricsRegistry::global().counter("sim.full.history_ribs");
  const std::uint64_t before = history.value();
  const SimResult sim = Simulator(scenario.network()).run();
  EXPECT_TRUE(sim.converged);
  EXPECT_GT(sim.rounds, 4);  // genuinely many rounds, not a trivial network
  EXPECT_EQ(history.value(), before);
}

TEST(SimulatorMemory, OscillationPathRederivesExactlyOnce) {
  const acr::Scenario faulty = acr::figure2Scenario(true);
  util::Counter& history =
      util::MetricsRegistry::global().counter("sim.full.history_ribs");
  const std::uint64_t before = history.value();
  const SimResult sim = Simulator(faulty.network()).run();
  EXPECT_FALSE(sim.converged);
  EXPECT_EQ(sim.flapping.count(P("10.0.0.0/16")), 1u);
  EXPECT_EQ(history.value(), before + 1);
}

// ---------------------------------------------------------------------------
// SimResult lookup-cache copy semantics.
// ---------------------------------------------------------------------------

TEST(SimResultCache, CopiesGetIndependentLookupState) {
  acr::Scenario scenario = acr::dcnScenario(2, 2);
  const SimResult sim = Simulator(scenario.network()).run(deltaOptions());
  const std::map<net::Prefix, Route> routes = sim.rib.routesOf("tor1_1");
  ASSERT_FALSE(routes.empty());
  const net::Ipv4Address probe = routes.begin()->first.address();
  ASSERT_NE(sim.lookup("tor1_1", probe), nullptr);  // cache built on original

  SimResult copy = sim;
  copy.rib.clearRouter("tor1_1");  // mutate the copy before its first lookup
  EXPECT_EQ(copy.lookup("tor1_1", probe), nullptr);
  EXPECT_NE(sim.lookup("tor1_1", probe), nullptr);
}

}  // namespace
}  // namespace acr::route
