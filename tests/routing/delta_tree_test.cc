// DeltaTree byte-identity contract (docs/architecture.md §12).
//
// Every leaf of a candidate batch must be indistinguishable from a
// from-scratch run of that candidate — the same contract the one-shot
// run() honors, now with three forking levels: anchor → shared base edit →
// one cheap copy-on-write leaf per candidate. The sweep below replays the
// fault campaign's error catalog through single-leaf trees in both
// directions (and cross-checks each leaf against the one-shot run's
// verdict), then exercises the tree-specific machinery:
// base-node sharing, exact leaf rollback, per-leaf fallback isolation and
// the undo-log-derived anchor diff.
#include "routing/delta_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <utility>
#include <vector>

#include "core/scenarios.hpp"
#include "faultinject/faults.hpp"
#include "routing/simulator.hpp"

namespace acr::route {
namespace {

SimOptions treeOptions() {
  SimOptions options;
  options.record_provenance = false;
  return options;
}

std::vector<std::string> devicesOf(const std::vector<cfg::ConfigDiff>& diffs) {
  std::vector<std::string> devices;
  for (const auto& diff : diffs) devices.push_back(diff.device);
  return devices;
}

/// Field-level equality of two simulation results — the same contract
/// delta_test.cc enforces for the one-shot run. `rounds`, announcements
/// and provenance are deliberately outside the tree's identity contract.
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
      EXPECT_EQ(entry_it->second.key(), route.key())
          << "router " << router << " prefix " << prefix.str();
      ++entry_it;
    }
  }
}

/// A narrow candidate edit: a static route to a fresh prefix, resolving
/// through the ToR's connected servers subnet (10.p.t.0/24, interface .1).
void addStaticRoute(topo::Network& network, const std::string& tor, int p,
                    int t, std::uint8_t index) {
  network.config(tor)->static_routes.push_back(cfg::StaticRouteConfig{
      net::Prefix(net::Ipv4Address::fromOctets(10, 201, index, 0), 24),
      net::Ipv4Address::fromOctets(10, static_cast<std::uint8_t>(p),
                                   static_cast<std::uint8_t>(t), 11),
      0});
  network.renumberAll();
}

// ---------------------------------------------------------------------------
// The campaign sweep: every Table-1 error type, both directions, with the
// one-shot run as the cross-check.
// ---------------------------------------------------------------------------

class TreeEquivalence : public ::testing::TestWithParam<inject::FaultType> {};

void expectLeafMatchesFullRun(const topo::Network& anchor_network,
                              const topo::Network& leaf_network,
                              const std::vector<std::string>& changed) {
  const SimOptions options = treeOptions();
  const SimResult anchor = Simulator(anchor_network).run(options);
  const SimResult full = Simulator(leaf_network).run(options);

  TreeLeafStats delta_stats;
  const SimResult incremental = DeltaTree(anchor_network, anchor, options)
                                    .run(leaf_network, changed, &delta_stats);
  expectSimEqual(incremental, full);

  DeltaTree tree(anchor_network, anchor, options);
  bool visited = false;
  tree.leaf(leaf_network, changed,
            [&](const SimResult& view, const TreeLeafStats& stats) {
              visited = true;
              expectSimEqual(view, full);
              // A leaf must fall back exactly when the one-shot run does,
              // for the same rule.
              EXPECT_EQ(stats.used_delta, delta_stats.used_delta);
              EXPECT_EQ(stats.fallback_reason, delta_stats.fallback_reason);
            });
  EXPECT_TRUE(visited);
}

TEST_P(TreeEquivalence, InjectedFaultMatchesFullRun) {
  const inject::FaultSpec& spec = inject::specOf(GetParam());
  acr::Scenario scenario = acr::scenarioByFamily(spec.scenario);
  inject::FaultInjector injector(11);
  const auto incident = injector.inject(scenario.built, GetParam());
  ASSERT_TRUE(incident.has_value()) << spec.label;
  expectLeafMatchesFullRun(scenario.network(), incident->network,
                           devicesOf(incident->injected_diff));
}

TEST_P(TreeEquivalence, RepairedFaultMatchesFullRun) {
  const inject::FaultSpec& spec = inject::specOf(GetParam());
  acr::Scenario scenario = acr::scenarioByFamily(spec.scenario);
  inject::FaultInjector injector(11);
  const auto incident = injector.inject(scenario.built, GetParam());
  ASSERT_TRUE(incident.has_value()) << spec.label;
  expectLeafMatchesFullRun(incident->network, scenario.network(),
                           devicesOf(incident->injected_diff));
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultTypes, TreeEquivalence,
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
// Base-node sharing and leaf rollback.
// ---------------------------------------------------------------------------

/// dcn-2x2 batch fixture: a wide shared base edit (agg1a's pod-local
/// import filter loses its VIP half) plus narrow per-candidate edits.
struct Batch {
  acr::Scenario scenario = acr::dcnScenario(2, 2);
  SimOptions options = treeOptions();
  SimResult anchor;
  topo::Network base;

  Batch() : anchor(Simulator(scenario.network()).run(options)) {
    base = scenario.network();
    auto& lists = base.config("agg1a")->prefix_lists;
    for (auto& list : lists) {
      if (list.name == "POD_LOCAL" && list.entries.size() > 1) {
        list.entries.pop_back();
      }
    }
    base.renumberAll();
  }
};

TEST(DeltaTreeBatch, LeavesOffSharedBaseMatchFullRuns) {
  Batch batch;
  DeltaTree tree(batch.scenario.network(), batch.anchor, batch.options);
  tree.setBase(batch.base, {"agg1a"});
  ASSERT_TRUE(tree.usable()) << tree.disabledReason();

  topo::Network leaf_a = batch.base;
  leaf_a.config("tor1_1")->bgp->redistributes.clear();
  leaf_a.renumberAll();
  topo::Network leaf_b = batch.base;
  addStaticRoute(leaf_b, "tor1_2", 1, 2, 0);
  topo::Network leaf_c = batch.base;
  addStaticRoute(leaf_c, "tor2_2", 2, 2, 1);

  const std::vector<std::pair<const topo::Network*, std::string>> leaves = {
      {&leaf_a, "tor1_1"}, {&leaf_b, "tor1_2"}, {&leaf_c, "tor2_2"}};
  for (const auto& [network, device] : leaves) {
    const SimResult full = Simulator(*network).run(batch.options);
    bool visited = false;
    tree.leaf(*network, {device},
              [&](const SimResult& view, const TreeLeafStats& stats) {
                visited = true;
                EXPECT_TRUE(stats.used_delta) << stats.fallback_reason;
                expectSimEqual(view, full);
              });
    EXPECT_TRUE(visited) << device;
  }
}

TEST(DeltaTreeBatch, LeafRollbackIsExact) {
  // Evaluating A, then B, then A again must reproduce A byte-for-byte —
  // the rollback restored every entry B touched, nothing more or less.
  Batch batch;
  DeltaTree tree(batch.scenario.network(), batch.anchor, batch.options);
  tree.setBase(batch.base, {"agg1a"});

  topo::Network leaf_a = batch.base;
  leaf_a.config("tor1_1")->bgp->redistributes.clear();
  leaf_a.renumberAll();
  topo::Network leaf_b = batch.base;
  addStaticRoute(leaf_b, "tor1_2", 1, 2, 0);

  SimResult first;
  SimResult again;
  tree.leaf(leaf_a, {"tor1_1"},
            [&](const SimResult& view, const TreeLeafStats&) { first = view; });
  tree.leaf(leaf_b, {"tor1_2"},
            [&](const SimResult&, const TreeLeafStats&) {});
  tree.leaf(leaf_a, {"tor1_1"},
            [&](const SimResult& view, const TreeLeafStats&) { again = view; });
  expectSimEqual(again, first);
  expectSimEqual(first, Simulator(leaf_a).run(batch.options));
}

TEST(DeltaTreeBatch, NoOpLeafReproducesBaseInOneRound) {
  Batch batch;
  DeltaTree tree(batch.scenario.network(), batch.anchor, batch.options);
  tree.setBase(batch.base, {"agg1a"});

  const SimResult full = Simulator(batch.base).run(batch.options);
  tree.leaf(batch.base, {},
            [&](const SimResult& view, const TreeLeafStats& stats) {
              EXPECT_TRUE(stats.used_delta) << stats.fallback_reason;
              EXPECT_LE(stats.rounds, 1);
              EXPECT_EQ(stats.work_items, 0u);
              expectSimEqual(view, full);
            });
}

TEST(DeltaTreeBatch, ChangedVsAnchorIsTheExactRibDiff) {
  Batch batch;
  DeltaTree tree(batch.scenario.network(), batch.anchor, batch.options);
  tree.setBase(batch.base, {"agg1a"});

  topo::Network leaf = batch.base;
  addStaticRoute(leaf, "tor1_2", 1, 2, 0);

  tree.leaf(leaf, {"tor1_2"},
            [&](const SimResult& view, const TreeLeafStats& stats) {
              ASSERT_TRUE(stats.used_delta) << stats.fallback_reason;
              // Brute-force diff of the leaf fixpoint against the anchor.
              std::vector<std::pair<std::string, net::Prefix>> expected;
              for (const std::string& router : view.rib.routers()) {
                const std::map<net::Prefix, Route> routes =
                    view.rib.routesOf(router);
                const std::map<net::Prefix, Route> anchor_routes =
                    batch.anchor.rib.routesOf(router);
                for (const auto& [prefix, route] : routes) {
                  const auto old_it = anchor_routes.find(prefix);
                  if (old_it == anchor_routes.end() ||
                      old_it->second.key() != route.key()) {
                    expected.emplace_back(router, prefix);
                  }
                }
                for (const auto& [prefix, route] : anchor_routes) {
                  if (routes.find(prefix) == routes.end()) {
                    expected.emplace_back(router, prefix);
                  }
                }
              }
              std::vector<std::pair<std::string, net::Prefix>> actual =
                  stats.changed_vs_anchor;
              std::sort(actual.begin(), actual.end());
              std::sort(expected.begin(), expected.end());
              EXPECT_EQ(actual, expected);
              // The leaf's own static route must be part of the diff.
              EXPECT_NE(std::find(actual.begin(), actual.end(),
                                  std::make_pair(std::string("tor1_2"),
                                                 net::Prefix(
                                                     net::Ipv4Address::
                                                         fromOctets(10, 201,
                                                                    0, 0),
                                                     24))),
                        actual.end());
            });
}

// ---------------------------------------------------------------------------
// Fallback forking: leaf-level violations stay on their leaf; anchor- and
// base-level violations disable the tree but never corrupt results.
// ---------------------------------------------------------------------------

TEST(DeltaTreeFallback, LeafFallbackDoesNotPoisonSiblings) {
  Batch batch;
  DeltaTree tree(batch.scenario.network(), batch.anchor, batch.options);
  tree.setBase(batch.base, {"agg1a"});

  topo::Network good_a = batch.base;
  good_a.config("tor1_1")->bgp->redistributes.clear();
  good_a.renumberAll();
  // Corrupting a peer statement's remote-as flips that session down: the
  // flow graph changed, which the tree may not patch — this leaf must run
  // the full engine.
  topo::Network bad = batch.base;
  bad.config("tor2_1")->bgp->peers.front().remote_as += 1000;
  bad.renumberAll();
  topo::Network good_b = batch.base;
  addStaticRoute(good_b, "tor1_2", 1, 2, 0);

  bool checked_bad = false;
  tree.leaf(good_a, {"tor1_1"},
            [&](const SimResult& view, const TreeLeafStats& stats) {
              EXPECT_TRUE(stats.used_delta) << stats.fallback_reason;
              expectSimEqual(view, Simulator(good_a).run(batch.options));
            });
  tree.leaf(bad, {"tor2_1"},
            [&](const SimResult& view, const TreeLeafStats& stats) {
              checked_bad = true;
              EXPECT_FALSE(stats.used_delta);
              EXPECT_EQ(stats.fallback_reason, "session-state-changed");
              expectSimEqual(view, Simulator(bad).run(batch.options));
            });
  EXPECT_TRUE(checked_bad);
  EXPECT_TRUE(tree.usable());  // the sibling's violation is not sticky
  tree.leaf(good_b, {"tor1_2"},
            [&](const SimResult& view, const TreeLeafStats& stats) {
              EXPECT_TRUE(stats.used_delta) << stats.fallback_reason;
              expectSimEqual(view, Simulator(good_b).run(batch.options));
            });
}

TEST(DeltaTreeFallback, ProvenanceAnchorMissingDisablesTheTree) {
  acr::Scenario scenario = acr::dcnScenario(2, 2);
  SimOptions provenance_options;  // record_provenance defaults to true
  // The anchor ran without provenance, so a provenance-recording tree has
  // no derivations to fork from and must disable itself.
  const SimResult anchor = Simulator(scenario.network()).run(treeOptions());

  DeltaTree tree(scenario.network(), anchor, provenance_options);
  EXPECT_FALSE(tree.usable());
  EXPECT_EQ(tree.disabledReason(), "provenance-anchor-missing");

  topo::Network leaf = scenario.network();
  leaf.config("tor1_1")->bgp->redistributes.clear();
  leaf.renumberAll();
  tree.leaf(leaf, {"tor1_1"},
            [&](const SimResult& view, const TreeLeafStats& stats) {
              EXPECT_FALSE(stats.used_delta);
              EXPECT_EQ(stats.fallback_reason, "provenance-anchor-missing");
              expectSimEqual(view, Simulator(leaf).run(provenance_options));
            });
}

TEST(DeltaTreeFallback, ProvenanceAnchorEngagesTheTree) {
  acr::Scenario scenario = acr::dcnScenario(2, 2);
  SimOptions provenance_options;  // record_provenance defaults to true
  const SimResult anchor =
      Simulator(scenario.network()).run(provenance_options);

  DeltaTree tree(scenario.network(), anchor, provenance_options);
  ASSERT_TRUE(tree.usable()) << tree.disabledReason();

  topo::Network leaf = scenario.network();
  leaf.config("tor1_1")->bgp->redistributes.clear();
  leaf.renumberAll();
  bool checked = false;
  tree.leaf(leaf, {"tor1_1"},
            [&](const SimResult& view, const TreeLeafStats& stats) {
              checked = true;
              EXPECT_TRUE(stats.used_delta) << stats.fallback_reason;
              EXPECT_GT(stats.reused_derivations, 0u);
              EXPECT_FALSE(view.provenance.empty());
              expectSimEqual(view, Simulator(leaf).run(provenance_options));
            });
  EXPECT_TRUE(checked);
}

TEST(DeltaTreeFallback, BaseViolationDisablesFromSetBaseOn) {
  Batch batch;
  DeltaTree tree(batch.scenario.network(), batch.anchor, batch.options);
  ASSERT_TRUE(tree.usable());

  // A base whose sessions differ from the anchor's cannot form a shared
  // node; every leaf then falls back to a full run, still byte-correct.
  topo::Network bad_base = batch.scenario.network();
  bad_base.config("tor2_1")->bgp->peers.front().remote_as += 1000;
  bad_base.renumberAll();
  tree.setBase(bad_base, {"tor2_1"});
  EXPECT_FALSE(tree.usable());
  EXPECT_EQ(tree.disabledReason(), "session-state-changed");

  topo::Network leaf = bad_base;
  addStaticRoute(leaf, "tor1_2", 1, 2, 0);
  tree.leaf(leaf, {"tor1_2"},
            [&](const SimResult& view, const TreeLeafStats& stats) {
              EXPECT_FALSE(stats.used_delta);
              EXPECT_EQ(stats.fallback_reason, "session-state-changed");
              expectSimEqual(view, Simulator(leaf).run(batch.options));
            });
}

}  // namespace
}  // namespace acr::route
