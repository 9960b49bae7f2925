// Rib::identicalTo must see a single differing route, both across unrelated
// SimTables (the name/content compare) and between copy-on-write forks of
// one Rib (the shared-page fast path must not hide a cloned page). The
// bench identity gates and the delta-vs-full checks rely on it returning
// false whenever one effective route differs.
#include "routing/rib.hpp"

#include <gtest/gtest.h>

#include "core/scenarios.hpp"
#include "routing/simulator.hpp"

namespace acr::route {
namespace {

SimOptions plainOptions() {
  SimOptions options;
  options.record_provenance = false;
  return options;
}

TEST(RibIdentity, SeparateRunsDifferingInLocalPrefAreNotIdentical) {
  const acr::Scenario scenario = acr::dcnScenario(2, 2);
  const SimResult base = Simulator(scenario.network()).run(plainOptions());
  const SimResult again = Simulator(scenario.network()).run(plainOptions());
  ASSERT_TRUE(base.converged);
  ASSERT_NE(base.rib.tables(), again.rib.tables());
  EXPECT_TRUE(base.rib.identicalTo(again.rib));

  // agg1a raises the local-pref of the pod-local routes its ToRs announce:
  // the same routes, learned the same way, with one attribute changed.
  topo::Network edited = scenario.network();
  cfg::RoutePolicy* tor_in = edited.config("agg1a")->findPolicy("TOR_IN");
  ASSERT_NE(tor_in, nullptr);
  bool edited_node = false;
  for (cfg::PolicyNode& node : tor_in->nodes) {
    if (node.index != 10) continue;  // the pod-local permit
    node.actions.push_back(
        cfg::PolicyAction{cfg::PolicyActionKind::kSetLocalPref, 200, 0});
    edited_node = true;
  }
  ASSERT_TRUE(edited_node);
  edited.renumberAll();
  const SimResult changed = Simulator(edited).run(plainOptions());
  ASSERT_TRUE(changed.converged);
  ASSERT_EQ(changed.rib.totalRoutes(), base.rib.totalRoutes());
  bool raised = false;
  for (const auto& [prefix, route] : changed.rib.routesOf("agg1a")) {
    raised = raised || route.local_pref == 200;
  }
  ASSERT_TRUE(raised);

  EXPECT_FALSE(base.rib.identicalTo(changed.rib));
  EXPECT_FALSE(changed.rib.identicalTo(base.rib));
}

TEST(RibIdentity, ClonedPageChangedIsNotIdentical) {
  const acr::Scenario scenario = acr::dcnScenario(2, 2);
  const SimResult base = Simulator(scenario.network()).run(plainOptions());
  ASSERT_TRUE(base.converged);
  const Rib& original = base.rib;

  const int rid = original.tables()->routers.idOf("tor1_1");
  const RibPage* page = original.page(rid);
  ASSERT_NE(page, nullptr);
  PrefixId pid = 0;
  while (pid < page->entries.size() && page->entries[pid].present == 0) ++pid;
  ASSERT_LT(pid, page->entries.size());

  Rib fork = original;  // shares every page
  EXPECT_TRUE(fork.identicalTo(original));

  RouteEntry entry = page->entries[pid];
  ++entry.med;
  fork.set(rid, pid, entry);  // clones tor1_1's page, changes one cell
  ASSERT_NE(fork.pageRef(rid), original.pageRef(rid));
  EXPECT_FALSE(fork.identicalTo(original));
  EXPECT_FALSE(original.identicalTo(fork));

  // The same cell written back: a cloned page with equal content is
  // identical again.
  fork.set(rid, pid, page->entries[pid]);
  EXPECT_TRUE(fork.identicalTo(original));
}

}  // namespace
}  // namespace acr::route
