#include "fixgen/change.hpp"

#include <gtest/gtest.h>

#include "core/scenarios.hpp"
#include "localize/coverage.hpp"
#include "routing/policy_eval.hpp"

namespace acr::fix {
namespace {

net::Prefix P(const char* text) { return *net::Prefix::parse(text); }

/// Builds a full RepairContext for a (possibly mutated) network.
struct Harness {
  acr::Scenario scenario;
  topo::Network network;
  route::SimResult sim;
  std::vector<verify::TestResult> results;
  std::vector<std::set<cfg::LineId>> coverage;

  Harness(acr::Scenario s, topo::Network n)
      : scenario(std::move(s)), network(std::move(n)) {
    route::SimOptions options;
    options.record_provenance = true;
    sim = route::Simulator(network).run(options);
    const verify::Verifier verifier(scenario.intents, options);
    for (auto& result : verifier.runTests(
             network, sim, verify::generateTests(scenario.intents, 1))) {
      coverage.push_back(sbfl::coverageOf(network, sim, result));
      results.push_back(std::move(result));
    }
  }

  [[nodiscard]] RepairContext context() const {
    return RepairContext{network, sim, scenario.intents, results, coverage};
  }

  [[nodiscard]] cfg::LineId lineOf(const std::string& device,
                                   cfg::LineKind kind) const {
    const auto index = network.config(device)->buildLineIndex();
    for (const auto& [line, info] : index) {
      if (info.kind == kind) return cfg::LineId{device, line};
    }
    return cfg::LineId{device, 0};
  }

  [[nodiscard]] cfg::LineInfo infoOf(const cfg::LineId& line) const {
    return network.config(line.device)->buildLineIndex().at(line.line);
  }
};

TEST(Helpers, SubnetPrefixOfFallsBackToHost) {
  const acr::Scenario scenario = acr::figure2Scenario(false);
  EXPECT_EQ(subnetPrefixOf(scenario.network(),
                           *net::Ipv4Address::parse("10.0.3.4")),
            P("10.0.0.0/16"));
  EXPECT_EQ(subnetPrefixOf(scenario.network(),
                           *net::Ipv4Address::parse("99.1.2.3")),
            P("99.1.2.3/32"));
}

TEST(Helpers, CollectListConstraintsMatchesPaper) {
  // On the faulty Figure-2 network, A's default_all must collect
  // P ⊇ {20.0/16 (DCN tests pass through the override)} and F = {10.0/16}.
  const acr::Scenario scenario = acr::figure2Scenario(true);
  const Harness h(scenario, scenario.network());
  const cfg::DeviceConfig* a = h.network.config("A");
  const PrefixListConstraints constraints =
      collectListConstraints(h.context(), "A", *a->findPrefixList("default_all"));
  EXPECT_FALSE(constraints.forbidden.empty());
  for (const auto& prefix : constraints.forbidden) {
    EXPECT_EQ(prefix, P("10.0.0.0/16"));
  }
  bool has_dcn = false;
  for (const auto& prefix : constraints.required) {
    if (prefix == P("20.0.0.0/16")) has_dcn = true;
  }
  EXPECT_TRUE(has_dcn);
  const auto model = solveListModel(constraints);
  ASSERT_TRUE(model.has_value());
  for (const auto& piece : *model) {
    EXPECT_FALSE(piece.overlaps(P("10.0.0.0/16")));
  }
}

TEST(NarrowOverrideList, ProposesAndAppliesThePaperRepair) {
  const acr::Scenario scenario = acr::figure2Scenario(true);
  const Harness h(scenario, scenario.network());
  const auto tmpl = makeNarrowOverrideList();
  const cfg::DeviceConfig* a = h.network.config("A");
  const int entry_line = a->findPrefixList("default_all")->entries[0].line;
  const cfg::LineId line{"A", entry_line};
  ASSERT_TRUE(tmpl->appliesTo(cfg::LineKind::kPrefixListEntry));
  const auto proposals = tmpl->propose(h.context(), line, h.infoOf(line));
  ASSERT_FALSE(proposals.empty());
  topo::Network updated = h.network;
  ASSERT_TRUE(proposals[0].apply(updated));
  const cfg::PrefixList* list =
      updated.config("A")->findPrefixList("default_all");
  // The catch-all is gone; 10.0/16 no longer matches; 20.0/16 still does.
  EXPECT_FALSE(list->permits(P("10.0.0.0/16")));
  EXPECT_TRUE(list->permits(P("20.0.0.0/16")));
  // Applying a second time is rejected (catch-all already gone).
  EXPECT_FALSE(proposals[0].apply(updated));
}

TEST(NarrowOverrideList, NotProposedWithoutCatchAll) {
  const acr::Scenario scenario = acr::figure2Scenario(false);
  const Harness h(scenario, scenario.network());
  const auto tmpl = makeNarrowOverrideList();
  const cfg::DeviceConfig* a = h.network.config("A");
  const int entry_line = a->findPrefixList("default_all")->entries[0].line;
  const cfg::LineId line{"A", entry_line};
  EXPECT_TRUE(tmpl->propose(h.context(), line, h.infoOf(line)).empty());
}

TEST(FixOverrideAsn, ResetsExplicitWrongValue) {
  acr::Scenario scenario = acr::figure2Scenario(false);
  topo::Network broken = scenario.network();
  cfg::RoutePolicy* policy = broken.config("A")->findPolicy("Override_All");
  policy->nodes[0].actions[0].value = 64999;  // wrong AS written by override
  broken.renumberAll();
  const Harness h(scenario, broken);
  const auto tmpl = makeFixOverrideAsn();
  const int action_line = h.network.config("A")
                              ->findPolicy("Override_All")
                              ->nodes[0]
                              .actions[0]
                              .line;
  const cfg::LineId line{"A", action_line};
  const auto proposals = tmpl->propose(h.context(), line, h.infoOf(line));
  ASSERT_EQ(proposals.size(), 1u);
  topo::Network updated = h.network;
  ASSERT_TRUE(proposals[0].apply(updated));
  EXPECT_EQ(updated.config("A")
                ->findPolicy("Override_All")
                ->nodes[0]
                .actions[0]
                .value,
            0u);
}

TEST(AddStaticRouteAndRedistribute, RebuildsMissingOrigination) {
  acr::Scenario scenario = acr::dcnScenario(2, 2);
  topo::Network broken = scenario.network();
  cfg::DeviceConfig* owner = broken.config("tor1_1");
  owner->static_routes.clear();
  std::erase_if(owner->bgp->redistributes,
                [](const cfg::RedistributeConfig& redist) {
                  return redist.source == cfg::RedistSource::kStatic;
                });
  broken.renumberAll();
  const Harness h(scenario, broken);
  const auto tmpl = makeAddStaticRoute();
  const cfg::LineId line = h.lineOf("tor1_1", cfg::LineKind::kRedistribute);
  ASSERT_GT(line.line, 0);
  const auto proposals = tmpl->propose(h.context(), line, h.infoOf(line));
  ASSERT_FALSE(proposals.empty());
  topo::Network updated = h.network;
  ASSERT_TRUE(proposals[0].apply(updated));
  const cfg::DeviceConfig* fixed = updated.config("tor1_1");
  EXPECT_FALSE(fixed->static_routes.empty());
  EXPECT_TRUE(fixed->bgp->redistributes_source(cfg::RedistSource::kStatic));
}

TEST(AddRedistribute, SingleLineForm) {
  acr::Scenario scenario = acr::dcnScenario(2, 2);
  topo::Network broken = scenario.network();
  cfg::DeviceConfig* owner = broken.config("tor1_1");
  std::erase_if(owner->bgp->redistributes,
                [](const cfg::RedistributeConfig& redist) {
                  return redist.source == cfg::RedistSource::kStatic;
                });
  broken.renumberAll();
  const Harness h(scenario, broken);
  const auto tmpl = makeAddRedistribute();
  const cfg::LineId line = h.lineOf("tor1_1", cfg::LineKind::kStaticRoute);
  const auto proposals = tmpl->propose(h.context(), line, h.infoOf(line));
  ASSERT_FALSE(proposals.empty());
  topo::Network updated = h.network;
  ASSERT_TRUE(proposals[0].apply(updated));
  EXPECT_TRUE(updated.config("tor1_1")->bgp->redistributes_source(
      cfg::RedistSource::kStatic));
  // Idempotence guard.
  EXPECT_FALSE(proposals[0].apply(updated));
}

TEST(AddPbrPermit, InsertsBeforeTheDenyRule) {
  acr::Scenario scenario = acr::dcnScenario(2, 2);
  topo::Network broken = scenario.network();
  auto& rules = broken.config("tor1_1")->pbr_policies[0].rules;
  std::erase_if(rules,
                [](const cfg::PbrRule& rule) { return rule.index == 20; });
  broken.renumberAll();
  const Harness h(scenario, broken);
  const auto tmpl = makeAddPbrPermit();
  const cfg::LineId line = h.lineOf("tor1_1", cfg::LineKind::kPbrRule);
  const auto proposals = tmpl->propose(h.context(), line, h.infoOf(line));
  ASSERT_FALSE(proposals.empty());
  // One proposal per leaked destination subnet; apply them all (the engine
  // does this across evolution iterations).
  topo::Network updated = h.network;
  for (const auto& proposal : proposals) {
    EXPECT_TRUE(proposal.apply(updated));
  }
  const cfg::PbrPolicy* pbr = updated.config("tor1_1")->findPbr("EDGE");
  for (const char* dst : {"20.1.1.9", "20.2.1.9"}) {
    const cfg::PbrRule* hit = pbr->match(*net::Ipv4Address::parse("10.1.1.9"),
                                         *net::Ipv4Address::parse(dst));
    ASSERT_NE(hit, nullptr) << dst;
    EXPECT_EQ(hit->action, cfg::PbrAction::kPermit) << dst;
  }
}

TEST(RemovePbrRule, RemovesStrayRedirect) {
  acr::Scenario scenario = acr::dcnScenario(2, 2);
  topo::Network broken = scenario.network();
  cfg::PbrRule redirect;
  redirect.index = 5;
  redirect.action = cfg::PbrAction::kRedirect;
  redirect.redirect_next_hop = *net::Ipv4Address::parse("10.1.1.99");
  redirect.destination = P("20.0.0.0/8");
  auto& rules = broken.config("tor1_1")->pbr_policies[0].rules;
  rules.insert(rules.begin(), redirect);
  broken.renumberAll();
  const Harness h(scenario, broken);
  const auto tmpl = makeRemovePbrRule();
  const cfg::LineId line = h.lineOf("tor1_1", cfg::LineKind::kPbrRule);
  const auto proposals = tmpl->propose(h.context(), line, h.infoOf(line));
  ASSERT_FALSE(proposals.empty());
  topo::Network updated = h.network;
  ASSERT_TRUE(proposals[0].apply(updated));
  for (const auto& rule : updated.config("tor1_1")->findPbr("EDGE")->rules) {
    EXPECT_NE(rule.action, cfg::PbrAction::kRedirect);
  }
}

TEST(RestorePeerGroup, CopiesFromSameRoleDevice) {
  acr::Scenario scenario = acr::dcnScenario(2, 2);
  topo::Network broken = scenario.network();
  // Drop the TORS group on agg1a only (agg1b remains the donor).
  cfg::DeviceConfig* agg = broken.config("agg1a");
  agg->bgp->groups.clear();
  for (auto& peer : agg->bgp->peers) peer.group.clear();
  std::erase_if(agg->policies, [](const cfg::RoutePolicy& policy) {
    return policy.name == "TOR_IN";
  });
  broken.renumberAll();
  const Harness h(scenario, broken);
  const auto tmpl = makeRestorePeerGroup();
  const cfg::LineId line = h.lineOf("agg1a", cfg::LineKind::kPeerAs);
  const auto proposals = tmpl->propose(h.context(), line, h.infoOf(line));
  ASSERT_FALSE(proposals.empty());
  topo::Network updated = h.network;
  ASSERT_TRUE(proposals[0].apply(updated));
  const cfg::DeviceConfig* fixed = updated.config("agg1a");
  const cfg::PeerGroupConfig* group = fixed->bgp->findGroup("TORS");
  ASSERT_NE(group, nullptr);
  EXPECT_EQ(group->import_policy, "TOR_IN");
  EXPECT_NE(fixed->findPolicy("TOR_IN"), nullptr);   // policy copied
  EXPECT_NE(fixed->findPrefixList("QUAR"), nullptr);  // lists copied
  int enrolled = 0;
  for (const auto& peer : fixed->bgp->peers) {
    if (peer.group == "TORS") ++enrolled;
  }
  EXPECT_GT(enrolled, 0);
}

TEST(RemoveGroupMember, FlagsMinorityRolePeers) {
  acr::Scenario scenario = acr::dcnScenario(2, 2);
  topo::Network broken = scenario.network();
  // Wrongly enrol agg1a's core peers into TORS.
  cfg::DeviceConfig* agg = broken.config("agg1a");
  for (auto& peer : agg->bgp->peers) {
    if (peer.group.empty()) peer.group = "TORS";
  }
  broken.renumberAll();
  const Harness h(scenario, broken);
  const auto tmpl = makeRemoveGroupMember();
  const cfg::LineId line = h.lineOf("agg1a", cfg::LineKind::kPeerGroupRef);
  const auto proposals = tmpl->propose(h.context(), line, h.infoOf(line));
  ASSERT_GE(proposals.size(), 2u);  // both cores flagged
  topo::Network updated = h.network;
  ASSERT_TRUE(proposals[0].apply(updated));
  int grouped_cores = 0;
  for (const auto& peer : updated.config("agg1a")->bgp->peers) {
    const auto remote = updated.topology.routerAt(peer.address);
    if (remote && remote->rfind("core", 0) == 0 && peer.group == "TORS") {
      ++grouped_cores;
    }
  }
  EXPECT_EQ(grouped_cores, 1);  // one of the two was removed
}

TEST(RemovePolicyBinding, ClearsDenyAllLeftover) {
  acr::Scenario scenario = acr::dcnScenario(2, 2);
  topo::Network broken = scenario.network();
  // Leave MAINT enabled on the legacy ToR's single uplink.
  cfg::DeviceConfig* tor = broken.config("tor2_1");
  tor->bgp->peers[0].import_policy = "MAINT";
  broken.renumberAll();
  const Harness h(scenario, broken);
  const auto tmpl = makeRemovePolicyBinding();
  const cfg::LineId line = h.lineOf("tor2_1", cfg::LineKind::kPeerImport);
  const auto proposals = tmpl->propose(h.context(), line, h.infoOf(line));
  ASSERT_FALSE(proposals.empty());
  bool found = false;
  for (const auto& proposal : proposals) {
    if (proposal.description.find("MAINT") == std::string::npos) continue;
    topo::Network updated = h.network;
    ASSERT_TRUE(proposal.apply(updated));
    EXPECT_TRUE(updated.config("tor2_1")->bgp->peers[0].import_policy.empty());
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST(RestorePolicy, CopiesSameNamedPolicyFromDonor) {
  acr::Scenario scenario = acr::backboneScenario(6);
  topo::Network broken = scenario.network();
  cfg::DeviceConfig* r6 = broken.config("R6");
  std::erase_if(r6->policies, [](const cfg::RoutePolicy& policy) {
    return policy.name == "EXPORT_GUARD";
  });
  broken.renumberAll();
  const Harness h(scenario, broken);
  const auto tmpl = makeRestorePolicy();
  const cfg::LineId line = h.lineOf("R6", cfg::LineKind::kPeerAs);
  const auto proposals = tmpl->propose(h.context(), line, h.infoOf(line));
  ASSERT_FALSE(proposals.empty());
  EXPECT_NE(proposals[0].description.find("from R"), std::string::npos);
  topo::Network updated = h.network;
  ASSERT_TRUE(proposals[0].apply(updated));
  const cfg::RoutePolicy* restored = updated.config("R6")->findPolicy(
      "EXPORT_GUARD");
  ASSERT_NE(restored, nullptr);
  // The guard still denies the private range (copied, not permit-all).
  route::Route probe;
  probe.prefix = P("30.0.0.0/16");
  EXPECT_FALSE(
      route::applyRoutePolicy(*updated.config("R6"), "EXPORT_GUARD", probe, 0)
          .permitted);
}

TEST(FixPeerAs, SolvesTheConsistentValue) {
  acr::Scenario scenario = acr::dcnScenario(2, 2);
  topo::Network broken = scenario.network();
  // Corrupt the agg-side AS number towards the legacy ToR.
  cfg::DeviceConfig* agg = broken.config("agg2a");
  const auto tor_address =
      broken.topology.peeringAddress("tor2_1", "agg2a").value();
  cfg::PeerConfig* peer = agg->bgp->findPeer(tor_address);
  ASSERT_NE(peer, nullptr);
  const std::uint32_t actual = peer->remote_as;
  peer->remote_as = actual + 1000;
  broken.renumberAll();
  const Harness h(scenario, broken);
  const auto tmpl = makeFixPeerAs();
  const cfg::LineId line = h.lineOf("agg2a", cfg::LineKind::kPeerAs);
  const auto proposals = tmpl->propose(h.context(), line, h.infoOf(line));
  ASSERT_FALSE(proposals.empty());
  topo::Network updated = h.network;
  ASSERT_TRUE(proposals[0].apply(updated));
  EXPECT_EQ(updated.config("agg2a")->bgp->findPeer(tor_address)->remote_as,
            actual);
}

TEST(Registry, CoversAllLineKindsWithAtLeastOneTemplate) {
  EXPECT_EQ(defaultTemplates().size(), 13u);
  for (const cfg::LineKind kind :
       {cfg::LineKind::kStaticRoute, cfg::LineKind::kRedistribute,
        cfg::LineKind::kPeerAs, cfg::LineKind::kPeerGroupRef,
        cfg::LineKind::kPeerImport, cfg::LineKind::kPeerExport,
        cfg::LineKind::kGroup, cfg::LineKind::kGroupImport,
        cfg::LineKind::kPrefixListEntry, cfg::LineKind::kPolicyNode,
        cfg::LineKind::kPolicyMatch, cfg::LineKind::kPolicyAction,
        cfg::LineKind::kPbrRule, cfg::LineKind::kPbrHeader,
        cfg::LineKind::kInterfaceIp}) {
    EXPECT_FALSE(templatesFor(kind).empty()) << cfg::lineKindName(kind);
  }
  // Kinds with no sensible repair have no templates.
  EXPECT_TRUE(templatesFor(cfg::LineKind::kHostname).empty());
}

}  // namespace
}  // namespace acr::fix
