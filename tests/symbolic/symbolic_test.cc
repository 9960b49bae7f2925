// Selective symbolic simulation (src/symbolic, docs/symbolic.md): variable
// selection, constraint polarity, fork expansion, and the end-to-end claim —
// a multi-line multi-device fault that costs the concrete template loop one
// iteration per device is repaired in a single symbolic VALIDATE round,
// byte-identically at any --jobs value.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/ops.hpp"
#include "core/scenarios.hpp"
#include "localize/coverage.hpp"
#include "localize/sbfl.hpp"
#include "obs/record.hpp"
#include "repair/engine.hpp"
#include "routing/simulator.hpp"
#include "symbolic/symbolic.hpp"
#include "verify/verifier.hpp"

namespace acr::symb {
namespace {

net::Prefix P(const char* text) { return *net::Prefix::parse(text); }
net::Ipv4Address A(const char* text) { return *net::Ipv4Address::parse(text); }

verify::Intent intentOf(verify::IntentKind kind, const char* src,
                        const char* dst) {
  verify::Intent intent;
  intent.kind = kind;
  intent.name = std::string(src) + "->" + dst;
  intent.space.src_space = P(src);
  intent.space.dst_space = P(dst);
  return intent;
}

/// Simulates, runs the intent-derived suite and builds the repair context
/// inputs the way the engine's LOCALIZE stage does.
struct Localized {
  route::SimResult sim;
  std::vector<verify::TestResult> results;
  std::vector<std::set<cfg::LineId>> coverage;
  sbfl::Spectrum spectrum;

  Localized(const topo::Network& network,
            const std::vector<verify::Intent>& intents) {
    route::SimOptions options;
    options.record_provenance = true;
    sim = route::Simulator(network).run(options);
    const verify::Verifier verifier(intents, options);
    for (auto& result :
         verifier.runTests(network, sim, verify::generateTests(intents, 1))) {
      coverage.push_back(sbfl::coverageOf(network, sim, result));
      spectrum.addTest(coverage.back(), result.passed);
      results.push_back(std::move(result));
    }
  }
};

// ---------------------------------------------------------------------------
// The Table-1 "wrong local-pref on several routers" incident. Three border
// routers b1..b3 each import the 50.0/16 route from `bad` with local-pref
// 200; bad reaches 50.0/16 through `dead`, whose static route points back at
// bad — so everything steered onto the bad path loops. The healthy path via
// `good` loses on local-pref (and would win at parity: shorter-id tiebreak).
// Every border router must be fixed — the concrete loop needs one iteration
// per device, the symbolic pass solves all of them in one conjunction.
// ---------------------------------------------------------------------------
struct LocalPrefIncident {
  topo::Network network;
  std::vector<verify::Intent> intents;

  LocalPrefIncident() {
    auto& topology = network.topology;
    topology.addRouter({"b1", 65001, A("9.9.9.1"), "border"});
    topology.addRouter({"b2", 65002, A("9.9.9.2"), "border"});
    topology.addRouter({"b3", 65003, A("9.9.9.3"), "border"});
    topology.addRouter({"good", 65004, A("9.9.9.4"), "transit"});
    topology.addRouter({"bad", 65005, A("9.9.9.5"), "transit"});
    topology.addRouter({"dead", 65006, A("9.9.9.6"), "transit"});
    topology.addRouter({"dst", 65007, A("9.9.9.7"), "edge"});
    topology.addLink({"b1", "good", P("172.16.0.0/30")});
    topology.addLink({"b2", "good", P("172.16.0.4/30")});
    topology.addLink({"b3", "good", P("172.16.0.8/30")});
    topology.addLink({"b1", "bad", P("172.16.0.12/30")});
    topology.addLink({"b2", "bad", P("172.16.0.16/30")});
    topology.addLink({"b3", "bad", P("172.16.0.20/30")});
    topology.addLink({"good", "dst", P("172.16.0.24/30")});
    topology.addLink({"bad", "dead", P("172.16.0.28/30")});
    topology.addSubnet({"b1", P("10.1.0.0/16"), "stub1"});
    topology.addSubnet({"b2", P("10.2.0.0/16"), "stub2"});
    topology.addSubnet({"b3", P("10.3.0.0/16"), "stub3"});
    topology.addSubnet({"dst", P("50.0.0.0/16"), "target"});

    for (const auto& router : topology.routers()) {
      cfg::DeviceConfig device;
      device.hostname = router.name;
      cfg::BgpConfig bgp;
      bgp.asn = router.asn;
      bgp.router_id = router.router_id;
      bgp.redistributes.push_back({cfg::RedistSource::kConnected, 0});
      device.bgp = bgp;
      int interface_index = 0;
      for (const auto* link : topology.linksOf(router.name)) {
        cfg::InterfaceConfig itf;
        itf.name = "eth" + std::to_string(interface_index++);
        itf.address = link->addressOf(router.name);
        itf.prefix_length = 30;
        device.interfaces.push_back(itf);
        cfg::PeerConfig peer;
        const std::string other = link->otherEnd(router.name);
        peer.address = link->addressOf(other);
        peer.remote_as = topology.findRouter(other)->asn;
        device.bgp->peers.push_back(peer);
      }
      network.configs[router.name] = std::move(device);
    }
    attachSubnet("b1", A("10.1.0.1"), 16);
    attachSubnet("b2", A("10.2.0.1"), 16);
    attachSubnet("b3", A("10.3.0.1"), 16);
    attachSubnet("dst", A("50.0.0.1"), 16);

    // dead's static towards 50.0/16 points back at bad: resolvable (so it
    // installs and redistributes) but a forwarding loop in the data plane.
    cfg::DeviceConfig& dead = network.configs["dead"];
    cfg::StaticRouteConfig loop_route;
    loop_route.prefix = P("50.0.0.0/16");
    loop_route.next_hop = *topology.peeringAddress("bad", "dead");
    dead.static_routes.push_back(loop_route);
    dead.bgp->redistributes.push_back({cfg::RedistSource::kStatic, 0});

    // The fault: each border router pins local-pref 200 on bad's 50.0/16.
    for (const char* border : {"b1", "b2", "b3"}) {
      cfg::DeviceConfig& device = network.configs[border];
      cfg::PrefixList list;
      list.name = "BAD_LP";
      cfg::PrefixListEntry entry;
      entry.index = 10;
      entry.prefix = P("50.0.0.0/16");
      entry.greater_equal = 16;
      entry.less_equal = 32;
      list.entries.push_back(entry);
      device.prefix_lists.push_back(list);
      cfg::RoutePolicy policy;
      policy.name = "P_BAD";
      cfg::PolicyNode boost;
      boost.index = 10;
      boost.action = cfg::Action::kPermit;
      boost.matches.push_back(
          cfg::PolicyMatch{cfg::MatchKind::kIpPrefixList, "BAD_LP", 0});
      boost.actions.push_back(
          {cfg::PolicyActionKind::kSetLocalPref, 200, 0});
      policy.nodes.push_back(boost);
      cfg::PolicyNode rest;
      rest.index = 20;
      rest.action = cfg::Action::kPermit;
      policy.nodes.push_back(rest);
      device.policies.push_back(policy);
      const auto bad_address =
          network.topology.peeringAddress("bad", border);
      EXPECT_TRUE(bad_address.has_value());
      device.bgp->findPeer(*bad_address)->import_policy = "P_BAD";
    }
    network.renumberAll();

    for (const char* stub : {"10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16"}) {
      intents.push_back(
          intentOf(verify::IntentKind::kReachability, stub, "50.0.0.0/16"));
    }
    intents.push_back(intentOf(verify::IntentKind::kReachability,
                               "10.1.0.0/16", "10.2.0.0/16"));
    intents.push_back(intentOf(verify::IntentKind::kReachability,
                               "10.2.0.0/16", "10.3.0.0/16"));
    intents.push_back(intentOf(verify::IntentKind::kReachability,
                               "10.3.0.0/16", "10.1.0.0/16"));
  }

  void attachSubnet(const char* router, net::Ipv4Address address,
                    int length) {
    cfg::InterfaceConfig itf;
    itf.name = "lan0";
    itf.address = address;
    itf.prefix_length = length;
    network.configs[router].interfaces.push_back(itf);
  }
};

repair::RepairOptions symbolicOptions() {
  repair::RepairOptions options;
  options.symbolic = true;
  options.symbolic_max_variables = 8;
  options.symbolic_fork_budget = 8;
  return options;
}

TEST(SuspectDevices, ThresholdGatesAndKeepsRankOrder) {
  std::vector<sbfl::LineScore> ranked = {
      {cfg::LineId{"A", 1}, 1.0, 2, 0},
      {cfg::LineId{"B", 2}, 0.9, 1, 1},
      {cfg::LineId{"A", 3}, 0.8, 1, 2},
      {cfg::LineId{"C", 4}, 0.4, 1, 3},  // below 0.5 * top
      {cfg::LineId{"D", 5}, 0.9, 0, 1},  // no failure coverage
  };
  const auto devices = sbfl::suspectDevices(ranked, 0.5);
  ASSERT_EQ(devices.size(), 2u);
  EXPECT_EQ(devices[0], "A");
  EXPECT_EQ(devices[1], "B");
  // Lower threshold admits C; D never qualifies (failed_cover == 0).
  const auto wide = sbfl::suspectDevices(ranked, 0.1);
  ASSERT_EQ(wide.size(), 3u);
  EXPECT_EQ(wide[2], "C");
}

TEST(SuspectDevices, EmptyWhenNothingCoversAFailure) {
  std::vector<sbfl::LineScore> ranked = {{cfg::LineId{"A", 1}, 0.9, 0, 3}};
  EXPECT_TRUE(sbfl::suspectDevices(ranked, 0.5).empty());
}

TEST(CollectVariables, Figure2SymbolizesBothOverrideLists) {
  const acr::Scenario scenario = acr::figure2Scenario(true);
  const Localized l(scenario.network(), scenario.intents);
  const fix::RepairContext context{scenario.network(), l.sim,
                                   scenario.intents, l.results, l.coverage};
  const auto ranked = l.spectrum.rank(sbfl::Metric::kTarantula, 1);
  const auto vars = collectVariables(context, ranked, SymbolicOptions{});
  std::set<std::string> list_vars;
  for (const auto& var : vars) {
    if (var.kind == SymbolicVar::Kind::kPrefixList) {
      list_vars.insert(var.device + "/" + var.list);
    }
    EXPECT_FALSE(var.lines.empty()) << var.name;
  }
  // The incident's two catch-all override lists (A and C) are symbolized.
  EXPECT_TRUE(list_vars.count("A/default_all")) << list_vars.size();
  EXPECT_TRUE(list_vars.count("C/default_all"));
}

TEST(AccumulateConstraints, Figure2FailingTestsForkBothDevices) {
  const acr::Scenario scenario = acr::figure2Scenario(true);
  const Localized l(scenario.network(), scenario.intents);
  const fix::RepairContext context{scenario.network(), l.sim,
                                   scenario.intents, l.results, l.coverage};
  const auto ranked = l.spectrum.rank(sbfl::Metric::kTarantula, 1);
  const auto vars = collectVariables(context, ranked, SymbolicOptions{});
  ASSERT_FALSE(vars.empty());
  std::vector<SymbolicConstraint> base;
  std::vector<ForkGroup> forks;
  accumulateConstraints(context, vars, base, forks);
  ASSERT_FALSE(forks.empty());
  // The flapping 10.0/16 tests are covered by the override machinery on
  // both A and C: their fork group offers the flip on either (or both).
  std::set<std::string> fork_devices;
  for (const ForkGroup& group : forks) {
    for (const auto& name : group.variables) {
      fork_devices.insert(name.substr(3, 1));  // "pl:<device>/..."
    }
    ASSERT_EQ(group.variables.size(), group.alternatives.size());
  }
  EXPECT_TRUE(fork_devices.count("A"));
  EXPECT_TRUE(fork_devices.count("C"));
}

TEST(ProposeSymbolic, Figure2ModelRepairsInOneApplication) {
  const acr::Scenario scenario = acr::figure2Scenario(true);
  const Localized l(scenario.network(), scenario.intents);
  const fix::RepairContext context{scenario.network(), l.sim,
                                   scenario.intents, l.results, l.coverage};
  const auto ranked = l.spectrum.rank(sbfl::Metric::kTarantula, 1);
  const SymbolicOutcome outcome =
      proposeSymbolic(context, ranked, SymbolicOptions{});
  ASSERT_FALSE(outcome.proposals.empty());
  EXPECT_GT(outcome.variables, 0);
  EXPECT_GT(outcome.forks, 0);
  // Some proposed model resolves the incident outright.
  bool repaired = false;
  const verify::Verifier verifier(scenario.intents);
  for (const auto& proposal : outcome.proposals) {
    topo::Network updated = scenario.network();
    if (!proposal.apply(updated)) continue;
    const route::SimResult sim = route::Simulator(updated).run();
    if (sim.converged && verifier.verify(updated).ok()) repaired = true;
  }
  EXPECT_TRUE(repaired);
}

TEST(SymbolicEngine, MultiDeviceLocalPrefRepairedInOneRound) {
  const LocalPrefIncident incident;
  ASSERT_GT(verify::Verifier(incident.intents)
                .verify(incident.network)
                .tests_failed,
            0);
  const repair::AcrEngine engine(incident.intents, symbolicOptions());
  const repair::RepairResult result = engine.repair(incident.network);
  ASSERT_TRUE(result.success) << result.summary();
  // The whole multi-device fault resolves in a single VALIDATE round.
  EXPECT_EQ(result.iterations, 1) << result.summary();
  std::set<std::string> touched;
  for (const auto& diff : result.diff) touched.insert(diff.device);
  EXPECT_TRUE(touched.count("b1")) << result.summary();
  EXPECT_TRUE(touched.count("b2"));
  EXPECT_TRUE(touched.count("b3"));
}

TEST(SymbolicEngine, ConcreteLoopNeedsOneIterationPerDevice) {
  const LocalPrefIncident incident;
  repair::RepairOptions options;  // symbolic off: today's template loop
  const repair::AcrEngine engine(incident.intents, options);
  const repair::RepairResult result = engine.repair(incident.network);
  // Each border router needs its own change, so a successful concrete
  // repair cannot take fewer iterations than devices.
  if (result.success) {
    EXPECT_GE(result.iterations, 3) << result.summary();
  }
}

TEST(SymbolicEngine, RecordingByteIdenticalAtAnyJobs) {
  const LocalPrefIncident incident;
  const auto record = [&](int jobs) {
    repair::RepairOptions options = symbolicOptions();
    options.validate_jobs = jobs;
    obs::FlightRecorder recorder;
    recorder.beginRepair("lp-incident", 1, 1,
                         ops::repairOptionsJson(options));
    options.recorder = &recorder;
    const repair::AcrEngine engine(incident.intents, options);
    const repair::RepairResult result = engine.repair(incident.network);
    EXPECT_TRUE(result.success);
    return recorder.lines();
  };
  const auto serial = record(1);
  const auto parallel = record(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "line " << i;
  }
  // The recording carries the symbolic trail: the model proposal and smt
  // queries annotated with per-variable metadata and the model delta.
  bool symbolic_template = false, annotated_query = false;
  for (const auto& line : serial) {
    if (line.find("symbolic-model") != std::string::npos) {
      symbolic_template = true;
    }
    if (line.find("\"vars\":") != std::string::npos &&
        line.find("\"model_delta\":") != std::string::npos) {
      annotated_query = true;
    }
  }
  EXPECT_TRUE(symbolic_template);
  EXPECT_TRUE(annotated_query);
}

TEST(SymbolicEngine, SymbolicOffKnobsAreInert) {
  // With the flag off the knobs must not affect results at all.
  const acr::Scenario scenario = acr::figure2Scenario(true);
  repair::RepairOptions plain;
  repair::RepairOptions knobs;
  knobs.symbolic_suspicion = 0.01;
  knobs.symbolic_max_variables = 64;
  knobs.symbolic_fork_budget = 999;
  const repair::RepairResult a =
      repair::AcrEngine(scenario.intents, plain).repair(scenario.network());
  const repair::RepairResult b =
      repair::AcrEngine(scenario.intents, knobs).repair(scenario.network());
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.changes, b.changes);
  EXPECT_EQ(a.summary(), b.summary());
}

TEST(SymbolicEngine, FallbackReproducesConcreteRecordingExactly) {
  // A suspicion threshold nothing can meet forces the symbolic pass to
  // fall back before issuing any solver query — the run (results AND
  // recording bytes) must be indistinguishable from symbolic-off.
  const acr::Scenario scenario = acr::figure2Scenario(true);
  const auto record = [&](bool symbolic) {
    repair::RepairOptions options;
    options.symbolic = symbolic;
    options.symbolic_suspicion = 100.0;  // no device qualifies
    obs::FlightRecorder recorder;
    options.recorder = &recorder;
    const repair::RepairResult result =
        repair::AcrEngine(scenario.intents, options)
            .repair(scenario.network());
    EXPECT_TRUE(result.success);
    return std::make_pair(result.summary(), recorder.lines());
  };
  const auto off = record(false);
  const auto fallback = record(true);
  EXPECT_EQ(off.first, fallback.first);
  ASSERT_EQ(off.second.size(), fallback.second.size());
  for (std::size_t i = 0; i < off.second.size(); ++i) {
    EXPECT_EQ(off.second[i], fallback.second[i]) << "line " << i;
  }
}

// ---------------------------------------------------------------------------
// Prefix-set hole spanning devices: both aggregation filters of a dcn pod
// lose their VIP entry, so the pod's VIP range vanishes fabric-wide. The
// symbolic pass restores every holed list in one round.
// ---------------------------------------------------------------------------
struct DcnHoleIncident {
  acr::Scenario scenario = acr::dcnScenario(4, 2);
  std::vector<std::string> holed;

  DcnHoleIncident(std::initializer_list<int> pods) {
    for (int pod : pods) {
      for (const char* side : {"a", "b"}) {
        const std::string agg = "agg" + std::to_string(pod) + side;
        cfg::PrefixList* list =
            scenario.built.network.config(agg)->findPrefixList("POD_LOCAL");
        EXPECT_NE(list, nullptr) << agg;
        // Drop the 20.<pod>/16 VIP entry — the hole.
        list->entries.erase(list->entries.begin() + 1, list->entries.end());
        holed.push_back(agg);
      }
      // An explicit cross-pod probe of the holed pod's VIP range.
      const std::string vip =
          "20." + std::to_string(pod) + ".1.0/24";
      scenario.intents.push_back(
          intentOf(verify::IntentKind::kReachability,
                   pod == 1 ? "10.2.1.0/24" : "10.1.1.0/24", vip.c_str()));
    }
    scenario.built.network.renumberAll();
  }
};

TEST(SymbolicEngine, DcnCrossPodHolesRepairInOneRound) {
  const DcnHoleIncident incident({1, 2});
  ASSERT_GT(verify::Verifier(incident.scenario.intents)
                .verify(incident.scenario.network())
                .tests_failed,
            0);
  repair::RepairOptions options = symbolicOptions();
  options.symbolic_max_variables = 16;
  const repair::AcrEngine engine(incident.scenario.intents, options);
  const repair::RepairResult result =
      engine.repair(incident.scenario.network());
  ASSERT_TRUE(result.success) << result.summary();
  EXPECT_EQ(result.iterations, 1) << result.summary();
  // The repaired network keeps quarantine isolation intact (the QUAR deny
  // lists must not have been "fixed" open by the solver).
  const verify::VerifyResult check =
      verify::Verifier(incident.scenario.intents).verify(result.repaired);
  EXPECT_TRUE(check.ok());
}

}  // namespace
}  // namespace acr::symb
