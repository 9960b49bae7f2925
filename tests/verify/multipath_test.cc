// ECMP / multipath verification: equal-cost sets in the simulator, branch
// exploration in the data plane, and the verifier catching faults hidden
// behind path diversity (which single-best-path verification misses).
#include <gtest/gtest.h>

#include "core/scenarios.hpp"
#include "verify/verifier.hpp"

namespace acr::verify {
namespace {

net::Ipv4Address A(const char* text) { return *net::Ipv4Address::parse(text); }

net::FiveTuple packet(const char* src, const char* dst) {
  net::FiveTuple p;
  p.src = A(src);
  p.dst = A(dst);
  p.protocol = net::Protocol::kTcp;
  p.dst_port = 80;
  return p;
}

TEST(Ecmp, SimulatorRecordsEqualCostSets) {
  const acr::Scenario scenario = acr::dcnScenario(2, 2);
  route::SimOptions options;
  options.enable_ecmp = true;
  const route::SimResult sim =
      route::Simulator(scenario.network()).run(options);
  ASSERT_TRUE(sim.converged);
  // tor1_1 reaches pod-2 servers through both of its aggs.
  const route::Route* route = sim.lookup("tor1_1", A("10.2.1.5"));
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->ecmp.size(), 2u);
  // Without the flag, no ECMP bookkeeping happens.
  const route::SimResult plain = route::Simulator(scenario.network()).run();
  EXPECT_TRUE(plain.lookup("tor1_1", A("10.2.1.5"))->ecmp.empty());
}

TEST(Ecmp, MultipathTraceExploresAllBranches) {
  const acr::Scenario scenario = acr::dcnScenario(2, 2);
  route::SimOptions options;
  options.enable_ecmp = true;
  const route::SimResult sim =
      route::Simulator(scenario.network()).run(options);
  const dp::DataPlane dataplane(scenario.network(), sim);
  const dp::MultiTrace multi =
      dataplane.traceMultipath(packet("10.1.1.7", "10.2.1.7"));
  EXPECT_GE(multi.paths.size(), 4u);  // 2 aggs x 2 cores at least
  EXPECT_TRUE(multi.allDelivered());
  EXPECT_EQ(multi.worst().outcome, dp::TraceOutcome::kDelivered);
  // Branch cap is honoured.
  const dp::MultiTrace capped =
      dataplane.traceMultipath(packet("10.1.1.7", "10.2.1.7"), 2);
  EXPECT_LE(capped.paths.size(), 2u);
  EXPECT_TRUE(capped.truncated);
}

TEST(Ecmp, SinglePathVerificationMissesHiddenBranchFault) {
  const acr::Scenario scenario = acr::dcnScenario(2, 2);
  topo::Network broken = scenario.network();
  // A control-plane fault on one branch self-heals (BGP withdraws the
  // branch from the ECMP set), so the genuinely hidden fault is a
  // data-plane one: core2 silently PBR-drops traffic towards pod 1 while
  // still advertising the routes.
  {
    cfg::PbrPolicy drop;
    drop.name = "OOPS";
    cfg::PbrRule deny;
    deny.index = 10;
    deny.action = cfg::PbrAction::kDeny;
    deny.destination = *net::Prefix::parse("10.1.0.0/16");
    drop.rules.push_back(deny);
    broken.config("core2")->pbr_policies.push_back(drop);
    broken.renumberAll();
  }

  const Verifier single(scenario.intents);
  EXPECT_TRUE(single.verify(broken).ok())
      << "single-path verification should be fooled by the healthy branch";

  const Verifier multipath(scenario.intents, {}, /*multipath=*/true);
  const VerifyResult verdict = multipath.verify(broken);
  EXPECT_GT(verdict.tests_failed, 0)
      << "multipath verification must catch the broken core2 branch";
  for (const auto* failure : verdict.failures()) {
    EXPECT_EQ(failure->trace.outcome, dp::TraceOutcome::kDroppedByPbr);
  }
}

TEST(Ecmp, CorrectNetworksPassMultipathVerification) {
  for (const char* family : {"figure2", "dcn", "backbone"}) {
    const acr::Scenario scenario = acr::scenarioByFamily(family);
    const Verifier multipath(scenario.intents, {}, /*multipath=*/true);
    EXPECT_TRUE(multipath.verify(scenario.network()).ok()) << family;
  }
}

TEST(Ecmp, MultiTraceWorstPrefersFailures) {
  dp::MultiTrace multi;
  dp::TraceResult good;
  good.outcome = dp::TraceOutcome::kDelivered;
  dp::TraceResult bad;
  bad.outcome = dp::TraceOutcome::kBlackhole;
  multi.paths = {good, bad};
  EXPECT_EQ(multi.worst().outcome, dp::TraceOutcome::kBlackhole);
  EXPECT_FALSE(multi.allDelivered());
  multi.paths = {good, good};
  EXPECT_TRUE(multi.allDelivered());
}

}  // namespace
}  // namespace acr::verify
