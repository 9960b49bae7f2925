#include "config/cisco.hpp"

#include <gtest/gtest.h>

#include <string_view>

#include "routing/simulator.hpp"
#include "topo/generators.hpp"

namespace acr::cfg {
namespace {

TEST(Netmask, LengthToNetmask) {
  EXPECT_EQ(lengthToNetmask(0), "0.0.0.0");
  EXPECT_EQ(lengthToNetmask(8), "255.0.0.0");
  EXPECT_EQ(lengthToNetmask(16), "255.255.0.0");
  EXPECT_EQ(lengthToNetmask(24), "255.255.255.0");
  EXPECT_EQ(lengthToNetmask(30), "255.255.255.252");
  EXPECT_EQ(lengthToNetmask(32), "255.255.255.255");
}

TEST(Netmask, NetmaskToLength) {
  EXPECT_EQ(netmaskToLength("0.0.0.0"), 0);
  EXPECT_EQ(netmaskToLength("255.255.0.0"), 16);
  EXPECT_EQ(netmaskToLength("255.255.255.252"), 30);
  EXPECT_EQ(netmaskToLength("255.255.255.255"), 32);
  // Non-contiguous masks are rejected.
  EXPECT_FALSE(netmaskToLength("255.0.255.0").has_value());
  EXPECT_FALSE(netmaskToLength("0.255.0.0").has_value());
  EXPECT_FALSE(netmaskToLength("garbage").has_value());
}

TEST(CiscoParser, ParsesIosStyleSnippet) {
  const DeviceConfig device = parseCiscoDevice(
      "hostname A\n"
      "interface eth0\n"
      " ip address 172.16.0.1 255.255.255.252\n"
      "ip route 20.1.1.0 255.255.255.0 172.16.0.2\n"
      "router bgp 65001\n"
      " bgp router-id 1.1.1.2\n"
      " redistribute connected\n"
      " neighbor TORS peer-group\n"
      " neighbor TORS route-map TOR_IN in\n"
      " neighbor 172.16.0.2 remote-as 65002\n"
      " neighbor 172.16.0.2 peer-group TORS\n"
      "ip prefix-list default_all seq 10 permit 0.0.0.0/0\n"
      "route-map Override_All permit 10\n"
      " match ip address prefix-list default_all\n"
      " set as-path overwrite\n"
      "ip policy EDGE\n"
      " rule 10 permit source 0.0.0.0/0 destination 10.0.0.0/8\n");
  EXPECT_EQ(device.hostname, "A");
  ASSERT_EQ(device.interfaces.size(), 1u);
  EXPECT_EQ(device.interfaces[0].prefix_length, 30);
  ASSERT_EQ(device.static_routes.size(), 1u);
  EXPECT_EQ(device.static_routes[0].prefix.str(), "20.1.1.0/24");
  ASSERT_TRUE(device.bgp.has_value());
  EXPECT_EQ(device.bgp->asn, 65001u);
  ASSERT_EQ(device.bgp->groups.size(), 1u);
  EXPECT_EQ(device.bgp->groups[0].import_policy, "TOR_IN");
  ASSERT_EQ(device.bgp->peers.size(), 1u);
  EXPECT_EQ(device.bgp->peers[0].group, "TORS");
  EXPECT_EQ(device.prefix_lists[0].entries[0].prefix.length(), 0);
  const RoutePolicy* policy = device.findPolicy("Override_All");
  ASSERT_NE(policy, nullptr);
  EXPECT_EQ(policy->nodes[0].actions[0].kind,
            PolicyActionKind::kAsPathOverwrite);
  ASSERT_EQ(device.pbr_policies.size(), 1u);
}

TEST(CiscoParser, SetActionsRoundTrip) {
  const DeviceConfig device = parseCiscoDevice(
      "hostname X\n"
      "route-map P permit 10\n"
      " set as-path overwrite 64999\n"
      " set local-preference 250\n"
      " set metric 70\n"
      " set as-path prepend 3\n");
  const auto& actions = device.policies[0].nodes[0].actions;
  ASSERT_EQ(actions.size(), 4u);
  EXPECT_EQ(actions[0].value, 64999u);
  EXPECT_EQ(actions[1].kind, PolicyActionKind::kSetLocalPref);
  EXPECT_EQ(actions[2].kind, PolicyActionKind::kSetMed);
  EXPECT_EQ(actions[3].kind, PolicyActionKind::kAsPathPrepend);
  EXPECT_EQ(actions[3].value, 3u);
}

struct CiscoErrorCase {
  const char* text;
  int line;
};

// Prints the case as its offending line, e.g. "line 2: bgp notanumber".
// The parameterised test names carry this text, so it keeps them stable from
// build to build; the default printer dumps the bytes of the text pointer.
void PrintTo(const CiscoErrorCase& c, std::ostream* os) {
  std::string_view text = c.text;
  for (int i = 1; i < c.line; ++i) text.remove_prefix(text.find('\n') + 1);
  text = text.substr(0, text.find('\n'));
  while (!text.empty() && text.front() == ' ') text.remove_prefix(1);
  *os << "line " << c.line << ": " << text;
}

class CiscoErrors : public ::testing::TestWithParam<CiscoErrorCase> {};

TEST_P(CiscoErrors, Throws) {
  try {
    (void)parseCiscoDevice(GetParam().text);
    FAIL() << "expected ParseError";
  } catch (const ParseError& error) {
    EXPECT_EQ(error.line(), GetParam().line) << error.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CiscoErrors,
    ::testing::Values(
        CiscoErrorCase{"hostname X\nip route 10.0.0.0 255.0.255.0 1.2.3.4\n", 2},
        CiscoErrorCase{"hostname X\nrouter bgp 65001\n neighbor 1.2.3.4 "
                       "remote-as x\n",
                       3},
        CiscoErrorCase{"hostname X\nrouter bgp 65001\n neighbor G route-map "
                       "P in\n",
                       3},  // unknown peer-group
        CiscoErrorCase{"hostname X\nip prefix-list L seq 10 permit 10.0.0.0\n",
                       2},  // missing /len
        CiscoErrorCase{"hostname X\nroute-map P permit 10\n set nonsense 5\n",
                       3},
        CiscoErrorCase{"hostname X\nip policy E\n rule 10 permit source "
                       "0.0.0.0/0\n",
                       3},
        CiscoErrorCase{"hostname X\nbogus\n", 2}));

// The decisive property: Cisco rendering is line-for-line parallel to the
// canonical (Huawei) rendering, so (device, line) SBFL coordinates are
// dialect-independent; and parsing the Cisco rendering reproduces the exact
// AST (asserted through the canonical renderer).
class CiscoRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(CiscoRoundTrip, LineParallelAndAstFaithful) {
  topo::BuiltNetwork built;
  const std::string family = GetParam();
  if (family == "figure2") {
    built = topo::buildFigure2Faulty();
  } else if (family == "dcn") {
    built = topo::buildDcn(3, 2);
  } else {
    built = topo::buildBackbone(8);
  }
  for (const auto& [name, device] : built.network.configs) {
    const std::vector<std::string> cisco = renderCiscoLines(device);
    ASSERT_EQ(static_cast<int>(cisco.size()), device.lineCount()) << name;
    const DeviceConfig reparsed = parseCiscoDevice(renderCisco(device));
    EXPECT_EQ(reparsed.render(), device.render()) << name;
    // And the Cisco renderer is stable under its own round trip.
    EXPECT_EQ(renderCisco(reparsed), renderCisco(device)) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, CiscoRoundTrip,
                         ::testing::Values("figure2", "dcn", "backbone"));

TEST(CiscoRoundTrip, SimulationIsDialectIndependent) {
  // Re-ingest the whole faulty Figure-2 network through the Cisco dialect
  // and check the simulator reproduces the same oscillation.
  topo::BuiltNetwork built = topo::buildFigure2Faulty();
  topo::Network reingested = built.network;
  for (auto& [name, device] : reingested.configs) {
    device = parseCiscoDevice(renderCisco(device));
  }
  const route::SimResult original = route::Simulator(built.network).run();
  const route::SimResult cisco = route::Simulator(reingested).run();
  EXPECT_EQ(original.converged, cisco.converged);
  EXPECT_EQ(original.flapping, cisco.flapping);
}

TEST(Dialect, RenderAsAndParseAs) {
  const topo::BuiltNetwork built = topo::buildFigure2();
  const DeviceConfig& device = built.network.configs.at("A");
  const std::string huawei = renderAs(device, Dialect::kHuawei);
  const std::string cisco = renderAs(device, Dialect::kCisco);
  EXPECT_NE(huawei, cisco);
  EXPECT_EQ(parseAs(huawei, Dialect::kHuawei).render(), device.render());
  EXPECT_EQ(parseAs(cisco, Dialect::kCisco).render(), device.render());
}

TEST(Dialect, Detection) {
  EXPECT_EQ(detectDialect("hostname A\nrouter bgp 65001\n"), Dialect::kCisco);
  EXPECT_EQ(detectDialect("hostname A\nbgp 65001\n peer 1.2.3.4 as-number 1\n"),
            Dialect::kHuawei);
  EXPECT_EQ(detectDialect("ip prefix-list L seq 5 permit 10.0.0.0/8\n"),
            Dialect::kCisco);
  EXPECT_EQ(detectDialect("ip prefix-list L index 5 permit 10.0.0.0 8\n"),
            Dialect::kHuawei);
}

}  // namespace
}  // namespace acr::cfg
