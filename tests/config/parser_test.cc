#include "config/parser.hpp"

#include <gtest/gtest.h>

#include <string_view>

#include "topo/generators.hpp"

namespace acr::cfg {
namespace {

TEST(Parser, ParsesFigure2StyleSnippet) {
  // The shape of Figure 2b in the paper.
  const DeviceConfig device = parseDevice(
      "hostname A\n"
      "bgp 65001\n"
      " peer 10.1.1.2 as-number 65004\n"
      " peer 10.1.1.2 route-policy Override_All import\n"
      "ip prefix-list default_all index 10 permit 0.0.0.0 0\n"
      "route-policy Override_All permit node 10\n"
      " if-match ip-prefix default_all\n"
      " apply as-path overwrite\n");
  EXPECT_EQ(device.hostname, "A");
  ASSERT_TRUE(device.bgp.has_value());
  EXPECT_EQ(device.bgp->asn, 65001u);
  ASSERT_EQ(device.bgp->peers.size(), 1u);
  EXPECT_EQ(device.bgp->peers[0].remote_as, 65004u);
  EXPECT_EQ(device.bgp->peers[0].import_policy, "Override_All");
  ASSERT_EQ(device.prefix_lists.size(), 1u);
  EXPECT_EQ(device.prefix_lists[0].entries[0].prefix.str(), "0.0.0.0/0");
  const RoutePolicy* policy = device.findPolicy("Override_All");
  ASSERT_NE(policy, nullptr);
  ASSERT_EQ(policy->nodes.size(), 1u);
  EXPECT_EQ(policy->nodes[0].actions[0].kind,
            PolicyActionKind::kAsPathOverwrite);
}

TEST(Parser, ParsesAllApplyActions) {
  const DeviceConfig device = parseDevice(
      "hostname X\n"
      "route-policy P permit node 10\n"
      " apply as-path overwrite\n"
      " apply as-path overwrite 65009\n"
      " apply local-preference 200\n"
      " apply med 50\n"
      " apply as-path prepend 3\n");
  const auto& actions = device.policies[0].nodes[0].actions;
  ASSERT_EQ(actions.size(), 5u);
  EXPECT_EQ(actions[0].kind, PolicyActionKind::kAsPathOverwrite);
  EXPECT_EQ(actions[0].value, 0u);
  EXPECT_EQ(actions[1].value, 65009u);
  EXPECT_EQ(actions[2].kind, PolicyActionKind::kSetLocalPref);
  EXPECT_EQ(actions[2].value, 200u);
  EXPECT_EQ(actions[3].kind, PolicyActionKind::kSetMed);
  EXPECT_EQ(actions[4].kind, PolicyActionKind::kAsPathPrepend);
  EXPECT_EQ(actions[4].value, 3u);
}

TEST(Parser, ParsesPrefixListBounds) {
  const DeviceConfig device = parseDevice(
      "hostname X\n"
      "ip prefix-list L index 10 permit 10.0.0.0 16 greater-equal 17 "
      "less-equal 24\n"
      "ip prefix-list L index 20 deny 20.0.0.0 8\n");
  ASSERT_EQ(device.prefix_lists.size(), 1u);
  const auto& entries = device.prefix_lists[0].entries;
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].greater_equal, 17);
  EXPECT_EQ(entries[0].less_equal, 24);
  EXPECT_EQ(entries[1].action, Action::kDeny);
}

TEST(Parser, ParsesPbrRules) {
  const DeviceConfig device = parseDevice(
      "hostname X\n"
      "pbr policy EDGE\n"
      " rule 10 permit source 10.0.0.0 8 destination 20.0.0.0 16\n"
      " rule 15 redirect 10.0.0.9 source 0.0.0.0 0 destination 30.0.0.0 16\n"
      " rule 20 deny source 0.0.0.0 0 destination 0.0.0.0 0\n");
  const PbrPolicy* pbr = device.findPbr("EDGE");
  ASSERT_NE(pbr, nullptr);
  ASSERT_EQ(pbr->rules.size(), 3u);
  EXPECT_EQ(pbr->rules[1].action, PbrAction::kRedirect);
  EXPECT_EQ(pbr->rules[1].redirect_next_hop.str(), "10.0.0.9");
  EXPECT_EQ(pbr->rules[2].action, PbrAction::kDeny);
}

TEST(Parser, SkipsCommentsAndBlankLines) {
  const DeviceConfig device = parseDevice(
      "# leading comment\n"
      "hostname X\n"
      "\n"
      "! vendor comment\n"
      "bgp 65001\n");
  EXPECT_EQ(device.hostname, "X");
  EXPECT_TRUE(device.bgp.has_value());
}

struct ErrorCase {
  const char* text;
  int line;
};

// Prints the case as its offending line, e.g. "line 2: bgp notanumber".
// The parameterised test names carry this text, so it keeps them stable from
// build to build; the default printer dumps the bytes of the text pointer.
void PrintTo(const ErrorCase& c, std::ostream* os) {
  std::string_view text = c.text;
  for (int i = 1; i < c.line; ++i) text.remove_prefix(text.find('\n') + 1);
  text = text.substr(0, text.find('\n'));
  while (!text.empty() && text.front() == ' ') text.remove_prefix(1);
  *os << "line " << c.line << ": " << text;
}

class ParserErrors : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(ParserErrors, ReportsLineAndThrows) {
  try {
    (void)parseDevice(GetParam().text);
    FAIL() << "expected ParseError";
  } catch (const ParseError& error) {
    EXPECT_EQ(error.line(), GetParam().line) << error.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrors,
    ::testing::Values(
        ErrorCase{"hostname\n", 1},
        ErrorCase{"hostname X\nbogus statement\n", 2},
        ErrorCase{"hostname X\nbgp notanumber\n", 2},
        ErrorCase{"hostname X\nbgp 65001\nbgp 65002\n", 3},
        ErrorCase{"hostname X\nbgp 65001\n peer 1.2.3.999 as-number 1\n", 3},
        ErrorCase{"hostname X\nbgp 65001\n peer 1.2.3.4 as-number x\n", 3},
        ErrorCase{"hostname X\nbgp 65001\n peer-group G route-policy P "
                  "import\n",
                  3},  // group G undeclared
        ErrorCase{"hostname X\n ip address 1.2.3.4 24\n", 2},  // no block
        ErrorCase{"hostname X\nip prefix-list L index 10 permit 1.2.3.4\n", 2},
        ErrorCase{"hostname X\nip prefix-list L index 10 allow 1.2.3.4 24\n", 2},
        ErrorCase{"hostname X\nip route-static 10.0.0.0 16\n", 2},
        ErrorCase{"hostname X\nroute-policy P permit 10\n", 2},
        ErrorCase{"hostname X\nroute-policy P permit node 10\n apply "
                  "nonsense 5\n",
                  3},
        ErrorCase{"hostname X\nroute-policy P permit node 10\n if-match "
                  "as-path L\n",
                  3},
        ErrorCase{"hostname X\npbr policy E\n rule 10 permit source 0.0.0.0 "
                  "0\n",
                  3},
        ErrorCase{"hostname X\nbgp 65001\n redistribute ospf\n", 3},
        ErrorCase{"hostname X\ninterface eth0\n ip address 1.2.3.4 40\n", 3}));

TEST(Parser, TryParseCollectsErrors) {
  std::vector<std::string> errors;
  const auto config = tryParseDevice("hostname X\nnonsense\n", errors);
  EXPECT_FALSE(config.has_value());
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("line 2"), std::string::npos);
}

TEST(Parser, TryParseSucceeds) {
  std::vector<std::string> errors;
  const auto config = tryParseDevice("hostname X\n", errors);
  ASSERT_TRUE(config.has_value());
  EXPECT_TRUE(errors.empty());
}

// Round-trip property: parse(render(c)) == render-identical for every
// generated device config across all scenario families.
class ParserRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(ParserRoundTrip, RenderParseRenderIsIdentity) {
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
    const std::string rendered = device.render();
    const DeviceConfig reparsed = parseDevice(rendered);
    EXPECT_EQ(reparsed.render(), rendered) << name;
    EXPECT_EQ(reparsed.lineCount(), device.lineCount()) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, ParserRoundTrip,
                         ::testing::Values("figure2", "dcn", "backbone"));

}  // namespace
}  // namespace acr::cfg
