#include "netcore/prefix.hpp"

#include <gtest/gtest.h>

namespace acr::net {
namespace {

Prefix P(const char* text) { return *Prefix::parse(text); }

TEST(Prefix, ParsesCidrAndShorthand) {
  EXPECT_EQ(P("10.0.0.0/16").str(), "10.0.0.0/16");
  EXPECT_EQ(P("10.0/16").str(), "10.0.0.0/16");  // the paper's notation
  EXPECT_EQ(P("10.70/16").str(), "10.70.0.0/16");
  EXPECT_EQ(P("1.2.3.4").length(), 32);  // bare address = /32
  EXPECT_EQ(P("0.0.0.0/0").length(), 0);
}

TEST(Prefix, RejectsMalformedInput) {
  EXPECT_FALSE(Prefix::parse("10.0.0.0/33").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/x").has_value());
  EXPECT_FALSE(Prefix::parse("/16").has_value());
  EXPECT_FALSE(Prefix::parse("").has_value());
}

TEST(Prefix, CanonicalizesHostBits) {
  EXPECT_EQ(Prefix(*Ipv4Address::parse("10.1.2.3"), 16).str(), "10.1.0.0/16");
  EXPECT_EQ(Prefix(*Ipv4Address::parse("255.255.255.255"), 0).str(),
            "0.0.0.0/0");
}

TEST(Prefix, ContainsAddress) {
  const Prefix p = P("10.0.0.0/16");
  EXPECT_TRUE(p.contains(*Ipv4Address::parse("10.0.0.1")));
  EXPECT_TRUE(p.contains(*Ipv4Address::parse("10.0.255.255")));
  EXPECT_FALSE(p.contains(*Ipv4Address::parse("10.1.0.0")));
  EXPECT_TRUE(P("0.0.0.0/0").contains(*Ipv4Address::parse("200.1.2.3")));
}

TEST(Prefix, ContainsPrefix) {
  EXPECT_TRUE(P("10.0.0.0/8").contains(P("10.5.0.0/16")));
  EXPECT_TRUE(P("10.0.0.0/16").contains(P("10.0.0.0/16")));
  EXPECT_FALSE(P("10.5.0.0/16").contains(P("10.0.0.0/8")));
  EXPECT_FALSE(P("10.0.0.0/16").contains(P("10.1.0.0/16")));
}

TEST(Prefix, Overlaps) {
  EXPECT_TRUE(P("10.0.0.0/8").overlaps(P("10.5.0.0/16")));
  EXPECT_TRUE(P("10.5.0.0/16").overlaps(P("10.0.0.0/8")));
  EXPECT_FALSE(P("10.0.0.0/16").overlaps(P("10.1.0.0/16")));
}

TEST(Prefix, FirstLastAddress) {
  const Prefix p = P("10.0.0.0/30");
  EXPECT_EQ(p.firstAddress().str(), "10.0.0.0");
  EXPECT_EQ(p.lastAddress().str(), "10.0.0.3");
  EXPECT_EQ(P("0.0.0.0/0").lastAddress().str(), "255.255.255.255");
}

TEST(Prefix, Children) {
  const auto [left, right] = P("10.0.0.0/16").children();
  EXPECT_EQ(left.str(), "10.0.0.0/17");
  EXPECT_EQ(right.str(), "10.0.128.0/17");
}

TEST(PrefixSubtract, DisjointLeavesOriginal) {
  const auto pieces = subtract(P("10.0.0.0/16"), P("20.0.0.0/16"));
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], P("10.0.0.0/16"));
}

TEST(PrefixSubtract, CoveredYieldsEmpty) {
  EXPECT_TRUE(subtract(P("10.5.0.0/16"), P("10.0.0.0/8")).empty());
  EXPECT_TRUE(subtract(P("10.0.0.0/16"), P("10.0.0.0/16")).empty());
}

TEST(PrefixSubtract, SplitsAroundInnerPrefix) {
  // 10.0.0.0/8 minus 10.128.0.0/16: expect /9../16 siblings covering the rest.
  const auto pieces = subtract(P("10.0.0.0/8"), P("10.128.0.0/16"));
  ASSERT_EQ(pieces.size(), 8u);  // lengths 9..16
  std::uint64_t total = 0;
  for (const auto& piece : pieces) {
    EXPECT_FALSE(piece.overlaps(P("10.128.0.0/16")));
    EXPECT_TRUE(P("10.0.0.0/8").contains(piece));
    total += std::uint64_t{1} << (32 - piece.length());
  }
  EXPECT_EQ(total, (std::uint64_t{1} << 24) - (std::uint64_t{1} << 16));
}

TEST(PrefixSubtract, MultipleRemovals) {
  const std::vector<Prefix> removes = {P("10.0.0.0/16"), P("10.1.0.0/16")};
  const auto pieces = subtract(P("10.0.0.0/8"), std::span<const Prefix>(removes));
  std::uint64_t total = 0;
  for (const auto& piece : pieces) {
    EXPECT_FALSE(piece.overlaps(removes[0]));
    EXPECT_FALSE(piece.overlaps(removes[1]));
    total += std::uint64_t{1} << (32 - piece.length());
  }
  EXPECT_EQ(total, (std::uint64_t{1} << 24) - 2 * (std::uint64_t{1} << 16));
  // Sibling /16s under one /15 must have been merged away by minimizeCover.
  for (const auto& piece : pieces) {
    EXPECT_NE(piece, P("10.2.0.0/16"));  // 10.2/16+10.3/16 merge into 10.2/15
  }
}

TEST(MinimizeCover, DropsContainedAndMergesSiblings) {
  auto cover = minimizeCover(
      {P("10.0.0.0/16"), P("10.0.0.0/24"), P("10.1.0.0/16")});
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0], P("10.0.0.0/15"));
}

TEST(MinimizeCover, KeepsDisjointPrefixes) {
  auto cover = minimizeCover({P("10.0.0.0/16"), P("10.2.0.0/16")});
  EXPECT_EQ(cover.size(), 2u);
}

TEST(MinimizeCover, EmptyInput) {
  EXPECT_TRUE(minimizeCover({}).empty());
}

struct SubtractCase {
  const char* from;
  const char* remove;
};

// Keeps the parameterised test names readable and stable from build to build;
// the default printer dumps the bytes of the two string pointers.
void PrintTo(const SubtractCase& c, std::ostream* os) {
  *os << c.from << " minus " << c.remove;
}

class SubtractProperty : public ::testing::TestWithParam<SubtractCase> {};

TEST_P(SubtractProperty, ExactPartition) {
  const Prefix from = P(GetParam().from);
  const Prefix remove = P(GetParam().remove);
  const auto pieces = subtract(from, remove);
  // Property 1: no piece overlaps the removed prefix.
  for (const auto& piece : pieces) {
    EXPECT_FALSE(piece.overlaps(remove)) << piece.str();
    EXPECT_TRUE(from.contains(piece)) << piece.str();
  }
  // Property 2: address counts add up exactly.
  const auto sizeOf = [](const Prefix& p) {
    return std::uint64_t{1} << (32 - p.length());
  };
  std::uint64_t total = 0;
  for (const auto& piece : pieces) total += sizeOf(piece);
  const std::uint64_t removed =
      from.overlaps(remove) ? sizeOf(from.contains(remove) ? remove : from) : 0;
  EXPECT_EQ(total, sizeOf(from) - removed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SubtractProperty,
    ::testing::Values(SubtractCase{"0.0.0.0/0", "10.0.0.0/16"},
                      SubtractCase{"10.0.0.0/8", "10.0.0.0/9"},
                      SubtractCase{"10.0.0.0/8", "10.255.255.255/32"},
                      SubtractCase{"10.0.0.0/16", "10.0.128.0/17"},
                      SubtractCase{"10.0.0.0/16", "10.0.0.0/16"},
                      SubtractCase{"10.0.0.0/16", "192.168.0.0/24"},
                      SubtractCase{"0.0.0.0/0", "0.0.0.0/1"},
                      SubtractCase{"128.0.0.0/1", "192.0.0.0/2"}));

}  // namespace
}  // namespace acr::net
