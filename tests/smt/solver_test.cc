#include "smt/solver.hpp"

#include <gtest/gtest.h>

#include <random>
#include <thread>

namespace acr::smt {
namespace {

net::Prefix P(const char* text) { return *net::Prefix::parse(text); }

bool coverContains(const std::vector<net::Prefix>& cover,
                   const net::Prefix& prefix) {
  for (const auto& piece : cover) {
    if (piece.contains(prefix)) return true;
  }
  return false;
}

bool coverOverlaps(const std::vector<net::Prefix>& cover,
                   const net::Prefix& prefix) {
  for (const auto& piece : cover) {
    if (piece.overlaps(prefix)) return true;
  }
  return false;
}

TEST(Solver, PaperWorkedExample) {
  // §5: P = {10.70/16 ∈ var, 20.0/16 ∈ var}, F = {10.0/16 ∈ var};
  // one possible var is exactly {10.70/16, 20.0/16}.
  Solver solver;
  solver.requireMember("var", P("10.70.0.0/16"));
  solver.requireMember("var", P("20.0.0.0/16"));
  solver.requireNotMember("var", P("10.0.0.0/16"));
  const SolveResult result = solver.solve();
  ASSERT_TRUE(result.sat) << result.conflict;
  const auto& cover = result.model.prefix_sets.at("var");
  ASSERT_EQ(cover.size(), 2u);
  EXPECT_TRUE(coverContains(cover, P("10.70.0.0/16")));
  EXPECT_TRUE(coverContains(cover, P("20.0.0.0/16")));
  EXPECT_FALSE(coverOverlaps(cover, P("10.0.0.0/16")));
}

TEST(Solver, SplitsRequiredSuperPrefixAroundForbiddenSub) {
  Solver solver;
  solver.requireMember("var", P("10.0.0.0/8"));
  solver.requireNotMember("var", P("10.128.0.0/16"));
  const SolveResult result = solver.solve();
  ASSERT_TRUE(result.sat);
  const auto& cover = result.model.prefix_sets.at("var");
  EXPECT_FALSE(coverOverlaps(cover, P("10.128.0.0/16")));
  EXPECT_TRUE(coverContains(cover, P("10.0.0.0/16")));
  EXPECT_TRUE(coverContains(cover, P("10.200.0.0/16")));
}

TEST(Solver, UnsatWhenForbiddenContainsRequired) {
  Solver solver;
  solver.requireMember("var", P("10.5.0.0/16"));
  solver.requireNotMember("var", P("10.0.0.0/8"));
  const SolveResult result = solver.solve();
  EXPECT_FALSE(result.sat);
  EXPECT_FALSE(result.conflict.empty());
}

TEST(Solver, UnsatWhenRequiredEqualsForbidden) {
  Solver solver;
  solver.requireMember("var", P("10.0.0.0/16"));
  solver.requireNotMember("var", P("10.0.0.0/16"));
  EXPECT_FALSE(solver.solve().sat);
}

TEST(Solver, EmptyPrefixSetVariableGetsEmptyModel) {
  Solver solver;
  solver.declare("var", VarKind::kPrefixSet);
  const SolveResult result = solver.solve();
  ASSERT_TRUE(result.sat);
  EXPECT_TRUE(result.model.prefix_sets.at("var").empty());
}

TEST(Solver, ModelIsMinimized) {
  Solver solver;
  solver.requireMember("var", P("10.0.0.0/16"));
  solver.requireMember("var", P("10.1.0.0/16"));
  solver.requireMember("var", P("10.0.5.0/24"));  // contained in the first
  const SolveResult result = solver.solve();
  ASSERT_TRUE(result.sat);
  // 10.0/16 and 10.1/16 merge into 10.0.0.0/15; the /24 is swallowed.
  ASSERT_EQ(result.model.prefix_sets.at("var").size(), 1u);
  EXPECT_EQ(result.model.prefix_sets.at("var")[0], P("10.0.0.0/15"));
}

TEST(Solver, IntEquality) {
  Solver solver;
  solver.requireIntEq("asn", 65004);
  const SolveResult result = solver.solve();
  ASSERT_TRUE(result.sat);
  EXPECT_EQ(result.model.ints.at("asn"), 65004u);
}

TEST(Solver, IntConflictingEqualitiesUnsat) {
  Solver solver;
  solver.requireIntEq("asn", 1);
  solver.requireIntEq("asn", 2);
  EXPECT_FALSE(solver.solve().sat);
}

TEST(Solver, IntEqExcludedUnsat) {
  Solver solver;
  solver.requireIntEq("asn", 7);
  solver.requireIntNeq("asn", 7);
  EXPECT_FALSE(solver.solve().sat);
}

TEST(Solver, IntDomainRespectsExclusions) {
  Solver solver;
  solver.requireIntOneOf("x", {1, 2, 3});
  solver.requireIntNeq("x", 1);
  solver.requireIntNeq("x", 2);
  const SolveResult result = solver.solve();
  ASSERT_TRUE(result.sat);
  EXPECT_EQ(result.model.ints.at("x"), 3u);
}

TEST(Solver, IntDomainIntersection) {
  Solver solver;
  solver.requireIntOneOf("x", {1, 2, 3});
  solver.requireIntOneOf("x", {3, 4});
  const SolveResult result = solver.solve();
  ASSERT_TRUE(result.sat);
  EXPECT_EQ(result.model.ints.at("x"), 3u);
}

TEST(Solver, IntDomainExhaustedUnsat) {
  Solver solver;
  solver.requireIntOneOf("x", {1});
  solver.requireIntNeq("x", 1);
  EXPECT_FALSE(solver.solve().sat);
}

TEST(Solver, UnconstrainedIntPicksSmallestAllowed) {
  Solver solver;
  solver.requireIntNeq("x", 0);
  solver.requireIntNeq("x", 1);
  const SolveResult result = solver.solve();
  ASSERT_TRUE(result.sat);
  EXPECT_EQ(result.model.ints.at("x"), 2u);
}

TEST(Solver, MultipleVariablesSolvedIndependently) {
  Solver solver;
  solver.requireMember("lists", P("10.70.0.0/16"));
  solver.requireIntEq("asn", 65001);
  const SolveResult result = solver.solve();
  ASSERT_TRUE(result.sat);
  EXPECT_EQ(result.model.prefix_sets.size(), 1u);
  EXPECT_EQ(result.model.ints.size(), 1u);
}

TEST(Constraint, StrRendering) {
  Solver solver;
  solver.requireMember("var", P("10.0.0.0/16"));
  solver.requireIntOneOf("x", {1, 2});
  EXPECT_EQ(solver.constraints()[0].str(), "10.0.0.0/16 in var");
  EXPECT_EQ(solver.constraints()[1].str(), "x in {1, 2}");
  EXPECT_EQ(solver.variableCount(), 2u);
}

// Property sweep: solve then re-check the model against every constraint.
struct SolverCase {
  const char* name;
  std::vector<const char*> required;
  std::vector<const char*> forbidden;
  bool expect_sat;
};

// Names the parameterised tests after the case; the default printer dumps the
// bytes of the vectors' heap pointers, which change from build to build.
void PrintTo(const SolverCase& c, std::ostream* os) { *os << c.name; }

class SolverProperty : public ::testing::TestWithParam<SolverCase> {};

TEST_P(SolverProperty, ModelSatisfiesConstraints) {
  Solver solver;
  for (const char* text : GetParam().required) {
    solver.requireMember("var", P(text));
  }
  for (const char* text : GetParam().forbidden) {
    solver.requireNotMember("var", P(text));
  }
  const SolveResult result = solver.solve();
  ASSERT_EQ(result.sat, GetParam().expect_sat) << result.conflict;
  if (!result.sat) return;
  const auto& cover = result.model.prefix_sets.at("var");
  std::vector<net::Prefix> forbidden;
  for (const char* text : GetParam().forbidden) forbidden.push_back(P(text));
  for (const char* text : GetParam().required) {
    // The model must cover everything of the required prefix that is not
    // itself forbidden (a forbidden sub-range is carved out by subtraction).
    for (const auto& piece :
         net::subtract(P(text), std::span<const net::Prefix>(forbidden))) {
      EXPECT_TRUE(coverContains(cover, piece)) << text << " piece "
                                               << piece.str();
    }
  }
  for (const char* text : GetParam().forbidden) {
    EXPECT_FALSE(coverOverlaps(cover, P(text))) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SolverProperty,
    ::testing::Values(
        SolverCase{"forbidden disjoint from required",
                   {"10.70.0.0/16", "20.0.0.0/16"},
                   {"10.0.0.0/16"},
                   true},
        SolverCase{"forbidden hole in required", {"0.0.0.0/1"}, {"10.0.0.0/8"},
                   true},
        SolverCase{"three holes across two required",
                   {"10.0.0.0/8", "20.0.0.0/8"},
                   {"10.1.0.0/16", "20.31.0.0/16", "10.255.0.0/16"},
                   true},
        SolverCase{"forbidden covers required", {"10.0.0.0/16"},
                   {"0.0.0.0/0"}, false},
        SolverCase{"forbidden only", {}, {"10.0.0.0/8"}, true},
        SolverCase{"forbidden half of required", {"10.0.0.0/24"},
                   {"10.0.0.128/25"}, true}));

// --- satellite edge cases --------------------------------------------------

TEST(Solver, EmptyOneOfDomainIsUnsatWithConflict) {
  Solver solver;
  solver.requireIntOneOf("x", {});
  const SolveResult result = solver.solve();
  EXPECT_FALSE(result.sat);
  // The conflict names the offending constraint, not a generic exhaustion.
  EXPECT_NE(result.conflict.find("x in {}"), std::string::npos)
      << result.conflict;
  EXPECT_NE(result.conflict.find("empty one-of domain"), std::string::npos)
      << result.conflict;
}

TEST(Solver, IdenticalPrefixContradictionNamesBothConstraints) {
  Solver solver;
  solver.requireMember("var", P("10.0.0.0/16"));
  solver.requireNotMember("var", P("10.0.0.0/16"));
  const SolveResult result = solver.solve();
  ASSERT_FALSE(result.sat);
  EXPECT_NE(result.conflict.find("10.0.0.0/16 in var"), std::string::npos)
      << result.conflict;
  EXPECT_NE(result.conflict.find("10.0.0.0/16 not-in var"), std::string::npos)
      << result.conflict;
}

// --- ordering constraints and cross-variable propagation -------------------

TEST(Solver, IntLtGtBoundsInterval) {
  Solver solver;
  solver.requireIntGt("lp", 100);
  solver.requireIntLt("lp", 103);
  const SolveResult result = solver.solve();
  ASSERT_TRUE(result.sat) << result.conflict;
  EXPECT_EQ(result.model.ints.at("lp"), 101u);
}

TEST(Solver, IntLtZeroUnsat) {
  Solver solver;
  solver.requireIntLt("lp", 0);
  const SolveResult result = solver.solve();
  EXPECT_FALSE(result.sat);
  EXPECT_NE(result.conflict.find("lp < 0"), std::string::npos)
      << result.conflict;
}

TEST(Solver, IntEmptyIntervalUnsat) {
  Solver solver;
  solver.requireIntGt("lp", 10);
  solver.requireIntLt("lp", 10);
  EXPECT_FALSE(solver.solve().sat);
}

TEST(Solver, CrossVariableOrderingPropagates) {
  // a < b with b pinned to 100: a must land below 100; preferring 200 for a
  // must be overridden by the constraint, not honored.
  Solver solver;
  solver.requireIntLtVar("a", "b");
  solver.requireIntEq("b", 100);
  solver.preferInt("a", 200);
  const SolveResult result = solver.solve();
  ASSERT_TRUE(result.sat) << result.conflict;
  EXPECT_LT(result.model.ints.at("a"), result.model.ints.at("b"));
  EXPECT_EQ(result.model.ints.at("b"), 100u);
}

TEST(Solver, CrossVariableChainSolvesJointly) {
  // a < b < c with c ∈ {2}: forces a=0, b=1, c=2.
  Solver solver;
  solver.requireIntLtVar("a", "b");
  solver.requireIntLtVar("b", "c");
  solver.requireIntOneOf("c", {2});
  const SolveResult result = solver.solve();
  ASSERT_TRUE(result.sat) << result.conflict;
  EXPECT_EQ(result.model.ints.at("a"), 0u);
  EXPECT_EQ(result.model.ints.at("b"), 1u);
  EXPECT_EQ(result.model.ints.at("c"), 2u);
}

TEST(Solver, CrossVariableCycleUnsat) {
  Solver solver;
  solver.requireIntLtVar("a", "b");
  solver.requireIntGtVar("a", "b");
  EXPECT_FALSE(solver.solve().sat);
}

TEST(Solver, GtVarPrefersOriginalWhenFeasible) {
  // rival at 100, our lp must beat it; the original 200 already does, so the
  // minimal model keeps it (zero changed lines).
  Solver solver;
  solver.requireIntGt("lp", 100);
  solver.preferInt("lp", 200);
  const SolveResult result = solver.solve();
  ASSERT_TRUE(result.sat);
  EXPECT_EQ(result.model.ints.at("lp"), 200u);
}

// --- minimal-model preference for prefix sets ------------------------------

TEST(Solver, PreferredEntriesKeptWhenConsistent) {
  Solver solver;
  solver.preferPrefixes("var", {P("20.0.0.0/16"), P("30.0.0.0/16")});
  solver.requireMember("var", P("10.70.0.0/16"));
  const SolveResult result = solver.solve();
  ASSERT_TRUE(result.sat);
  const auto& cover = result.model.prefix_sets.at("var");
  // Original entries survive; only the uncovered requirement adds a piece.
  EXPECT_TRUE(coverContains(cover, P("20.0.0.0/16")));
  EXPECT_TRUE(coverContains(cover, P("30.0.0.0/16")));
  EXPECT_TRUE(coverContains(cover, P("10.70.0.0/16")));
}

TEST(Solver, PreferredEntryOverlappingForbiddenDropped) {
  Solver solver;
  solver.preferPrefixes("var", {P("10.0.0.0/8")});
  solver.requireMember("var", P("10.70.0.0/16"));
  solver.requireNotMember("var", P("10.0.0.0/16"));
  const SolveResult result = solver.solve();
  ASSERT_TRUE(result.sat);
  const auto& cover = result.model.prefix_sets.at("var");
  EXPECT_FALSE(coverOverlaps(cover, P("10.0.0.0/16")));
  EXPECT_TRUE(coverContains(cover, P("10.70.0.0/16")));
}

TEST(Solver, PreferredRequirementAlreadyCoveredAddsNothing) {
  Solver solver;
  solver.preferPrefixes("var", {P("10.0.0.0/8")});
  solver.requireMember("var", P("10.70.0.0/16"));
  const SolveResult result = solver.solve();
  ASSERT_TRUE(result.sat);
  const auto& cover = result.model.prefix_sets.at("var");
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0], P("10.0.0.0/8"));
}

// --- minimal-model property sweep (satellite) ------------------------------
//
// Random Member/NotMember sets: the returned cover must (a) satisfy every
// constraint, (b) be minimal — no piece can be removed without uncovering a
// required prefix or a kept preferred entry, and no two pieces merge.

TEST(Solver, MinimalModelPropertySweep) {
  std::mt19937 rng(1234);
  const auto randomPrefix = [&rng]() {
    std::uniform_int_distribution<int> len_dist(8, 24);
    const int len = len_dist(rng);
    std::uniform_int_distribution<std::uint32_t> addr_dist;
    // The constructor canonicalizes (masks host bits).
    return net::Prefix{net::Ipv4Address(addr_dist(rng)),
                       static_cast<std::uint8_t>(len)};
  };
  for (int round = 0; round < 200; ++round) {
    Solver solver;
    solver.declare("var", VarKind::kPrefixSet);
    std::vector<net::Prefix> required;
    std::vector<net::Prefix> forbidden;
    std::uniform_int_distribution<int> count_dist(0, 4);
    const int n_req = count_dist(rng);
    const int n_forb = count_dist(rng);
    for (int i = 0; i < n_req; ++i) required.push_back(randomPrefix());
    for (int i = 0; i < n_forb; ++i) forbidden.push_back(randomPrefix());
    for (const auto& p : required) solver.requireMember("var", p);
    for (const auto& p : forbidden) solver.requireNotMember("var", p);
    const SolveResult result = solver.solve();
    bool expect_sat = true;
    for (const auto& f : forbidden) {
      for (const auto& r : required) {
        if (f.contains(r)) expect_sat = false;
      }
    }
    ASSERT_EQ(result.sat, expect_sat) << "round " << round;
    if (!result.sat) continue;
    const auto& cover = result.model.prefix_sets.at("var");
    for (const auto& r : required) {
      for (const auto& piece :
           net::subtract(r, std::span<const net::Prefix>(forbidden))) {
        EXPECT_TRUE(coverContains(cover, piece)) << "round " << round;
      }
    }
    for (const auto& f : forbidden) {
      EXPECT_FALSE(coverOverlaps(cover, f)) << "round " << round;
    }
    // Minimality: every piece is load-bearing (overlaps some required
    // prefix), and the cover equals its own re-minimization.
    std::vector<net::Prefix> copy = cover;
    const auto reminimized = net::minimizeCover(std::move(copy));
    EXPECT_EQ(reminimized, cover) << "round " << round;
    for (const auto& piece : cover) {
      bool load_bearing = false;
      for (const auto& r : required) {
        if (piece.overlaps(r)) load_bearing = true;
      }
      EXPECT_TRUE(load_bearing) << "round " << round << " extra piece "
                                << piece.str();
    }
  }
}

// Determinism across threads: the solver is a pure function of its inputs.
// Running the same query concurrently from many threads (as `--jobs` fans
// out) must produce byte-identical rendered models.
TEST(Solver, DeterministicAcrossThreads) {
  const auto run = []() {
    Solver solver;
    solver.requireMember("var", P("10.0.0.0/8"));
    solver.requireNotMember("var", P("10.128.0.0/16"));
    solver.requireIntGt("lp", 100);
    solver.requireIntLtVar("lp", "peer");
    solver.requireIntEq("peer", 300);
    solver.preferInt("lp", 150);
    const SolveResult result = solver.solve();
    std::string rendered;
    for (const auto& [name, cover] : result.model.prefix_sets) {
      rendered += name + "=";
      for (const auto& p : cover) rendered += p.str() + ",";
    }
    for (const auto& [name, v] : result.model.ints) {
      rendered += name + "=" + std::to_string(v) + ";";
    }
    return rendered;
  };
  const std::string reference = run();
  EXPECT_NE(reference.find("lp=150"), std::string::npos) << reference;
  std::vector<std::string> results(8);
  std::vector<std::thread> threads;
  threads.reserve(results.size());
  for (std::string& slot : results) {
    threads.emplace_back([&slot, &run]() { slot = run(); });
  }
  for (auto& t : threads) t.join();
  for (const std::string& r : results) EXPECT_EQ(r, reference);
}

}  // namespace
}  // namespace acr::smt
