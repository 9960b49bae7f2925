// Interner unit tests (ISSUE 7): dedup/round-trip, deterministic id
// assignment independent of interning history or worker count, and the
// id-width overflow guard.
//
// The determinism contract under test is the one intern.hpp states: ids are
// a function of the interning *sequence* only, seeding derives that
// sequence from the network alone, and clones preserve ids exactly — which
// is why verdicts are byte-identical at any `validate_jobs`
// (tests/repair/engine_parallel_test.cc checks the same property end to
// end through the repair engine).
#include "routing/intern.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/scenarios.hpp"
#include "routing/delta_tree.hpp"
#include "routing/simulator.hpp"
#include "util/thread_pool.hpp"

namespace acr::route {
namespace {

net::Prefix P(const char* text) { return *net::Prefix::parse(text); }

TEST(PrefixTable, DedupAndRoundTrip) {
  PrefixTable table;
  const PrefixId a = table.intern(P("10.0.0.0/16"));
  const PrefixId b = table.intern(P("10.1.0.0/16"));
  const PrefixId same_address_different_length = table.intern(P("10.0.0.0/24"));
  EXPECT_NE(a, b);
  EXPECT_NE(a, same_address_different_length);
  EXPECT_EQ(table.intern(P("10.0.0.0/16")), a);  // dedup
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.prefixOf(a), P("10.0.0.0/16"));
  EXPECT_EQ(table.prefixOf(b), P("10.1.0.0/16"));
  EXPECT_EQ(table.tryIdOf(P("10.1.0.0/16")), b);
  EXPECT_EQ(table.tryIdOf(P("192.168.0.0/24")), kNoId);
  EXPECT_GT(table.bytes(), 0u);
}

TEST(PrefixTable, SeededIdsSortLikeTheirPrefixes) {
  // Seeding interns the *sorted* universe, so id order must be prefix
  // order — the property that keeps id-ascending page walks byte-identical
  // to the old prefix-map iteration.
  const acr::Scenario scenario = acr::dcnScenario(2, 2);
  const SimTablesPtr tables = seedTables(scenario.network());
  ASSERT_GT(tables->prefixes.size(), 1u);
  for (PrefixId id = 1; id < tables->prefixes.size(); ++id) {
    EXPECT_LT(tables->prefixes.prefixOf(id - 1), tables->prefixes.prefixOf(id));
  }
}

TEST(PrefixTable, SeedingIsDeterministic) {
  // Ids derive from the network alone: two independent seedings assign the
  // same id to every prefix (and every router).
  const acr::Scenario scenario = acr::dcnScenario(2, 2);
  const SimTablesPtr a = seedTables(scenario.network());
  const SimTablesPtr b = seedTables(scenario.network());
  ASSERT_EQ(a->prefixes.size(), b->prefixes.size());
  for (PrefixId id = 0; id < a->prefixes.size(); ++id) {
    EXPECT_EQ(a->prefixes.prefixOf(id), b->prefixes.prefixOf(id));
  }
  ASSERT_EQ(a->routers.names, b->routers.names);
  EXPECT_EQ(a->routers.ids_by_name, b->routers.ids_by_name);
}

TEST(AsPathTable, DedupRoundTripAndMemoizedEdits) {
  AsPathTable table;
  EXPECT_EQ(table.lengthOf(0), 0u);  // id 0 is the empty path
  const std::vector<std::uint32_t> path = {65001, 65002, 65003};
  const AsPathId id = table.intern(path);
  EXPECT_NE(id, 0u);
  EXPECT_EQ(table.intern(path), id);  // dedup
  const auto stored = table.pathOf(id);
  ASSERT_EQ(stored.size(), 3u);
  EXPECT_TRUE(std::equal(stored.begin(), stored.end(), path.begin()));
  EXPECT_EQ(table.lengthOf(id), 3u);
  EXPECT_EQ(table.frontOf(id), 65001u);
  EXPECT_TRUE(table.contains(id, 65003));
  EXPECT_FALSE(table.contains(id, 65004));

  // Prepend is memoized and content-deduped: prepending onto the empty
  // path equals the singleton, and re-interning the grown contents finds
  // the same id the edit produced.
  const AsPathId grown = table.prepended(id, 64999);
  const std::vector<std::uint32_t> grown_contents = {64999, 65001, 65002,
                                                     65003};
  EXPECT_EQ(table.prepended(id, 64999), grown);
  EXPECT_EQ(table.intern(grown_contents), grown);
  EXPECT_EQ(table.singleton(65001), table.prepended(0, 65001));
}

TEST(SimTables, ClonesPreserveIdsUnderDivergentAppends) {
  // Incremental engines clone their baseline's tables and extend privately;
  // the clone must keep every existing id even as the two lineages append
  // different prefixes afterwards.
  const acr::Scenario scenario = acr::dcnScenario(2, 2);
  const SimTablesPtr base = seedTables(scenario.network());
  SimTables clone = *base;
  const PrefixId seeded = base->prefixes.tryIdOf(base->prefixes.prefixOf(0));
  EXPECT_EQ(clone.prefixes.tryIdOf(base->prefixes.prefixOf(0)), seeded);

  (void)clone.prefixes.intern(P("10.250.0.0/24"));
  (void)base->prefixes.intern(P("10.251.0.0/24"));
  const PrefixId in_clone = clone.prefixes.intern(P("10.252.0.0/24"));
  const PrefixId in_base = base->prefixes.intern(P("10.252.0.0/24"));
  // Appended ids are per-lineage, but each lineage round-trips its own.
  EXPECT_EQ(clone.prefixes.prefixOf(in_clone), P("10.252.0.0/24"));
  EXPECT_EQ(base->prefixes.prefixOf(in_base), P("10.252.0.0/24"));
  // The seeded range is untouched in both.
  for (PrefixId id = 0; id < scenario.network().configs.size(); ++id) {
    EXPECT_EQ(clone.prefixes.prefixOf(id), base->prefixes.prefixOf(id));
  }
}

TEST(InternTables, VerdictsIdenticalAtAnyWorkerCount) {
  // Four workers evaluating the same candidate concurrently (each run owns
  // a private clone of the baseline tables) must produce results
  // byte-identical to the sequential run — the interner-level half of the
  // `validate_jobs` stability contract.
  const acr::Scenario scenario = acr::dcnScenario(2, 2);
  SimOptions options;
  options.record_provenance = false;
  const SimResult baseline = Simulator(scenario.network()).run(options);
  ASSERT_TRUE(baseline.converged);

  topo::Network edited = scenario.network();
  edited.config("tor1_1")->bgp->redistributes.clear();
  edited.renumberAll();

  TreeLeafStats stats;
  const SimResult sequential = DeltaTree(scenario.network(), baseline, options)
                                   .run(edited, {"tor1_1"}, &stats);
  ASSERT_TRUE(stats.used_delta) << stats.fallback_reason;

  std::vector<SimResult> concurrent(4);
  util::parallelFor(4, 4, [&](int i) {
    concurrent[static_cast<std::size_t>(i)] =
        DeltaTree(scenario.network(), baseline, options)
            .run(edited, {"tor1_1"});
  });
  for (const SimResult& result : concurrent) {
    EXPECT_EQ(result.converged, sequential.converged);
    EXPECT_EQ(result.flapping, sequential.flapping);
    EXPECT_TRUE(result.rib.identicalTo(sequential.rib));
    EXPECT_EQ(result.rib.stateHash(), sequential.rib.stateHash());
  }
}

TEST(PrefixTable, OverflowGuardThrowsWithClearError) {
  PrefixTable table;
  table.capForTest(2);
  const PrefixId a = table.intern(P("10.0.0.0/24"));
  (void)table.intern(P("10.0.1.0/24"));
  try {
    (void)table.intern(P("10.0.2.0/24"));
    FAIL() << "expected std::length_error";
  } catch (const std::length_error& error) {
    EXPECT_NE(std::string(error.what()).find("prefix-id space exhausted"),
              std::string::npos);
  }
  // A failed intern must not corrupt the table: existing ids still resolve
  // and re-interning known contents still dedups.
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.intern(P("10.0.0.0/24")), a);
  EXPECT_EQ(table.tryIdOf(P("10.0.2.0/24")), kNoId);
}

TEST(AsPathTable, OverflowGuardThrowsWithClearError) {
  AsPathTable table;
  table.capForTest(2);  // id 0 (empty) + one more
  const std::vector<std::uint32_t> first = {65001};
  const std::vector<std::uint32_t> second = {65002};
  const AsPathId id = table.intern(first);
  try {
    (void)table.intern(second);
    FAIL() << "expected std::length_error";
  } catch (const std::length_error& error) {
    EXPECT_NE(std::string(error.what()).find("AS-path-id space exhausted"),
              std::string::npos);
  }
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.intern(first), id);
}

}  // namespace
}  // namespace acr::route
