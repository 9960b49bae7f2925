#include "verify/incremental.hpp"

#include <gtest/gtest.h>

#include "core/scenarios.hpp"
#include "faultinject/faults.hpp"

namespace acr::verify {
namespace {

/// Compares differential verification against a from-scratch full run.
void expectEquivalent(const VerifyResult& incremental,
                      const VerifyResult& full) {
  ASSERT_EQ(incremental.tests_run, full.tests_run);
  EXPECT_EQ(incremental.tests_failed, full.tests_failed);
  for (int i = 0; i < full.tests_run; ++i) {
    EXPECT_EQ(incremental.results[i].passed, full.results[i].passed)
        << "test " << i;
  }
}

TEST(Incremental, BaselineMatchesFullVerifier) {
  const acr::Scenario scenario = acr::figure2Scenario(true);
  IncrementalVerifier incremental(scenario.intents);
  const VerifyResult base = incremental.baseline(scenario.network());
  const Verifier full(scenario.intents);
  expectEquivalent(base, full.verify(scenario.network()));
  EXPECT_EQ(incremental.stats().simulations, 1u);
}

TEST(Incremental, NoChangeSkipsEveryPassingTest) {
  const acr::Scenario scenario = acr::figure2Scenario(false);
  IncrementalVerifier incremental(scenario.intents);
  (void)incremental.baseline(scenario.network());
  incremental.resetStats();
  const VerifyResult again = incremental.update(scenario.network());
  EXPECT_TRUE(again.ok());
  EXPECT_EQ(incremental.stats().tests_reverified, 0u);
  EXPECT_EQ(incremental.stats().tests_skipped,
            static_cast<std::uint64_t>(again.tests_run));
}

TEST(Incremental, UpdateWithoutBaselineFallsBack) {
  const acr::Scenario scenario = acr::figure2Scenario(false);
  IncrementalVerifier incremental(scenario.intents);
  const VerifyResult result = incremental.update(scenario.network());
  EXPECT_TRUE(result.ok());
}

TEST(Incremental, DetectsRepairOfTheFlap) {
  // Baseline on the faulty network, then update with the corrected configs:
  // the previously failing tests must flip to passing.
  const acr::Scenario faulty = acr::figure2Scenario(true);
  const acr::Scenario correct = acr::figure2Scenario(false);
  IncrementalVerifier incremental(faulty.intents);
  const VerifyResult before = incremental.baseline(faulty.network());
  EXPECT_GT(before.tests_failed, 0);
  const VerifyResult after = incremental.update(correct.network());
  EXPECT_EQ(after.tests_failed, 0);
}

TEST(Incremental, DetectsPbrOnlyEdits) {
  // PBR edits never change FIBs; the changed-device rule must catch them.
  acr::Scenario scenario = acr::dcnScenario(2, 2);
  IncrementalVerifier incremental(scenario.intents);
  const VerifyResult before = incremental.baseline(scenario.network());
  EXPECT_TRUE(before.ok());

  topo::Network broken = scenario.network();
  auto& rules = broken.config("tor1_1")->pbr_policies[0].rules;
  std::erase_if(rules,
                [](const cfg::PbrRule& rule) { return rule.index == 20; });
  broken.renumberAll();

  const VerifyResult after = incremental.update(broken);
  const Verifier full(scenario.intents);
  expectEquivalent(after, full.verify(broken));
  EXPECT_GT(after.tests_failed, 0);
}

TEST(Incremental, ProbeMatchesUpdateWithoutMovingTheCache) {
  const acr::Scenario faulty = acr::figure2Scenario(true);
  const acr::Scenario correct = acr::figure2Scenario(false);
  IncrementalVerifier incremental(faulty.intents);
  const VerifyResult before = incremental.baseline(faulty.network());
  ASSERT_GT(before.tests_failed, 0);

  // Probe the corrected network: verdicts match a full verification...
  const VerifyResult probed =
      CandidateBatch(incremental, faulty.network())
          .probe(correct.network())
          .verdict;
  const Verifier full(faulty.intents);
  expectEquivalent(probed, full.verify(correct.network()));
  EXPECT_EQ(probed.tests_failed, 0);

  // ...but the cache still reflects the faulty anchor: re-probing the
  // faulty network reports the original failures.
  const VerifyResult reprobed =
      CandidateBatch(incremental, faulty.network())
          .probe(faulty.network())
          .verdict;
  EXPECT_EQ(reprobed.tests_failed, before.tests_failed);
}

TEST(Incremental, ProbeWithoutBaselineFallsBack) {
  const acr::Scenario scenario = acr::figure2Scenario(false);
  IncrementalVerifier incremental(scenario.intents);
  EXPECT_TRUE(CandidateBatch(incremental, scenario.network())
                  .probe(scenario.network())
                  .verdict.ok());
}

TEST(Incremental, FailuresAlwaysRechecked) {
  const acr::Scenario faulty = acr::figure2Scenario(true);
  IncrementalVerifier incremental(faulty.intents);
  const VerifyResult before = incremental.baseline(faulty.network());
  incremental.resetStats();
  const VerifyResult again = incremental.update(faulty.network());
  EXPECT_EQ(again.tests_failed, before.tests_failed);
  EXPECT_GE(incremental.stats().tests_reverified,
            static_cast<std::uint64_t>(before.tests_failed));
}

// Property sweep: for every fault type, incremental(update) ≡ full verify on
// the faulty network, and the skip counters show real savings for localized
// faults.
class IncrementalEquivalence
    : public ::testing::TestWithParam<inject::FaultType> {};

TEST_P(IncrementalEquivalence, MatchesFullVerification) {
  const inject::FaultSpec& spec = inject::specOf(GetParam());
  acr::Scenario scenario = acr::scenarioByFamily(spec.scenario);
  inject::FaultInjector injector(11);
  const auto incident = injector.inject(scenario.built, GetParam());
  ASSERT_TRUE(incident.has_value()) << spec.label;

  IncrementalVerifier incremental(scenario.intents);
  (void)incremental.baseline(scenario.network());
  const VerifyResult differential = incremental.update(incident->network);
  const Verifier full(scenario.intents);
  expectEquivalent(differential, full.verify(incident->network));
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultTypes, IncrementalEquivalence,
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

}  // namespace
}  // namespace acr::verify
