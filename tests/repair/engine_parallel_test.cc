// The batch VALIDATE contract: scoring a round's candidate updates as
// leaves of one delta tree over their population candidate yields a
// byte-identical RepairResult — including every counter — to forking each
// leaf off the verifier's anchor.
#include "repair/engine.hpp"

#include <gtest/gtest.h>

#include "core/scenarios.hpp"
#include "faultinject/faults.hpp"

namespace acr::repair {
namespace {

void expectIdentical(const RepairResult& a, const RepairResult& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.termination, b.termination);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.initial_failed, b.initial_failed);
  EXPECT_EQ(a.final_failed, b.final_failed);
  EXPECT_EQ(a.changes, b.changes);
  EXPECT_EQ(a.validations, b.validations);
  EXPECT_EQ(a.tests_reverified, b.tests_reverified);
  EXPECT_EQ(a.tests_skipped, b.tests_skipped);
  EXPECT_EQ(a.search_space, b.search_space);
  ASSERT_EQ(a.diff.size(), b.diff.size());
  for (std::size_t i = 0; i < a.diff.size(); ++i) {
    EXPECT_EQ(a.diff[i].str(), b.diff[i].str());
  }
}

RepairResult repairFigure2(bool batch_validate) {
  const acr::Scenario scenario = acr::figure2Scenario(true);
  RepairOptions options;
  options.seed = 23;
  options.batch_validate = batch_validate;
  return AcrEngine(scenario.intents, options).repair(scenario.network());
}

// Delta-tree batch evaluation is semantics-preserving: toggling
// batch_validate may change only the *recorded* sim label and node path,
// never a verdict, a counter or the repair itself.
TEST(EngineParallel, BatchValidateMatchesPerCandidate) {
  const RepairResult batched = repairFigure2(/*batch_validate=*/true);
  const RepairResult unbatched = repairFigure2(/*batch_validate=*/false);
  ASSERT_TRUE(batched.success);
  expectIdentical(batched, unbatched);
}

TEST(EngineParallel, BatchValidateMatchesOnInjectedDcnIncident) {
  acr::Scenario scenario = acr::dcnScenario(2, 2);
  inject::FaultInjector injector(13);
  const auto incident =
      injector.inject(scenario.built, inject::FaultType::kMissingPbrPermit);
  ASSERT_TRUE(incident.has_value());
  RepairOptions options;
  options.seed = 3;
  options.batch_validate = true;
  const RepairResult batched =
      AcrEngine(scenario.intents, options).repair(incident->network);
  options.batch_validate = false;
  const RepairResult unbatched =
      AcrEngine(scenario.intents, options).repair(incident->network);
  expectIdentical(batched, unbatched);
}

}  // namespace
}  // namespace acr::repair
