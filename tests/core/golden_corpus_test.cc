// Golden corpus: testdata/figure2-incident is a committed export of the
// paper's incident, loaded from disk by the serialization layer. This pins
// the on-disk format (a format change that cannot read old exports fails
// here) and doubles as the sample dataset the README points users at.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/acr.hpp"

namespace acr {
namespace {

// ACR_SOURCE_DIR is the repository root (tests/CMakeLists.txt), so the
// corpus is found from any build directory, in-tree or not.
std::string corpusDir() {
  const std::filesystem::path dir =
      std::filesystem::path(ACR_SOURCE_DIR) / "testdata" / "figure2-incident";
  return std::filesystem::exists(dir / "topology.acr") ? dir.string() : "";
}

TEST(GoldenCorpus, LoadsAndReproducesTheIncident) {
  const std::string dir = corpusDir();
  ASSERT_FALSE(dir.empty()) << "testdata/figure2-incident not found under "
                            << ACR_SOURCE_DIR;
  const Scenario scenario = loadScenario(dir);
  EXPECT_EQ(scenario.network().configs.size(), 4u);
  EXPECT_FALSE(scenario.intents.empty());

  // The committed artifact IS the incident: 10.0/16 flaps.
  const route::SimResult sim = route::Simulator(scenario.network()).run();
  EXPECT_FALSE(sim.converged);
  EXPECT_EQ(sim.flapping.count(*net::Prefix::parse("10.0.0.0/16")), 1u);

  // And ACR repairs it.
  const repair::RepairResult result =
      repairNetwork(scenario.network(), scenario.intents);
  EXPECT_TRUE(result.success) << result.summary();
}

TEST(GoldenCorpus, MatchesTheInMemoryGenerator) {
  const std::string dir = corpusDir();
  ASSERT_FALSE(dir.empty());
  const Scenario loaded = loadScenario(dir);
  const Scenario generated = figure2Scenario(/*faulty=*/true);
  for (const auto& [name, device] : generated.network().configs) {
    const cfg::DeviceConfig* other = loaded.network().config(name);
    ASSERT_NE(other, nullptr) << name;
    EXPECT_EQ(other->render(), device.render()) << name;
  }
  EXPECT_EQ(loaded.intents.size(), generated.intents.size());
}

}  // namespace
}  // namespace acr
