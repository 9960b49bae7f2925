// Full network verification: simulate, trace one packet per test, judge
// every intent.
#pragma once

#include <string>
#include <vector>

#include "dataplane/trace.hpp"
#include "routing/simulator.hpp"
#include "topo/network.hpp"
#include "verify/intent.hpp"

namespace acr::verify {

struct TestResult {
  TestCase test;
  bool passed = false;
  std::string reason;  // why it failed (empty when passed)
  dp::TraceResult trace;
};

struct VerifyResult {
  int tests_run = 0;
  int tests_failed = 0;
  std::vector<TestResult> results;

  [[nodiscard]] bool ok() const { return tests_failed == 0; }
  [[nodiscard]] std::vector<const TestResult*> failures() const;
};

/// Judges a single already-traced test against its intent.
[[nodiscard]] bool judgeTest(const Intent& intent, const dp::TraceResult& trace,
                             std::string* reason);

class Verifier {
 public:
  explicit Verifier(std::vector<Intent> intents,
                    route::SimOptions sim_options = {})
      : intents_(std::move(intents)), sim_options_(sim_options) {}

  [[nodiscard]] const std::vector<Intent>& intents() const { return intents_; }

  /// Simulates `network` from scratch and runs the whole test suite.
  [[nodiscard]] VerifyResult verify(const topo::Network& network,
                                    int samples_per_intent = 1) const;

  /// Runs the test suite against an existing simulation (no re-simulation).
  [[nodiscard]] VerifyResult verifyWithSim(const topo::Network& network,
                                           const route::SimResult& sim,
                                           int samples_per_intent = 1) const;

  /// Runs an explicit set of tests against an existing simulation.
  [[nodiscard]] std::vector<TestResult> runTests(
      const topo::Network& network, const route::SimResult& sim,
      const std::vector<TestCase>& tests) const;

 private:
  std::vector<Intent> intents_;
  route::SimOptions sim_options_;
};

}  // namespace acr::verify
