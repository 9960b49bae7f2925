#include "verify/verifier.hpp"

namespace acr::verify {

std::string intentKindName(IntentKind kind) {
  switch (kind) {
    case IntentKind::kReachability:
      return "reachability";
    case IntentKind::kIsolation:
      return "isolation";
    case IntentKind::kLoopFree:
      return "loop-free";
    case IntentKind::kBlackholeFree:
      return "blackhole-free";
  }
  return "?";
}

std::vector<TestCase> generateTests(const std::vector<Intent>& intents,
                                    int samples_per_intent) {
  std::vector<TestCase> tests;
  tests.reserve(intents.size() * static_cast<std::size_t>(samples_per_intent));
  for (std::size_t i = 0; i < intents.size(); ++i) {
    for (int s = 0; s < samples_per_intent; ++s) {
      tests.push_back(TestCase{
          static_cast<int>(i),
          intents[i].space.sample(static_cast<std::uint64_t>(s))});
    }
  }
  return tests;
}

std::vector<const TestResult*> VerifyResult::failures() const {
  std::vector<const TestResult*> out;
  for (const auto& result : results) {
    if (!result.passed) out.push_back(&result);
  }
  return out;
}

bool judgeTest(const Intent& intent, const dp::TraceResult& trace,
               std::string* reason) {
  const auto fail = [&](const std::string& why) {
    if (reason != nullptr) *reason = why;
    return false;
  };
  switch (intent.kind) {
    case IntentKind::kReachability:
      if (trace.destination_flapping) return fail("route flapping");
      if (trace.outcome != dp::TraceOutcome::kDelivered) {
        return fail("not delivered: " + trace.detail);
      }
      return true;
    case IntentKind::kIsolation:
      if (trace.outcome == dp::TraceOutcome::kDelivered) {
        return fail("isolated destination was reached");
      }
      return true;
    case IntentKind::kLoopFree:
      if (trace.destination_flapping) {
        return fail("route flapping (transient loops)");
      }
      if (trace.outcome == dp::TraceOutcome::kLoop) {
        return fail("forwarding loop: " + trace.detail);
      }
      return true;
    case IntentKind::kBlackholeFree:
      if (trace.destination_flapping) return fail("route flapping");
      if (trace.outcome == dp::TraceOutcome::kBlackhole) {
        return fail("blackhole: " + trace.detail);
      }
      return true;
  }
  return fail("unknown intent kind");
}

std::vector<TestResult> Verifier::runTests(
    const topo::Network& network, const route::SimResult& sim,
    const std::vector<TestCase>& tests) const {
  const dp::DataPlane dataplane(network, sim);
  std::vector<TestResult> results;
  results.reserve(tests.size());
  for (const TestCase& test : tests) {
    TestResult result;
    result.test = test;
    result.trace = dataplane.trace(test.packet);
    result.passed = judgeTest(intents_[static_cast<std::size_t>(
                                  test.intent_index)],
                              result.trace, &result.reason);
    results.push_back(std::move(result));
  }
  return results;
}

VerifyResult Verifier::verifyWithSim(const topo::Network& network,
                                     const route::SimResult& sim,
                                     int samples_per_intent) const {
  VerifyResult out;
  const std::vector<TestCase> tests =
      generateTests(intents_, samples_per_intent);
  out.results = runTests(network, sim, tests);
  out.tests_run = static_cast<int>(out.results.size());
  for (const auto& result : out.results) {
    if (!result.passed) ++out.tests_failed;
  }
  return out;
}

VerifyResult Verifier::verify(const topo::Network& network,
                              int samples_per_intent) const {
  const route::Simulator simulator(network);
  const route::SimResult sim = simulator.run(sim_options_);
  return verifyWithSim(network, sim, samples_per_intent);
}

}  // namespace acr::verify
