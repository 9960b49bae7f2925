// Coverage extraction: which configuration lines did a test "execute"?
//
// Per §4.1 of the paper, coverage is computed from network provenance: the
// lines on the derivation chains of every route the test packet used, plus
// the PBR rules evaluated along the trace. For tests that fail because a
// route is *missing* (blackholes), the derivation chain alone cannot point
// at the destination side, so the extractor additionally attributes the
// destination-owning router's origination machinery (interface, static
// routes covering the destination, redistribution statements) — the lines an
// operator would inspect for a "route never announced" symptom.
#pragma once

#include <set>
#include <vector>

#include "config/ast.hpp"
#include "localize/sbfl.hpp"
#include "routing/simulator.hpp"
#include "topo/network.hpp"
#include "verify/verifier.hpp"

namespace acr::sbfl {

[[nodiscard]] std::set<cfg::LineId> coverageOf(
    const topo::Network& network, const route::SimResult& sim,
    const verify::TestResult& result);

/// One run of the localization suite: per-test verdicts, the lines each
/// test covered, and the spectrum they add up to.
struct SuiteRun {
  std::vector<verify::TestResult> results;
  /// Covered lines per test, parallel to `results`.
  std::vector<std::set<cfg::LineId>> coverage;
  Spectrum spectrum;
};

/// Runs `tests` through `verifier` on `sim`, an existing provenance-recording
/// simulation of `network`, and extracts each test's coverage.
[[nodiscard]] SuiteRun runSuite(const topo::Network& network,
                                const route::SimResult& sim,
                                const verify::Verifier& verifier,
                                const std::vector<verify::TestCase>& tests);

}  // namespace acr::sbfl
