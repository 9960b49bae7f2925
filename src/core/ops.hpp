// Shared offline operations: the exact verify/repair text (and success
// verdicts) that `acrctl` prints, factored out so the repair service can
// produce byte-identical results. The service's determinism contract —
// a remote `submit` returns the same bytes as the equivalent offline
// `acrctl verify`/`acrctl repair` run — holds by construction because both
// paths call these helpers; the stress test and the acrd smoke script
// additionally check it end to end.
#pragma once

#include <string>

#include "core/scenarios.hpp"
#include "repair/engine.hpp"
#include "routing/simulator.hpp"
#include "util/json.hpp"
#include "verify/verifier.hpp"

namespace acr::ops {

/// True when every intent test passed AND the control plane converged —
/// the exit-code contract of `acrctl verify` (a diverging control plane is
/// a failure even if the sampled tests happen to pass).
[[nodiscard]] bool verifyOk(const route::SimResult& sim,
                            const verify::VerifyResult& result);

/// Renders the `acrctl verify` output from precomputed pieces (the
/// service's snapshot-cache hit path re-renders from cached state).
[[nodiscard]] std::string renderVerifyText(const Scenario& scenario,
                                           const route::SimResult& sim,
                                           const verify::VerifyResult& result);

struct VerifyOutcome {
  route::SimResult sim;
  verify::VerifyResult result;
  std::string text;  // exactly what `acrctl verify` prints
  bool ok = false;   // exit code 0 iff true
};

/// Simulates + verifies a scenario and renders the CLI text.
[[nodiscard]] VerifyOutcome verifyScenario(const Scenario& scenario);

struct RepairOutcome {
  repair::RepairResult result;
  std::string text;  // exactly what `acrctl repair [--report]` prints
};

/// Runs the repair engine and renders the CLI text (summary + diff, or the
/// markdown report when `report` is set).
[[nodiscard]] RepairOutcome repairScenario(const Scenario& scenario,
                                           const repair::RepairOptions& options,
                                           bool report = false);

/// The byte-affecting repair knobs as JSON — what a flight recording's
/// `begin` event embeds so `acrctl explain --replay` can reconstruct the
/// exact run. Round-trips with repairOptionsFromJson: FromJson(Json(o))
/// renders back to the same bytes. Deliberately excludes the pointer fields
/// a replay must not inherit: cancel, recorder, baseline_sim and history.
[[nodiscard]] util::Json repairOptionsJson(const repair::RepairOptions& options);

/// Inverse of repairOptionsJson; fields absent from `json` keep their
/// RepairOptions defaults.
[[nodiscard]] repair::RepairOptions repairOptionsFromJson(
    const util::Json& json);

}  // namespace acr::ops
