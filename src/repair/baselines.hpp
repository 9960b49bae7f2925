// The two comparator families from §2.3 / Figure 3, re-implemented at the
// strategy level:
//
//   * ProvenanceRepair (MetaProv-style): trace the first failing event's
//     provenance, take its leaf configuration lines as the search space, and
//     apply the first applicable single-line change WITHOUT validating side
//     effects. Efficient — and exactly as §2.3 warns, prone to leaving the
//     violation unresolved or introducing regressions.
//
//   * SynthesisRepair (AED-style): treat every configuration line as a free
//     delta variable (search space 2^lines), then search combinations of
//     atomic repair actions with FULL validation of every assignment until
//     all intents hold. Correct by construction — and exponential, so it
//     runs under an exploration budget.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "repair/engine.hpp"

namespace acr::repair {

struct BaselineResult {
  std::string method;
  bool resolved = false;     // every originally failing test now passes
  bool regressions = false;  // some originally passing test now fails
  /// Search-space size: MetaProv = provenance leaves; AED = log2 is
  /// `aed_log2_space` (2^lines overflows quickly).
  std::uint64_t search_space = 0;
  double aed_log2_space = 0.0;
  std::uint64_t explored = 0;  // candidate assignments actually validated
  double elapsed_ms = 0.0;
  topo::Network repaired;
  std::vector<std::string> changes;
};

/// Both baselines judge one sampled packet per intent, simulated with
/// provenance under default SimOptions.
[[nodiscard]] BaselineResult provenanceRepair(
    const topo::Network& faulty, const std::vector<verify::Intent>& intents);

struct SynthesisRepairOptions {
  int max_change_depth = 2;       // subsets of atomic actions up to this size
  std::uint64_t budget = 200;     // validation budget
};

[[nodiscard]] BaselineResult synthesisRepair(
    const topo::Network& faulty, const std::vector<verify::Intent>& intents,
    const SynthesisRepairOptions& options = {});

}  // namespace acr::repair
