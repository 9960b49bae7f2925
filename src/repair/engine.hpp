// The ACR engine: the localize-fix-validate loop of Figure 4.
//
// Each iteration:
//   1. LOCALIZE — simulate each surviving candidate with provenance, run the
//      intent-derived test suite, compute per-test coverage and rank lines
//      with an SBFL metric (Tarantula by default).
//   2. FIX — for the top suspicious lines, select change templates (randomly
//      in search mode, exhaustively in brute-force mode) and instantiate
//      candidate updates; values are solved, not guessed (acr::smt).
//   3. VALIDATE — score every update's fitness (= number of failing tests)
//      with the incremental verifier; updates whose fitness exceeds the
//      previous iteration's are discarded (the paper's fitness rule).
//
// Termination (§5): a fitness-0 update is found; no candidate updates can
// be generated (S = ∅); or the iteration limit (500) is reached.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "config/diff.hpp"
#include "fixgen/history.hpp"
#include "localize/sbfl.hpp"
#include "routing/simulator.hpp"
#include "topo/network.hpp"
#include "verify/incremental.hpp"

namespace acr::obs {
class FlightRecorder;
}

namespace acr::repair {

struct RepairOptions {
  sbfl::Metric metric = sbfl::Metric::kTarantula;
  int max_iterations = 500;  // the paper's limit
  int top_k_lines = 3;       // suspicious lines explored per candidate
  int samples_per_intent = 1;
  std::uint64_t seed = 1;
  /// DNA-style differential validation. Off, every candidate is scored by
  /// the full-verification oracle (a from-scratch simulation and the whole
  /// suite). An ablation hook for e2ebench and the identity tests: the
  /// search, counters and recordings (apart from verdict `sim`/`node`
  /// labels) are identical either way.
  bool use_incremental = true;
  bool brute_force = false;     // ablation: all templates on all top lines
  /// §4.2's genetic single-point crossover: recombine the change sequences
  /// of two surviving candidates into extra candidates each iteration.
  bool use_crossover = false;
  /// §3.2 observation (1): shared repair history biasing template draws
  /// towards patterns that resolved past incidents. Null disables. The
  /// engine records attempts/successes into it.
  std::shared_ptr<fix::RepairHistory> history;
  /// When > 0, candidate fitness additionally counts intent violations under
  /// every k-link-failure scenario — repairs must not leave *latent* faults
  /// that only surface when redundancy is consumed (§1's k-failure
  /// tolerance). When the plain suite is green but tolerance is not, the
  /// engine localizes on the first violating degraded topology.
  int tolerance_k = 0;
  /// Selective symbolic simulation (src/symbolic, docs/symbolic.md): before
  /// the concrete template loop, symbolize prefix-lists and local-pref/MED
  /// actions on suspect devices, solve all of them as one acr::smt
  /// conjunction and prepend each satisfying model as a multi-device
  /// candidate. Off by default; with the flag off the engine's behaviour is
  /// byte-identical to the concrete loop (the knobs below are inert).
  bool symbolic = false;
  /// Device gate: symbolize devices whose best failure-covered line scores
  /// at least this fraction of the top suspiciousness.
  double symbolic_suspicion = 0.5;
  /// Cap on simultaneous symbolic variables per round.
  int symbolic_max_variables = 4;
  /// Cap on path-condition forks (solver queries) per round; overflow
  /// falls back to the concrete template loop.
  int symbolic_fork_budget = 8;
  /// Cooperative cancellation: when non-null and the pointee becomes true,
  /// the loop stops at the next iteration boundary with kCancelled (the
  /// best candidate so far is still returned in `repaired`). The service's
  /// job scheduler points this at the job's cancel flag so a remote
  /// `cancel` reaches into a running repair.
  const std::atomic<bool>* cancel = nullptr;
  /// Cross-candidate batch evaluation (docs/architecture.md §12): VALIDATE
  /// scores each round's candidates as leaves of a delta tree whose base is
  /// the population candidate they fork from, so their common edit prefix
  /// is propagated once. Off, the leaves fork off the verifier's anchor.
  /// An ablation hook for e2ebench and the identity tests: verdicts,
  /// fitness and every counter are identical either way; only the
  /// recorded per-verdict `node` path differs. Only effective with
  /// use_incremental.
  bool batch_validate = true;
  /// Optional pre-converged simulation of the faulty network (e.g. the acrd
  /// snapshot cache's primed baseline): adopted as the incremental
  /// verifier's anchor, skipping the one full baseline simulation. Non-
  /// owning; must outlive repair().
  const route::SimResult* baseline_sim = nullptr;
  /// Optional flight recorder (docs/observability.md): the engine logs its
  /// full decision tree — suspect rankings, template instantiations, SMT
  /// queries, every verdict — as deterministic JSONL. Non-owning; must
  /// outlive repair().
  obs::FlightRecorder* recorder = nullptr;
};

enum class Termination : std::uint8_t {
  kRepaired,        // fitness reached 0
  kNothingToRepair, // the input network already satisfied every intent
  kExhausted,       // S = ∅: no candidate updates survived
  kIterationLimit,  // more than max_iterations iterations
  kCancelled,       // RepairOptions::cancel was raised mid-run
};

[[nodiscard]] std::string terminationName(Termination termination);

struct IterationStats {
  int iteration = 0;
  int fitness = 0;              // largest fitness among preserved updates
  int candidates_generated = 0;
  int candidates_kept = 0;
};

struct RepairResult {
  bool success = false;
  Termination termination = Termination::kIterationLimit;
  topo::Network repaired;            // best network found
  std::vector<std::string> changes;  // applied change descriptions, in order
  std::vector<cfg::ConfigDiff> diff; // repaired vs faulty input
  int iterations = 0;
  int initial_failed = 0;
  int final_failed = 0;
  std::vector<IterationStats> history;
  double elapsed_ms = 0.0;
  /// Candidate validations performed (each = one fitness evaluation).
  std::uint64_t validations = 0;
  /// Differential-verifier work counters, summed over all validations.
  std::uint64_t tests_reverified = 0;
  std::uint64_t tests_skipped = 0;
  /// Search-forest leaves generated (the ACR column of Figure 3).
  std::uint64_t search_space = 0;

  [[nodiscard]] std::string summary() const;
};

class AcrEngine {
 public:
  AcrEngine(std::vector<verify::Intent> intents, RepairOptions options = {})
      : intents_(std::move(intents)), options_(options) {}

  [[nodiscard]] RepairResult repair(const topo::Network& faulty) const;

  [[nodiscard]] const RepairOptions& options() const { return options_; }
  [[nodiscard]] const std::vector<verify::Intent>& intents() const {
    return intents_;
  }

 private:
  std::vector<verify::Intent> intents_;
  RepairOptions options_;
};

}  // namespace acr::repair
