// DNA-style incremental (differential) verification.
//
// The paper's validation step leans on incremental verifiers (DNA, NSDI'22)
// to make trying many candidate updates cheap. This implementation keeps the
// previous simulation, FIBs and per-test verdicts; after a config change it
// re-simulates incrementally off that anchor (route::DeltaTree) and then
// re-judges ONLY the tests that could have been affected:
//   * tests whose src/dst lies in a prefix whose best route changed anywhere
//     (including prefixes entering/leaving the flapping set),
//   * tests whose cached forwarding path crosses a device whose config
//     changed (catches PBR edits, which never show up in FIB diffs),
//   * tests that were failing before (failures are always re-checked).
// Everything else reuses the cached verdict. Counters expose the saving;
// a property test asserts equivalence with full verification.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "routing/delta_tree.hpp"
#include "routing/simulator.hpp"
#include "topo/network.hpp"
#include "util/metrics.hpp"
#include "verify/verifier.hpp"

namespace acr::verify {

class IncrementalVerifier {
 public:
  explicit IncrementalVerifier(std::vector<Intent> intents,
                               route::SimOptions sim_options = {},
                               int samples_per_intent = 1,
                               bool multipath = false);

  /// Full verification; primes the cache. When `seed_sim` is a compatible
  /// pre-converged simulation of `network` (e.g. the acrd snapshot cache's
  /// primed baseline), it is adopted instead of re-simulating — its rib,
  /// flapping set and sessions are what the simulation would produce.
  VerifyResult baseline(const topo::Network& network,
                        const route::SimResult* seed_sim = nullptr);

  /// Differential verification against the cached state; updates the cache
  /// (re-anchors). Falls back to baseline() when no cache exists. Probing a
  /// candidate without moving the anchor is CandidateBatch::probe().
  VerifyResult update(const topo::Network& network);

  struct Stats {
    std::uint64_t simulations = 0;
    std::uint64_t tests_total = 0;
    std::uint64_t tests_reverified = 0;
    std::uint64_t tests_skipped = 0;
    /// update() simulations served by the delta tree's incremental path vs.
    /// those that fell back to a full run (both also count `simulations`).
    std::uint64_t delta_sims = 0;
    std::uint64_t delta_fallbacks = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  void resetStats() { stats_ = {}; }

  /// Adds this verifier's counters into a metrics registry (the names are
  /// documented in docs/architecture.md §Metrics): verify.simulations,
  /// verify.tests_total, verify.tests_reverified, verify.tests_skipped.
  void exportStats(util::MetricsRegistry& registry) const;

  [[nodiscard]] const route::SimResult* cachedSim() const {
    return cached_sim_ ? &*cached_sim_ : nullptr;
  }
  /// The anchor network (null before baseline()).
  [[nodiscard]] const topo::Network* cachedNetwork() const {
    return cached_network_ ? &*cached_network_ : nullptr;
  }
  [[nodiscard]] const std::vector<Intent>& intents() const { return intents_; }
  [[nodiscard]] const std::vector<TestCase>& tests() const { return tests_; }

 private:
  friend class CandidateBatch;

  VerifyResult toVerifyResult() const;

  /// The prefixes a simulation of a candidate invalidates: the delta
  /// tree's exact changed-entry list when `leaf` used the incremental path
  /// (both fixpoints converged, so no flapping churn), otherwise every
  /// prefix whose best route differs from the cached anchor simulation
  /// anywhere (full RIB sweep), plus both flapping sets.
  [[nodiscard]] std::set<net::Prefix> changedPrefixes(
      const route::SimResult& sim, const route::TreeLeafStats& leaf) const;

  /// Recomputes the verdicts in `results` that the changed devices and
  /// prefixes could affect, against `sim`; accounts into `stats`, so
  /// CandidateBatch can drive it with per-probe stats without touching the
  /// verifier's own state.
  void rejudge(const topo::Network& network, const route::SimResult& sim,
               const std::set<std::string>& changed_devices,
               const std::set<net::Prefix>& changed_prefixes,
               std::vector<TestResult>& results, Stats& stats) const;

  std::vector<Intent> intents_;
  std::vector<TestCase> tests_;
  route::SimOptions sim_options_;
  bool multipath_ = false;
  Stats stats_;

  std::optional<route::SimResult> cached_sim_;
  std::optional<topo::Network> cached_network_;
  std::vector<TestResult> cached_results_;
};

/// Candidate probing over a shared delta tree — the one way the repair
/// engine scores a candidate.
///
/// One VALIDATE pass probes many candidates against the same anchor; the
/// candidates usually share an edit prefix (the *base*: the population
/// candidate they fork from). A CandidateBatch propagates the base once
/// (route::DeltaTree::setBase) and evaluates each candidate as a cheap leaf
/// fork, reusing the tree's exact changed-entry list as the
/// test-invalidation set instead of sweeping the whole RIB per candidate.
///
/// Equivalence contract: probe(candidate) returns exactly the verdicts and
/// reverified/skipped counts of update(candidate) on a copy of the
/// verifier, whatever the base — only the recorded `node` path differs.
/// The verifier itself is never modified.
///
/// With `incremental` false (or an unprimed verifier) every probe is the
/// full-verification oracle instead: a from-scratch Simulator run and
/// every test of the verifier's suite.
///
/// Lifetimes: `verifier` must not be re-anchored (update()) while the batch
/// lives; `base` must outlive the batch. One batch per thread; several
/// batches may share one verifier across threads.
class CandidateBatch {
 public:
  struct Probe {
    VerifyResult verdict;
    int tests_reverified = 0;
    int tests_skipped = 0;
    /// "delta-tree" (tree leaf), a fallback-rule reason, or "full-verify"
    /// (the oracle).
    std::string sim;
    /// Tree node path ("anchor[/base devices]/leaf devices"), empty when
    /// no tree was involved (the oracle).
    std::string node;
  };

  /// `base` is the edit prefix shared by every candidate of the batch —
  /// pass the anchor network itself when the candidates share nothing.
  CandidateBatch(const IncrementalVerifier& verifier,
                 const topo::Network& base, bool incremental = true);

  [[nodiscard]] Probe probe(const topo::Network& candidate);

 private:
  const IncrementalVerifier& verifier_;
  const topo::Network& base_;
  std::vector<std::string> base_changed_;
  std::string base_path_;  // "anchor" or "anchor/<base devices>"
  std::optional<route::DeltaTree> tree_;
};

}  // namespace acr::verify
