// Incremental LOCALIZE: delta-seeded simulation + cached suite evaluation.
//
// The repair loop localizes every surviving candidate every iteration; a
// candidate differs from the original faulty network by a handful of edits,
// so a from-scratch provenance-recording simulation plus a full probe suite
// repeats almost all of the anchor's work. LocalizeCache keeps one anchor
// per topology (the faulty network itself, plus one per degraded link set
// the tolerance checker surfaces) holding its converged simulation, frozen
// canonical provenance, per-test outcomes, coverage rows (as bitsets over
// interned line ids) and the assembled spectrum. A candidate is then:
//
//   1. simulated as a one-leaf route::DeltaTree off the anchor fixpoint,
//      which forks the anchor's provenance graph copy-on-write and reports
//      the exact dirty blast radius (changed cells + chain-dirty cells);
//   2. probed selectively: a cached test is reused — outcome AND coverage
//      row — when its recorded read set (trace hops, destination owner,
//      explainAbsence consulted routers) avoids every dirty router;
//   3. scored on a forked spectrum: the anchor's counts with only the
//      invalidated tests' rows swapped (Spectrum::removeRow/addRow).
//
// Identity: reused outcomes/coverage are pure functions of clean routers'
// configs, FIB entries and derivation chains, all byte-identical under the
// delta contract; swapped spectra hold the same counts a from-scratch build
// would, and ranking is count-based — so rankings, suspect sets and repair
// behavior match the full path exactly. Whenever the delta falls back (or
// the anchor never converged), the cache transparently runs the old full
// pipeline. Multipath traces only retain their worst branch, which is not a
// complete read set — with multipath on, every probe reruns (the delta
// simulation still amortizes).
//
// Not thread-safe; the engine localizes candidates sequentially.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "localize/coverage.hpp"
#include "localize/rows.hpp"
#include "localize/sbfl.hpp"
#include "routing/simulator.hpp"
#include "topo/network.hpp"
#include "verify/verifier.hpp"

namespace acr::sbfl {

/// Everything the engine's LOCALIZE stage consumes for one candidate.
struct LocalizeOutcome {
  route::SimResult sim;
  /// Per-test verdicts as copy-on-write rows: cache hits alias the anchor's
  /// allocation, misses carry fresh rows (see localize/rows.hpp).
  std::vector<ResultRow> results;
  /// Per-test covered lines, parallel to `results` (the RepairContext view).
  std::vector<CoverageRow> coverage;
  Spectrum spectrum;
  /// "anchor" (anchor build), "delta" (incremental path), a delta-tree
  /// fallback reason, or "full" (anchor unusable).
  std::string sim_kind;
  std::size_t probe_hits = 0;    // tests served from the anchor
  std::size_t probe_misses = 0;  // tests re-traced and re-covered
  std::size_t derivations_fresh = 0;
  std::size_t derivations_reused = 0;
  double sim_ms = 0.0;    // simulation segment (delta or full)
  double suite_ms = 0.0;  // probe + coverage + spectrum segment
};

class LocalizeCache {
 public:
  /// `origin` is the faulty network every candidate derives from; it must
  /// outlive the cache. Anchors are built lazily on first use.
  LocalizeCache(const topo::Network& origin,
                std::vector<verify::Intent> intents,
                std::vector<verify::TestCase> tests,
                route::SimOptions localize_options, bool multipath);

  /// Localizes `network`, whose configs differ from the origin exactly on
  /// `changed_devices`, on the plain topology.
  [[nodiscard]] LocalizeOutcome localize(
      const topo::Network& network,
      const std::vector<std::string>& changed_devices);

  /// Localizes a degraded candidate (`network` must already have `links`
  /// removed, configs unchanged) against a cached anchor of the origin with
  /// the same links removed — one anchor per distinct violating link set.
  [[nodiscard]] LocalizeOutcome localizeDegraded(
      const topo::Network& network,
      const std::vector<std::string>& changed_devices,
      std::vector<std::size_t> links);

 private:
  struct Anchor {
    topo::Network network;
    route::SimResult sim;
    std::vector<ResultRow> results;
    std::vector<CoverageRow> coverage;
    std::vector<CoverageBits> rows;
    /// Per-test read set: routers whose state the outcome + coverage
    /// depend on (see coverageOf's footprint contract).
    std::vector<ProbeFootprint> footprints;
    Spectrum spectrum;
    /// Converged with a recorded provenance graph — the delta premise.
    bool usable = false;
  };

  [[nodiscard]] Anchor buildAnchor(topo::Network network,
                                   LocalizeOutcome* outcome) const;
  [[nodiscard]] LocalizeOutcome localizeAgainst(
      const Anchor& anchor, const topo::Network& network,
      const std::vector<std::string>& changed_devices) const;
  [[nodiscard]] LocalizeOutcome fullPipeline(const topo::Network& network,
                                             std::string sim_kind) const;
  void fullSuite(const topo::Network& network, LocalizeOutcome& out) const;

  const topo::Network& origin_;
  verify::Verifier verifier_;
  std::vector<verify::TestCase> tests_;
  route::SimOptions options_;
  bool multipath_;
  std::optional<Anchor> plain_;
  /// Keyed by the sorted removed-link index set.
  std::map<std::vector<std::size_t>, Anchor> degraded_;
};

}  // namespace acr::sbfl
