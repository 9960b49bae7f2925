// Cross-candidate batch evaluation: per-candidate delta runs vs one shared
// delta tree (docs/architecture.md §12).
//
// The workload mirrors a VALIDATE round: every candidate shares a wide base
// edit (the population's current patch — an agg prefix-list change whose
// blast radius spans the fabric) and adds one narrow edit of its own (a
// ToR-local static route). The per-candidate path re-propagates the shared
// base once per candidate (a one-shot delta run from the anchor); the batch
// path propagates it once and forks each candidate off the base node via
// copy-on-write undo logs (route::DeltaTree).
//
// Both paths must produce byte-identical results — before timing anything,
// the harness verifies every tree leaf route-by-route against both a
// from-scratch simulation and the per-candidate delta run, and requires
// that no path fell back. A speedup can never come from a wrong answer.
//
//   bench_candidate_batch [--reps N] [--smoke] [--json]
//
// --smoke runs the smallest fabric once (CI wiring check); --json replaces
// the table with a machine-readable array (committed as
// BENCH_candidate_batch.json for regression tracking). The exit code
// reflects only the identity checks: the speedup column is reported, not
// gated, because whether the base node pays is an end-to-end question
// (docs/performance.md, layer 4).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/util.hpp"
#include "core/scenarios.hpp"
#include "routing/delta_tree.hpp"
#include "routing/simulator.hpp"
#include "tools/cli.hpp"

namespace {

using namespace acr;

struct Case {
  std::string scenario;
  int routers = 0;
  int leaves = 0;
  double per_candidate_ms = 0;  // one-shot delta run from anchor, per candidate
  double tree_ms = 0;           // DeltaTree ctor + setBase + all leaves
  int leaf_rounds = 0;          // median leaf-segment rounds
  std::uint64_t undo_entries = 0;  // median leaf undo-log size

  [[nodiscard]] double speedup() const {
    return tree_ms > 0 ? per_candidate_ms / tree_ms : 0;
  }
};

double medianMs(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

bool sameResult(const route::SimResult& a, const route::SimResult& b) {
  // Rib::identicalTo compares effective per-entry state (source, learned-from,
  // next hop, AS path, local-pref, MED) — the same fields the old
  // route-by-route key() walk covered, now with an O(1) shared-page fast
  // path.
  return a.converged == b.converged && a.flapping == b.flapping &&
         a.rib.identicalTo(b.rib);
}

/// The shared base edit: drop the VIP half of agg1a's pod-local import
/// filter — every VIP route through this agg is re-decided fabric-wide
/// (the "wide" edit of bench_sim_incremental).
void applyBaseEdit(topo::Network& network) {
  auto& lists = network.config("agg1a")->prefix_lists;
  for (auto& list : lists) {
    if (list.name == "POD_LOCAL" && list.entries.size() > 1) {
      list.entries.pop_back();
    }
  }
}

struct Candidate {
  std::string device;    // the ToR the candidate edits
  topo::Network network; // base + this candidate's own edit
};

/// Candidate edits fork one narrow edit each off the shared base: a static
/// route to a fresh prefix on a distinct ToR. Only the first ToR of a pod
/// redistributes static routes, so on t >= 2 the new route stays in that
/// ToR's own RIB — the smallest honest blast radius a config edit can have.
std::vector<Candidate> makeCandidates(const topo::Network& base, int pods,
                                      int tors, int max_candidates) {
  std::vector<Candidate> candidates;
  for (int p = 1; p <= pods; ++p) {
    for (int t = 2; t <= tors; ++t) {
      if (static_cast<int>(candidates.size()) >= max_candidates) {
        return candidates;
      }
      const std::string tor =
          "tor" + std::to_string(p) + "_" + std::to_string(t);
      Candidate candidate;
      candidate.device = tor;
      candidate.network = base;
      const int index = static_cast<int>(candidates.size());
      // Next hop inside the ToR's connected servers subnet (10.p.t.0/24,
      // interface address .1) so the static route resolves.
      candidate.network.config(tor)->static_routes.push_back(
          cfg::StaticRouteConfig{
              net::Prefix(net::Ipv4Address::fromOctets(
                              10, 200, static_cast<std::uint8_t>(index), 0),
                          24),
              net::Ipv4Address::fromOctets(10, static_cast<std::uint8_t>(p),
                                           static_cast<std::uint8_t>(t), 11),
              0});
      candidate.network.renumberAll();
      candidates.push_back(std::move(candidate));
    }
  }
  return candidates;
}

Case runCase(const Scenario& scenario, int pods, int tors, int reps) {
  route::SimOptions options;
  options.record_provenance = false;

  const topo::Network& anchor_network = scenario.network();
  const route::SimResult anchor = route::Simulator(anchor_network).run(options);
  if (!anchor.converged) {
    std::fprintf(stderr, "%s: anchor did not converge\n",
                 scenario.name.c_str());
    std::exit(1);
  }

  topo::Network base = anchor_network;
  applyBaseEdit(base);
  base.renumberAll();

  const std::vector<Candidate> candidates =
      makeCandidates(base, pods, tors, /*max_candidates=*/24);
  if (candidates.empty()) {
    std::fprintf(stderr, "%s: no candidate ToRs\n", scenario.name.c_str());
    std::exit(1);
  }

  // --- identity check: tree leaf == per-candidate delta == full run -------
  // Per-candidate path: a one-shot delta run from the anchor.
  const auto perCandidate = [&](const Candidate& candidate,
                                route::TreeLeafStats* stats) {
    return route::DeltaTree(anchor_network, anchor, options)
        .run(candidate.network, {"agg1a", candidate.device}, stats);
  };
  std::vector<int> leaf_rounds;
  std::vector<std::uint64_t> undo_entries;
  {
    route::DeltaTree tree(anchor_network, anchor, options);
    tree.setBase(base, {"agg1a"});
    for (const Candidate& candidate : candidates) {
      const route::SimResult full =
          route::Simulator(candidate.network).run(options);
      route::TreeLeafStats stats;
      const route::SimResult per_candidate = perCandidate(candidate, &stats);
      if (!stats.used_delta) {
        std::fprintf(stderr, "%s / %s: per-candidate delta fell back (%s)\n",
                     scenario.name.c_str(), candidate.device.c_str(),
                     stats.fallback_reason.c_str());
        std::exit(1);
      }
      if (!sameResult(per_candidate, full)) {
        std::fprintf(stderr, "%s / %s: per-candidate delta differs from "
                     "full run\n",
                     scenario.name.c_str(), candidate.device.c_str());
        std::exit(1);
      }
      bool leaf_ok = false;
      tree.leaf(candidate.network, {candidate.device},
                [&](const route::SimResult& view,
                    const route::TreeLeafStats& stats_leaf) {
                  if (!stats_leaf.used_delta) {
                    std::fprintf(stderr, "%s / %s: tree leaf fell back (%s)\n",
                                 scenario.name.c_str(),
                                 candidate.device.c_str(),
                                 stats_leaf.fallback_reason.c_str());
                    std::exit(1);
                  }
                  leaf_ok = sameResult(view, full);
                  leaf_rounds.push_back(stats_leaf.rounds);
                  undo_entries.push_back(stats_leaf.undo_entries);
                });
      if (!leaf_ok) {
        std::fprintf(stderr, "%s / %s: tree leaf differs from full run\n",
                     scenario.name.c_str(), candidate.device.c_str());
        std::exit(1);
      }
    }
  }

  // --- timing --------------------------------------------------------------
  std::vector<double> per_candidate_samples;
  std::vector<double> tree_samples;
  std::size_t expect_rib = 0;
  for (int rep = 0; rep < reps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    std::size_t per_candidate_rib = 0;
    for (const Candidate& candidate : candidates) {
      per_candidate_rib += perCandidate(candidate, nullptr).rib.size();
    }
    auto mid = std::chrono::steady_clock::now();
    std::size_t tree_rib = 0;
    {
      route::DeltaTree tree(anchor_network, anchor, options);
      tree.setBase(base, {"agg1a"});
      for (const Candidate& candidate : candidates) {
        tree.leaf(candidate.network, {candidate.device},
                  [&](const route::SimResult& view,
                      const route::TreeLeafStats&) {
                    tree_rib += view.rib.size();
                  });
      }
    }
    auto end = std::chrono::steady_clock::now();
    per_candidate_samples.push_back(
        std::chrono::duration<double, std::milli>(mid - start).count());
    tree_samples.push_back(
        std::chrono::duration<double, std::milli>(end - mid).count());
    if (rep == 0) {
      expect_rib = per_candidate_rib;
    }
    if (per_candidate_rib != expect_rib || tree_rib != expect_rib) {
      std::fprintf(stderr, "non-deterministic rerun\n");
      std::exit(1);
    }
  }

  std::sort(leaf_rounds.begin(), leaf_rounds.end());
  std::sort(undo_entries.begin(), undo_entries.end());

  Case result;
  result.scenario = scenario.name;
  result.routers = static_cast<int>(anchor_network.configs.size());
  result.leaves = static_cast<int>(candidates.size());
  result.per_candidate_ms = medianMs(per_candidate_samples);
  result.tree_ms = medianMs(tree_samples);
  result.leaf_rounds = leaf_rounds[leaf_rounds.size() / 2];
  result.undo_entries = undo_entries[undo_entries.size() / 2];
  return result;
}

}  // namespace

namespace acr::cli {

void usage(const char* why) {
  if (why != nullptr) std::fprintf(stderr, "bench_candidate_batch: %s\n", why);
  std::fputs("usage: bench_candidate_batch [--reps N] [--smoke] [--json]\n",
             stderr);
  std::exit(2);
}

}  // namespace acr::cli

int main(int argc, char** argv) {
  int reps = 9;
  bool smoke = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = acr::cli::parseNumber<int>(argv[++i], "--reps");
      if (reps < 1) acr::cli::usage("--reps must be at least 1");
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      acr::cli::usage();
    }
  }

  std::vector<std::pair<int, int>> fabrics = {{2, 2}, {4, 4}, {8, 8}};
  if (smoke) {
    fabrics = {{2, 2}};
    reps = 1;
  }

  std::vector<Case> cases;
  for (const auto& [pods, tors] : fabrics) {
    cases.push_back(runCase(dcnScenario(pods, tors), pods, tors, reps));
  }

  if (json) {
    std::puts("[");
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[i];
      std::printf(
          "  {\"scenario\": \"%s\", \"routers\": %d, \"leaves\": %d, "
          "\"per_candidate_ms\": %.3f, \"tree_ms\": %.3f, "
          "\"speedup\": %.1f, \"leaf_rounds\": %d, "
          "\"undo_entries\": %llu}%s\n",
          c.scenario.c_str(), c.routers, c.leaves, c.per_candidate_ms,
          c.tree_ms, c.speedup(), c.leaf_rounds,
          static_cast<unsigned long long>(c.undo_entries),
          i + 1 < cases.size() ? "," : "");
    }
    std::puts("]");
  } else {
    bench::section(
        "per-candidate delta vs shared delta tree, one VALIDATE round "
        "(median of " +
        std::to_string(reps) + " reps, results verified identical)");
    bench::Table table({"scenario", "routers", "leaves", "per-cand ms",
                        "tree ms", "speedup", "leaf rounds", "undo entries"});
    table.printHeader();
    for (const Case& c : cases) {
      table.printRow({c.scenario, std::to_string(c.routers),
                      std::to_string(c.leaves),
                      bench::fmt(c.per_candidate_ms, 3),
                      bench::fmt(c.tree_ms, 3), bench::fmt(c.speedup(), 1) + "x",
                      std::to_string(c.leaf_rounds),
                      std::to_string(c.undo_entries)});
    }
    table.printRule();
  }
  return 0;
}
