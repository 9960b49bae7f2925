// Data-layout regression gate: one full VALIDATE round on the interned
// SoA RIB engines vs. the committed PR-6 (map-of-maps) baseline.
//
// The workload is bench_candidate_batch's VALIDATE round verbatim — anchor
// fixpoint, one wide shared base edit (agg1a prefix-list), 24 narrow
// candidates (ToR-local static routes), all evaluated through one
// route::DeltaTree — so the timed number is directly comparable to the
// tree_ms column of BENCH_candidate_batch.json as committed by PR 6, the
// last revision before the layout overhaul. Before timing anything the
// harness verifies every tree leaf route-by-route against both a
// from-scratch simulation and the per-candidate one-shot delta run: the
// gate can only pass with byte-identical verdicts.
//
//   bench_rib_layout [--reps N] [--smoke] [--json]
//
// --smoke runs the smallest fabric once (CI wiring check); --json replaces
// the table with a machine-readable array (committed as
// BENCH_rib_layout.json). Full runs self-gate: the harness exits non-zero
// unless the dcn-8x8 round beats the PR-6 baseline by >= 2x.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/util.hpp"
#include "core/scenarios.hpp"
#include "routing/delta_tree.hpp"
#include "routing/simulator.hpp"

namespace {

using namespace acr;

/// tree_ms per fabric from BENCH_candidate_batch.json at the PR-6 revision
/// (commit 5a63f24, string-keyed map-of-maps RIBs) — the denominator of
/// the layout speedup.
double baselineTreeMs(const std::string& scenario) {
  if (scenario == "dcn-2x2") return 0.181;
  if (scenario == "dcn-4x4") return 1.775;
  if (scenario == "dcn-8x8") return 17.233;
  return 0;
}

struct Case {
  std::string scenario;
  int routers = 0;
  int leaves = 0;
  double tree_ms = 0;      // DeltaTree ctor + setBase + all leaves
  double baseline_ms = 0;  // PR-6 tree_ms on the same workload

  [[nodiscard]] double speedup() const {
    return tree_ms > 0 ? baseline_ms / tree_ms : 0;
  }
};

double medianMs(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

bool sameResult(const route::SimResult& a, const route::SimResult& b) {
  return a.converged == b.converged && a.flapping == b.flapping &&
         a.rib.identicalTo(b.rib);
}

/// The shared base edit of bench_candidate_batch: drop the VIP half of
/// agg1a's pod-local import filter (fabric-wide blast radius).
void applyBaseEdit(topo::Network& network) {
  auto& lists = network.config("agg1a")->prefix_lists;
  for (auto& list : lists) {
    if (list.name == "POD_LOCAL" && list.entries.size() > 1) {
      list.entries.pop_back();
    }
  }
}

struct Candidate {
  std::string device;
  topo::Network network;
};

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
  {
    route::DeltaTree tree(anchor_network, anchor, options);
    tree.setBase(base, {"agg1a"});
    for (const Candidate& candidate : candidates) {
      const route::SimResult full =
          route::Simulator(candidate.network).run(options);
      route::TreeLeafStats stats;
      const route::SimResult per_candidate = perCandidate(candidate, &stats);
      if (!stats.used_delta || !sameResult(per_candidate, full)) {
        std::fprintf(stderr, "%s / %s: per-candidate delta diverged (%s)\n",
                     scenario.name.c_str(), candidate.device.c_str(),
                     stats.fallback_reason.c_str());
        std::exit(1);
      }
      bool leaf_ok = false;
      tree.leaf(candidate.network, {candidate.device},
                [&](const route::SimResult& view,
                    const route::TreeLeafStats& stats_leaf) {
                  leaf_ok = stats_leaf.used_delta && sameResult(view, full);
                });
      if (!leaf_ok) {
        std::fprintf(stderr, "%s / %s: tree leaf diverged from full run\n",
                     scenario.name.c_str(), candidate.device.c_str());
        std::exit(1);
      }
    }
  }

  // --- timing: the PR-6 tree_ms section verbatim ---------------------------
  std::vector<double> tree_samples;
  std::size_t expect_rib = 0;
  for (int rep = 0; rep < reps; ++rep) {
    auto start = std::chrono::steady_clock::now();
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
    tree_samples.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
    if (rep == 0) {
      expect_rib = tree_rib;
    } else if (tree_rib != expect_rib) {
      std::fprintf(stderr, "non-deterministic rerun\n");
      std::exit(1);
    }
  }

  Case result;
  result.scenario = scenario.name;
  result.routers = static_cast<int>(anchor_network.configs.size());
  result.leaves = static_cast<int>(candidates.size());
  result.tree_ms = medianMs(tree_samples);
  result.baseline_ms = baselineTreeMs(scenario.name);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 9;
  bool smoke = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_rib_layout [--reps N] [--smoke] [--json]\n");
      return 2;
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
          "\"tree_ms\": %.3f, \"pr6_tree_ms\": %.3f, "
          "\"speedup_vs_pr6\": %.1f}%s\n",
          c.scenario.c_str(), c.routers, c.leaves, c.tree_ms, c.baseline_ms,
          c.speedup(), i + 1 < cases.size() ? "," : "");
    }
    std::puts("]");
  } else {
    bench::section(
        "interned SoA layout vs PR-6 map-of-maps, one VALIDATE round "
        "(median of " +
        std::to_string(reps) + " reps, results verified identical)");
    bench::Table table({"scenario", "routers", "leaves", "tree ms",
                        "pr6 tree ms", "speedup"});
    table.printHeader();
    for (const Case& c : cases) {
      table.printRow({c.scenario, std::to_string(c.routers),
                      std::to_string(c.leaves), bench::fmt(c.tree_ms, 3),
                      bench::fmt(c.baseline_ms, 3),
                      bench::fmt(c.speedup(), 1) + "x"});
    }
    table.printRule();
  }

  // Regression gate: the layout overhaul's committed claim is >= 2x on the
  // full dcn-8x8 VALIDATE round. Smoke runs only check wiring.
  if (!smoke) {
    for (const Case& c : cases) {
      if (c.scenario == "dcn-8x8" && c.speedup() < 2.0) {
        std::fprintf(stderr,
                     "bench_rib_layout: dcn-8x8 speedup %.1fx below the 2x "
                     "gate (tree %.3f ms vs PR-6 %.3f ms)\n",
                     c.speedup(), c.tree_ms, c.baseline_ms);
        return 1;
      }
    }
  }
  return 0;
}
