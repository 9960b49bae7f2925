// Full vs delta simulation across fat-tree sizes and edit blast radii.
//
// For each DCN scenario the harness converges a baseline once, applies a
// single-device candidate edit, then times (a) a from-scratch Simulator::run
// of the edited network and (b) a one-shot delta run (a one-leaf
// route::DeltaTree) seeded with the baseline fixpoint. Both paths must
// produce byte-identical results — the harness verifies the RIBs
// route-by-route before it reports a single number, so a speedup can never
// come from a wrong answer.
//
//   bench_sim_incremental [--reps N] [--smoke] [--json]
//
// --smoke runs the smallest fabric once (CI wiring check); --json replaces
// the table with a machine-readable array (committed as
// BENCH_sim_incremental.json for regression tracking).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/util.hpp"
#include "core/scenarios.hpp"
#include "routing/delta_tree.hpp"
#include "routing/simulator.hpp"

namespace {

using namespace acr;

struct Edit {
  std::string label;   // what the candidate update touches
  std::string device;  // the single changed device
  std::function<void(topo::Network&)> apply;
};

struct Case {
  std::string scenario;
  int routers = 0;
  std::string edit;
  double full_ms = 0;
  double delta_ms = 0;
  int full_rounds = 0;
  int delta_rounds = 0;
  std::uint64_t dirty_prefixes = 0;
  std::uint64_t work_items = 0;

  [[nodiscard]] double speedup() const {
    return delta_ms > 0 ? full_ms / delta_ms : 0;
  }
};

double medianMs(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

bool sameResult(const route::SimResult& a, const route::SimResult& b) {
  // Rib::identicalTo compares effective per-entry state (source, learned-from,
  // next hop, AS path, local-pref, MED) plus the ECMP sets — the same fields
  // the old route-by-route key() walk covered, now with an O(1) shared-page
  // fast path.
  return a.converged == b.converged && a.flapping == b.flapping &&
         a.rib.identicalTo(b.rib);
}

Case runCase(const Scenario& scenario, const Edit& edit, int reps) {
  route::SimOptions options;
  options.record_provenance = false;

  const route::SimResult baseline =
      route::Simulator(scenario.network()).run(options);
  if (!baseline.converged) {
    std::fprintf(stderr, "%s: baseline did not converge\n",
                 scenario.name.c_str());
    std::exit(1);
  }

  topo::Network edited = scenario.network();
  edit.apply(edited);
  edited.renumberAll();

  const auto deltaRun = [&](route::TreeLeafStats* stats) {
    return route::DeltaTree(scenario.network(), baseline, options)
        .run(edited, {edit.device}, stats);
  };
  route::TreeLeafStats stats;
  const route::SimResult full = route::Simulator(edited).run(options);
  const route::SimResult incremental = deltaRun(&stats);
  if (!stats.used_delta) {
    std::fprintf(stderr, "%s / %s: delta fell back (%s)\n",
                 scenario.name.c_str(), edit.label.c_str(),
                 stats.fallback_reason.c_str());
    std::exit(1);
  }
  if (!sameResult(incremental, full)) {
    std::fprintf(stderr, "%s / %s: delta result differs from full run\n",
                 scenario.name.c_str(), edit.label.c_str());
    std::exit(1);
  }

  std::vector<double> full_samples;
  std::vector<double> delta_samples;
  for (int rep = 0; rep < reps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    const route::SimResult timed_full = route::Simulator(edited).run(options);
    auto mid = std::chrono::steady_clock::now();
    const route::SimResult timed_delta = deltaRun(nullptr);
    auto end = std::chrono::steady_clock::now();
    full_samples.push_back(
        std::chrono::duration<double, std::milli>(mid - start).count());
    delta_samples.push_back(
        std::chrono::duration<double, std::milli>(end - mid).count());
    if (timed_full.rounds != full.rounds ||
        timed_delta.rib.size() != full.rib.size()) {
      std::fprintf(stderr, "non-deterministic rerun\n");
      std::exit(1);
    }
  }

  Case result;
  result.scenario = scenario.name;
  result.routers = static_cast<int>(scenario.network().configs.size());
  result.edit = edit.label;
  result.full_ms = medianMs(full_samples);
  result.delta_ms = medianMs(delta_samples);
  result.full_rounds = full.rounds;
  result.delta_rounds = stats.rounds;
  result.dirty_prefixes = stats.dirty_prefixes;
  result.work_items = stats.work_items;
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
                   "usage: bench_sim_incremental [--reps N] [--smoke] "
                   "[--json]\n");
      return 2;
    }
  }

  std::vector<std::pair<int, int>> fabrics = {{2, 2}, {4, 4}, {8, 8}};
  if (smoke) {
    fabrics = {{2, 2}};
    reps = 1;
  }

  const std::vector<Edit> edits = {
      {"tor redistribute (narrow)", "tor1_1",
       [](topo::Network& network) {
         network.config("tor1_1")->bgp->redistributes.clear();
       }},
      {"agg prefix-list (wide)", "agg1a",
       [](topo::Network& network) {
         // Drop the VIP half of the pod-local import filter: every VIP
         // route through this agg is re-decided fabric-wide.
         auto& lists = network.config("agg1a")->prefix_lists;
         for (auto& list : lists) {
           if (list.name == "POD_LOCAL" && list.entries.size() > 1) {
             list.entries.pop_back();
           }
         }
       }},
  };

  std::vector<Case> cases;
  for (const auto& [pods, tors] : fabrics) {
    const Scenario scenario = dcnScenario(pods, tors);
    for (const Edit& edit : edits) {
      cases.push_back(runCase(scenario, edit, reps));
    }
  }

  if (json) {
    std::puts("[");
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[i];
      std::printf(
          "  {\"scenario\": \"%s\", \"routers\": %d, \"edit\": \"%s\", "
          "\"full_ms\": %.3f, \"delta_ms\": %.3f, \"speedup\": %.1f, "
          "\"full_rounds\": %d, \"delta_rounds\": %d, "
          "\"dirty_prefixes\": %llu, \"work_items\": %llu}%s\n",
          c.scenario.c_str(), c.routers, c.edit.c_str(), c.full_ms,
          c.delta_ms, c.speedup(), c.full_rounds, c.delta_rounds,
          static_cast<unsigned long long>(c.dirty_prefixes),
          static_cast<unsigned long long>(c.work_items),
          i + 1 < cases.size() ? "," : "");
    }
    std::puts("]");
    return 0;
  }

  bench::section("full vs delta simulation, single-device edits (median of " +
                 std::to_string(reps) + " reps, results verified identical)");
  bench::Table table({"scenario", "routers", "edit", "full ms", "delta ms",
                      "speedup", "dirty", "work items"});
  table.printHeader();
  for (const Case& c : cases) {
    table.printRow({c.scenario, std::to_string(c.routers), c.edit,
                    bench::fmt(c.full_ms, 3), bench::fmt(c.delta_ms, 3),
                    bench::fmt(c.speedup(), 1) + "x",
                    std::to_string(c.dirty_prefixes),
                    std::to_string(c.work_items)});
  }
  table.printRule();
  return 0;
}
