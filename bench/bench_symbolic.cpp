// Concrete template loop vs selective symbolic simulation on a multi-device
// fault class: cross-pod prefix-list holes in a DCN fabric.
//
// The harness punches the same hole into several pods at once — the
// 20.<pod>/16 VIP entry is dropped from POD_LOCAL on both aggs of each holed
// pod — and adds one explicit cross-pod probe intent per hole. The concrete
// template loop repairs this class one device-local patch at a time, paying
// roughly one LOCALIZE/FIXGEN/VALIDATE iteration per pod. The symbolic pass
// symbolizes every suspect list, accumulates P ∧ ¬F constraints across all
// failing probes, and asks the solver for one model that plugs every hole —
// a single VALIDATE round, regardless of how many pods are broken.
//
//   bench_symbolic [--reps N] [--smoke] [--json]
//
// --smoke runs the 4x2 fabric with two holed pods once (CI wiring check);
// --json replaces the table with a machine-readable array (committed as
// BENCH_symbolic.json for regression tracking). Both paths must converge to
// a verified-green network before any number is reported. On the 8x8 fabric
// the harness gates itself: the symbolic pass must need at most half the
// engine iterations of the concrete loop, and must not regress wall-clock.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/util.hpp"
#include "core/scenarios.hpp"
#include "repair/engine.hpp"
#include "tools/cli.hpp"
#include "verify/verifier.hpp"

namespace {

using namespace acr;

verify::Intent probeIntent(const std::string& src, const std::string& dst) {
  verify::Intent intent;
  intent.kind = verify::IntentKind::kReachability;
  intent.name = src + "->" + dst;
  intent.space.src_space = *net::Prefix::parse(src);
  intent.space.dst_space = *net::Prefix::parse(dst);
  return intent;
}

/// A DCN fabric with the VIP entry of POD_LOCAL removed on both aggs of
/// each pod in `holes`, plus one explicit cross-pod probe per holed pod
/// (the auto-generated suite only reliably exercises pod 1's VIP).
Scenario holedDcn(int pods, int tors, const std::vector<int>& holes) {
  Scenario scenario = dcnScenario(pods, tors);
  for (int pod : holes) {
    for (const char* side : {"a", "b"}) {
      const std::string agg = "agg" + std::to_string(pod) + side;
      cfg::PrefixList* list =
          scenario.built.network.config(agg)->findPrefixList("POD_LOCAL");
      if (list == nullptr || list->entries.size() < 2) {
        std::fprintf(stderr, "%s: no POD_LOCAL to hole\n", agg.c_str());
        std::exit(1);
      }
      list->entries.erase(list->entries.begin() + 1, list->entries.end());
    }
    const std::string src =
        "10." + std::to_string(pod == 1 ? 2 : 1) + ".1.0/24";
    const std::string vip = "20." + std::to_string(pod) + ".1.0/24";
    scenario.intents.push_back(probeIntent(src, vip));
  }
  scenario.built.network.renumberAll();
  return scenario;
}

struct Run {
  bool success = false;
  int iterations = 0;
  std::uint64_t validations = 0;
  double ms = 0;
};

struct Case {
  std::string scenario;
  int routers = 0;
  int holed_pods = 0;
  Run concrete;
  Run symbolic;

  [[nodiscard]] double iter_ratio() const {
    return symbolic.iterations > 0
               ? static_cast<double>(concrete.iterations) /
                     symbolic.iterations
               : 0;
  }
  [[nodiscard]] double speedup() const {
    return symbolic.ms > 0 ? concrete.ms / symbolic.ms : 0;
  }
};

double medianMs(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

Run runRepair(const Scenario& scenario, const repair::RepairOptions& options,
              int reps, const char* label) {
  const repair::AcrEngine engine(scenario.intents, options);
  Run run;
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const repair::RepairResult result = engine.repair(scenario.network());
    const auto end = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
    if (rep > 0 && (result.success != run.success ||
                    result.iterations != run.iterations)) {
      std::fprintf(stderr, "%s / %s: non-deterministic rerun\n",
                   scenario.name.c_str(), label);
      std::exit(1);
    }
    run.success = result.success;
    run.iterations = result.iterations;
    run.validations = result.validations;
    if (rep == 0) {
      // Reported numbers must never come from an unrepaired network.
      if (!result.success) {
        std::fprintf(stderr, "%s / %s: repair failed: %s\n",
                     scenario.name.c_str(), label,
                     result.summary().c_str());
        std::exit(1);
      }
      const verify::VerifyResult check =
          verify::Verifier(scenario.intents).verify(result.repaired);
      if (!check.ok()) {
        std::fprintf(stderr, "%s / %s: repaired network fails %d tests\n",
                     scenario.name.c_str(), label, check.tests_failed);
        std::exit(1);
      }
    }
  }
  run.ms = medianMs(samples);
  return run;
}

Case runCase(int pods, int tors, int holed_pods, int reps) {
  std::vector<int> holes;
  for (int pod = 1; pod <= holed_pods; ++pod) holes.push_back(pod);
  const Scenario scenario = holedDcn(pods, tors, holes);

  repair::RepairOptions concrete;  // the template loop as shipped
  repair::RepairOptions symbolic;
  symbolic.symbolic = true;
  symbolic.symbolic_max_variables = 16;
  symbolic.symbolic_fork_budget = 8;

  Case result;
  result.scenario = scenario.name;
  result.routers = static_cast<int>(scenario.network().configs.size());
  result.holed_pods = holed_pods;
  result.concrete = runRepair(scenario, concrete, reps, "concrete");
  result.symbolic = runRepair(scenario, symbolic, reps, "symbolic");
  return result;
}

}  // namespace

namespace acr::cli {

void usage(const char* why) {
  if (why != nullptr) std::fprintf(stderr, "bench_symbolic: %s\n", why);
  std::fputs("usage: bench_symbolic [--reps N] [--smoke] [--json]\n",
             stderr);
  std::exit(2);
}

}  // namespace acr::cli

int main(int argc, char** argv) {
  int reps = 3;
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

  // {pods, tors, holed pods}. The 8x8/4-pod case is the gated flagship.
  std::vector<std::array<int, 3>> fabrics = {{4, 2, 2}, {8, 8, 4}};
  if (smoke) {
    fabrics = {{4, 2, 2}};
    reps = 1;
  }

  std::vector<Case> cases;
  for (const auto& [pods, tors, holed] : fabrics) {
    cases.push_back(runCase(pods, tors, holed, reps));
  }

  // Self-gate on the flagship fabric: fewer than 2x fewer engine iterations
  // (or a wall-clock regression) means the symbolic pass has stopped paying
  // for itself. Checked after the report so a regression shows its numbers.
  const auto gate = [&]() -> int {
    if (smoke) return 0;
    for (const Case& c : cases) {
      if (c.scenario != "dcn-8x8") continue;
      if (c.iter_ratio() < 2.0) {
        std::fprintf(stderr, "GATE: %s iteration ratio %.1fx < 2.0x\n",
                     c.scenario.c_str(), c.iter_ratio());
        return 1;
      }
      // 10% tolerance absorbs timing noise; the iteration gate above is the
      // deterministic one.
      if (c.symbolic.ms > c.concrete.ms * 1.10) {
        std::fprintf(stderr,
                     "GATE: %s symbolic %.1fms regresses concrete %.1fms\n",
                     c.scenario.c_str(), c.symbolic.ms, c.concrete.ms);
        return 1;
      }
    }
    return 0;
  };

  if (json) {
    std::puts("[");
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[i];
      std::printf(
          "  {\"scenario\": \"%s\", \"routers\": %d, \"holed_pods\": %d, "
          "\"concrete_iterations\": %d, \"concrete_validations\": %llu, "
          "\"concrete_ms\": %.1f, \"symbolic_iterations\": %d, "
          "\"symbolic_validations\": %llu, \"symbolic_ms\": %.1f, "
          "\"iteration_ratio\": %.1f, \"speedup\": %.1f}%s\n",
          c.scenario.c_str(), c.routers, c.holed_pods, c.concrete.iterations,
          static_cast<unsigned long long>(c.concrete.validations),
          c.concrete.ms, c.symbolic.iterations,
          static_cast<unsigned long long>(c.symbolic.validations),
          c.symbolic.ms, c.iter_ratio(), c.speedup(),
          i + 1 < cases.size() ? "," : "");
    }
    std::puts("]");
    return gate();
  }

  bench::section(
      "concrete loop vs symbolic VALIDATE, cross-pod prefix holes (median "
      "of " +
      std::to_string(reps) + " reps, repairs verified green)");
  bench::Table table({"scenario", "routers", "holes", "conc iters",
                      "conc vals", "conc ms", "symb iters", "symb vals",
                      "symb ms", "iter ratio", "speedup"});
  table.printHeader();
  for (const Case& c : cases) {
    table.printRow({c.scenario, std::to_string(c.routers),
                    std::to_string(c.holed_pods),
                    std::to_string(c.concrete.iterations),
                    std::to_string(c.concrete.validations),
                    bench::fmt(c.concrete.ms, 1),
                    std::to_string(c.symbolic.iterations),
                    std::to_string(c.symbolic.validations),
                    bench::fmt(c.symbolic.ms, 1),
                    bench::fmt(c.iter_ratio(), 1) + "x",
                    bench::fmt(c.speedup(), 1) + "x"});
  }
  table.printRule();
  return gate();
}
