// Ablation (paper §4.2, "generation strategy"): template-guided random
// search vs brute-force application of every applicable template to every
// suspicious line. Brute force explores a larger forest per iteration (more
// validations); search keeps the per-iteration cost near-constant.
//
// Usage: bench_ablation_strategy [incidents] [seed]
#include <cstdlib>

#include "bench/util.hpp"
#include "core/acr.hpp"

namespace acr::cli {

void usage(const char* why) {
  if (why != nullptr) std::fprintf(stderr, "bench_ablation_strategy: %s\n", why);
  std::fputs("usage: bench_ablation_strategy [incidents] [seed]\n", stderr);
  std::exit(2);
}

}  // namespace acr::cli

int main(int argc, char** argv) {
  const int incidents =
      acr::bench::positional(argc, argv, 1, "incidents", 40, 1);
  const auto seed =
      acr::bench::positional<std::uint64_t>(argc, argv, 2, "seed", 3);

  std::printf("generation-strategy ablation over %d incidents (seed %llu)\n",
              incidents, static_cast<unsigned long long>(seed));

  acr::bench::Table table({"Strategy", "Repaired", "Avg iterations",
                           "Avg validations", "Forest leaves", "Avg ms"},
                          {16, 10, 16, 17, 15, 10});
  table.printHeader();
  struct Mode {
    const char* label;
    bool brute_force;
    bool history;
  };
  for (const Mode mode : {Mode{"search", false, false},
                          Mode{"search+history", false, true},
                          Mode{"brute-force", true, false}}) {
    acr::CampaignOptions options;
    options.incidents = incidents;
    options.seed = seed;
    options.repair.brute_force = mode.brute_force;
    options.share_history = mode.history;
    const acr::CampaignResult campaign = acr::runCampaign(options);
    long iterations = 0;
    long validations = 0;
    long leaves = 0;
    double ms = 0;
    int repaired = 0;
    for (const auto& record : campaign.records) {
      if (record.repair.success) ++repaired;
      iterations += record.repair.iterations;
      validations += static_cast<long>(record.repair.validations);
      leaves += static_cast<long>(record.repair.search_space);
      ms += record.repair.elapsed_ms;
    }
    const double n = std::max<std::size_t>(campaign.records.size(), 1);
    table.printRow({mode.label,
                    std::to_string(repaired) + "/" +
                        std::to_string(campaign.records.size()),
                    acr::bench::fmt(iterations / n, 2),
                    acr::bench::fmt(validations / n, 1),
                    acr::bench::fmt(leaves / n, 1),
                    acr::bench::fmt(ms / n, 1)});
  }
  table.printRule();
  return 0;
}
