// Ablation (paper §6, "computing suspiciousness scores"): how the choice of
// SBFL metric — Tarantula (the paper's), Ochiai, Jaccard, DStar(2), and a
// random-localization floor — affects repair success and effort on the same
// incident corpus.
//
// Usage: bench_ablation_sbfl [incidents] [seed]
#include <cstdlib>

#include "bench/util.hpp"
#include "core/acr.hpp"

namespace acr::cli {

void usage(const char* why) {
  if (why != nullptr) std::fprintf(stderr, "bench_ablation_sbfl: %s\n", why);
  std::fputs("usage: bench_ablation_sbfl [incidents] [seed]\n", stderr);
  std::exit(2);
}

}  // namespace acr::cli

int main(int argc, char** argv) {
  const int incidents =
      acr::bench::positional(argc, argv, 1, "incidents", 40, 1);
  const auto seed =
      acr::bench::positional<std::uint64_t>(argc, argv, 2, "seed", 3);

  std::printf("SBFL metric ablation over %d incidents (seed %llu)\n",
              incidents, static_cast<unsigned long long>(seed));

  acr::bench::Table table({"Metric", "Repaired", "Avg iterations",
                           "Avg validations", "Avg ms"},
                          {12, 10, 16, 17, 10});
  table.printHeader();

  const acr::sbfl::Metric metrics[] = {
      acr::sbfl::Metric::kTarantula,   acr::sbfl::Metric::kOchiai,
      acr::sbfl::Metric::kJaccard,     acr::sbfl::Metric::kDstar2,
      acr::sbfl::Metric::kOp2,         acr::sbfl::Metric::kKulczynski2,
      acr::sbfl::Metric::kRandom};
  for (const auto metric : metrics) {
    acr::CampaignOptions options;
    options.incidents = incidents;
    options.seed = seed;  // identical corpus across metrics
    options.repair.metric = metric;
    const acr::CampaignResult campaign = acr::runCampaign(options);
    long iterations = 0;
    long validations = 0;
    double ms = 0;
    int repaired = 0;
    for (const auto& record : campaign.records) {
      if (record.repair.success) ++repaired;
      iterations += record.repair.iterations;
      validations += static_cast<long>(record.repair.validations);
      ms += record.repair.elapsed_ms;
    }
    const double n = std::max<std::size_t>(campaign.records.size(), 1);
    table.printRow({acr::sbfl::metricName(metric),
                    std::to_string(repaired) + "/" +
                        std::to_string(campaign.records.size()),
                    acr::bench::fmt(iterations / n, 2),
                    acr::bench::fmt(validations / n, 1),
                    acr::bench::fmt(ms / n, 1)});
  }
  table.printRule();
  return 0;
}
