// Table 1 reproduction: misconfiguration types, single/multi-line class,
// observed ratio in the generated incident corpus — plus what the paper
// could not yet show: ACR's repair success, iterations and resolving time
// per type.
//
// Usage: bench_table1 [incidents] [seed]
#include <cstdlib>
#include <map>

#include "bench/util.hpp"
#include "core/acr.hpp"

namespace acr::cli {

void usage(const char* why) {
  if (why != nullptr) std::fprintf(stderr, "bench_table1: %s\n", why);
  std::fputs("usage: bench_table1 [incidents] [seed]\n", stderr);
  std::exit(2);
}

}  // namespace acr::cli

int main(int argc, char** argv) {
  const int incidents =
      acr::bench::positional(argc, argv, 1, "incidents", 120, 1);
  const auto seed =
      acr::bench::positional<std::uint64_t>(argc, argv, 2, "seed", 42);

  std::printf("ACR Table 1 campaign: %d incidents (seed %llu)\n", incidents,
              static_cast<unsigned long long>(seed));
  std::printf("fault distribution sampled from the paper's ratio column\n");

  acr::CampaignOptions options;
  options.incidents = incidents;
  options.seed = seed;
  const acr::CampaignResult campaign = acr::runCampaign(options);

  struct Row {
    int count = 0;
    int repaired = 0;
    int multi_line_changes = 0;
    long iterations = 0;
    double total_ms = 0;
  };
  std::map<acr::inject::FaultType, Row> rows;
  for (const auto& record : campaign.records) {
    Row& row = rows[record.type];
    ++row.count;
    if (record.repair.success) ++row.repaired;
    if (record.injected_lines > 1) ++row.multi_line_changes;
    row.iterations += record.repair.iterations;
    row.total_ms += record.repair.elapsed_ms;
  }

  acr::bench::Table table({"Configs", "Type", "Lines", "Paper", "Observed",
                           "Repaired", "Avg iters", "Avg ms"},
                          {8, 42, 7, 8, 10, 10, 11, 10});
  table.printHeader();
  const int total = static_cast<int>(campaign.records.size());
  for (const auto& spec : acr::inject::faultCatalog()) {
    const Row row = rows[spec.type];
    table.printRow({
        spec.category,
        spec.label,
        spec.multi_line ? "M" : "S",
        acr::bench::pct(spec.ratio),
        total == 0 ? "-" : acr::bench::pct(double(row.count) / total),
        row.count == 0
            ? "-"
            : acr::bench::pct(double(row.repaired) / row.count, 0),
        row.count == 0 ? "-"
                       : acr::bench::fmt(double(row.iterations) / row.count),
        row.count == 0 ? "-" : acr::bench::fmt(row.total_ms / row.count),
    });
  }
  table.printRule();

  int multi = 0;
  for (const auto& record : campaign.records) {
    if (record.injected_lines > 1) ++multi;
  }
  std::printf("\n%d incidents violated intents; %d repaired (%.1f%%)\n", total,
              campaign.repairedCount(),
              total == 0 ? 0.0 : 100.0 * campaign.repairedCount() / total);
  std::printf("multi-line incidents: %.1f%% (paper: 83.2%%)\n",
              total == 0 ? 0.0 : 100.0 * multi / total);
  return 0;
}
