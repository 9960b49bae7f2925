#include "repair/searchspace.hpp"

#include "fixgen/change.hpp"
#include "localize/coverage.hpp"
#include "verify/verifier.hpp"

namespace acr::repair {

SearchSpaceReport measureSearchSpaces(const topo::Network& faulty,
                                      const std::vector<verify::Intent>& intents,
                                      const SearchSpaceOptions& options) {
  SearchSpaceReport report;
  report.total_lines = faulty.totalLines();
  report.devices = static_cast<int>(faulty.configs.size());
  report.aed_log2 = static_cast<double>(report.total_lines);

  route::SimOptions sim_options;
  sim_options.record_provenance = true;
  const route::SimResult sim = route::Simulator(faulty).run(sim_options);
  const verify::Verifier verifier(intents, sim_options);
  const std::vector<verify::TestCase> tests =
      verify::generateTests(intents, options.samples_per_intent);
  const sbfl::SuiteRun suite = sbfl::runSuite(faulty, sim, verifier, tests);
  for (std::size_t i = 0; i < suite.results.size(); ++i) {
    if (!suite.results[i].passed) {
      report.metaprov_leaves = suite.coverage[i].size();
      break;
    }
  }

  const fix::RepairContext context{faulty, sim, intents, suite.results,
                                   suite.coverage};
  std::map<std::string, std::map<int, cfg::LineInfo>> cache;
  int lines_used = 0;
  for (const auto& score : suite.spectrum.rank(options.metric)) {
    if (lines_used >= options.top_k_lines) break;
    if (score.failed_cover == 0) break;
    auto it = cache.find(score.line.device);
    if (it == cache.end()) {
      const cfg::DeviceConfig* device = faulty.config(score.line.device);
      if (device == nullptr) continue;
      it = cache.emplace(score.line.device, device->buildLineIndex()).first;
    }
    const auto line_it = it->second.find(score.line.line);
    if (line_it == it->second.end()) continue;
    ++lines_used;
    for (const auto& tmpl : fix::templatesFor(line_it->second.kind)) {
      report.acr_leaves +=
          tmpl->propose(context, score.line, line_it->second).size();
    }
  }
  return report;
}

}  // namespace acr::repair
