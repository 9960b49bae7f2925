#include "repair/baselines.hpp"

#include <algorithm>
#include <chrono>
#include <set>

#include "fixgen/change.hpp"
#include "localize/coverage.hpp"

namespace acr::repair {

namespace {

struct Judged {
  bool resolved = false;
  bool regressions = false;
};

/// Compares the outcome network against the original per-test verdicts.
Judged judge(const std::vector<verify::TestResult>& before,
             const topo::Network& after,
             const std::vector<verify::Intent>& intents) {
  const verify::Verifier verifier(intents);
  const verify::VerifyResult verdict = verifier.verify(after);
  Judged judged;
  judged.resolved = true;
  for (std::size_t i = 0; i < before.size(); ++i) {
    const bool was_passing = before[i].passed;
    const bool now_passing = verdict.results[i].passed;
    if (!was_passing && !now_passing) judged.resolved = false;
    if (was_passing && !now_passing) judged.regressions = true;
  }
  return judged;
}

const cfg::LineInfo* resolveLine(
    std::map<std::string, std::map<int, cfg::LineInfo>>& cache,
    const topo::Network& network, const cfg::LineId& line) {
  auto it = cache.find(line.device);
  if (it == cache.end()) {
    const cfg::DeviceConfig* device = network.config(line.device);
    if (device == nullptr) return nullptr;
    it = cache.emplace(line.device, device->buildLineIndex()).first;
  }
  const auto line_it = it->second.find(line.line);
  return line_it == it->second.end() ? nullptr : &line_it->second;
}

}  // namespace

BaselineResult provenanceRepair(const topo::Network& faulty,
                                const std::vector<verify::Intent>& intents) {
  const auto started = std::chrono::steady_clock::now();
  BaselineResult result;
  result.method = "metaprov";
  result.repaired = faulty;

  const route::SimResult sim = route::Simulator(faulty).run();
  const verify::Verifier verifier(intents);
  const std::vector<verify::TestResult> before =
      verifier.runTests(faulty, sim, verify::generateTests(intents));

  const auto finish = [&]() {
    result.elapsed_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - started)
                            .count();
    return result;
  };

  const verify::TestResult* failing = nullptr;
  for (const auto& test_result : before) {
    if (!test_result.passed) {
      failing = &test_result;
      break;
    }
  }
  if (failing == nullptr) {
    result.resolved = true;
    return finish();
  }

  // The provenance tree of the abnormal event; its leaves are the method's
  // whole search space.
  const std::set<cfg::LineId> leaves = sbfl::coverageOf(faulty, sim, *failing);
  result.search_space = leaves.size();

  std::vector<std::set<cfg::LineId>> coverage;
  coverage.reserve(before.size());
  for (const auto& test_result : before) {
    coverage.push_back(sbfl::coverageOf(faulty, sim, test_result));
  }
  const fix::RepairContext context{faulty, sim, intents, before, coverage};

  // Modify the first traced source that admits a change — no validation.
  std::map<std::string, std::map<int, cfg::LineInfo>> cache;
  for (const auto& line : leaves) {
    ++result.explored;
    const cfg::LineInfo* info = resolveLine(cache, faulty, line);
    if (info == nullptr) continue;
    for (const auto& tmpl : fix::templatesFor(info->kind)) {
      const std::vector<fix::ProposedChange> proposals =
          tmpl->propose(context, line, *info);
      for (const auto& proposal : proposals) {
        topo::Network updated = faulty;
        if (!proposal.apply(updated)) continue;
        result.repaired = std::move(updated);
        result.changes.push_back('[' + proposal.template_name + "] " +
                                 proposal.description);
        const Judged judged = judge(before, result.repaired, intents);
        result.resolved = judged.resolved;
        result.regressions = judged.regressions;
        return finish();
      }
    }
  }
  return finish();
}

BaselineResult synthesisRepair(const topo::Network& faulty,
                               const std::vector<verify::Intent>& intents,
                               const SynthesisRepairOptions& options) {
  const auto started = std::chrono::steady_clock::now();
  BaselineResult result;
  result.method = "aed";
  result.repaired = faulty;

  // Search space: one delta variable per configuration line.
  const int lines = faulty.totalLines();
  result.aed_log2_space = static_cast<double>(lines);
  result.search_space =
      lines >= 63 ? ~std::uint64_t{0} : (std::uint64_t{1} << lines);

  const route::SimResult sim = route::Simulator(faulty).run();
  const verify::Verifier verifier(intents);
  const std::vector<verify::TestResult> before =
      verifier.runTests(faulty, sim, verify::generateTests(intents));

  const auto finish = [&]() {
    result.elapsed_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - started)
                            .count();
    return result;
  };

  const bool initially_ok =
      std::all_of(before.begin(), before.end(),
                  [](const verify::TestResult& r) { return r.passed; });
  if (initially_ok) {
    result.resolved = true;
    return finish();
  }

  std::vector<std::set<cfg::LineId>> coverage;
  coverage.reserve(before.size());
  for (const auto& test_result : before) {
    coverage.push_back(sbfl::coverageOf(faulty, sim, test_result));
  }
  const fix::RepairContext context{faulty, sim, intents, before, coverage};

  // Atomic actions: every template proposal over every configuration line.
  std::vector<fix::ProposedChange> actions;
  std::set<std::string> seen;
  std::map<std::string, std::map<int, cfg::LineInfo>> cache;
  for (const auto& [device_name, device] : faulty.configs) {
    for (const auto& [line_no, info] : device.buildLineIndex()) {
      const cfg::LineId line{device_name, line_no};
      for (const auto& tmpl : fix::templatesFor(info.kind)) {
        for (auto& proposal : tmpl->propose(context, line, info)) {
          if (seen.insert(proposal.description).second) {
            actions.push_back(std::move(proposal));
          }
        }
      }
    }
  }

  // Systematic search over assignments: subsets of actions up to
  // max_change_depth, validated in full, within the budget.
  std::vector<std::size_t> stack;
  const std::size_t action_count = actions.size();

  const std::function<bool(topo::Network&, std::size_t, int)> search =
      [&](topo::Network& base, std::size_t first, int depth) -> bool {
    for (std::size_t i = first; i < action_count; ++i) {
      if (result.explored >= options.budget) return false;
      topo::Network updated = base;
      if (!actions[i].apply(updated)) continue;
      ++result.explored;
      const verify::VerifyResult verdict = verifier.verify(updated);
      stack.push_back(i);
      if (verdict.tests_failed == 0) {
        result.repaired = std::move(updated);
        for (const std::size_t idx : stack) {
          result.changes.push_back('[' + actions[idx].template_name + "] " +
                                   actions[idx].description);
        }
        result.resolved = true;
        result.regressions = false;  // full validation: zero failures
        return true;
      }
      if (depth + 1 < options.max_change_depth &&
          search(updated, i + 1, depth + 1)) {
        return true;
      }
      stack.pop_back();
    }
    return false;
  };

  topo::Network base = faulty;
  (void)search(base, 0, 0);
  return finish();
}

}  // namespace acr::repair
