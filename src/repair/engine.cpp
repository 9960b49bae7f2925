#include "repair/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <optional>
#include <random>

#include "fixgen/change.hpp"
#include "localize/coverage.hpp"
#include "obs/record.hpp"
#include "obs/trace.hpp"
#include "routing/delta_tree.hpp"
#include "symbolic/symbolic.hpp"
#include "util/metrics.hpp"
#include "verify/failures.hpp"

namespace acr::repair {

std::string terminationName(Termination termination) {
  switch (termination) {
    case Termination::kRepaired:
      return "repaired";
    case Termination::kNothingToRepair:
      return "nothing-to-repair";
    case Termination::kExhausted:
      return "candidates-exhausted";
    case Termination::kIterationLimit:
      return "iteration-limit";
    case Termination::kCancelled:
      return "cancelled";
  }
  return "?";
}

std::string RepairResult::summary() const {
  std::string out = terminationName(termination);
  out += ": " + std::to_string(initial_failed) + " -> " +
         std::to_string(final_failed) + " failing tests in " +
         std::to_string(iterations) + " iteration(s), " +
         std::to_string(validations) + " validation(s)";
  if (!changes.empty()) {
    out += "\nchanges:";
    for (const auto& change : changes) out += "\n  * " + change;
  }
  return out;
}

namespace {

// The search shape, fixed at the values every recording and benchmark uses.
constexpr std::size_t kMaxCandidates = 4;  // population cap between iterations
constexpr std::size_t kMaxProposalsPerLine = 4;  // per template and line
constexpr int kCrossoverPairs = 2;  // recombination draws per iteration
constexpr int kToleranceMaxScenarios = 64;  // k-failure scenarios enumerated

struct Candidate {
  topo::Network network;
  std::vector<std::string> changes;
  /// The applied change closures, in order — replayable against the original
  /// faulty network, which is what makes crossover possible.
  std::vector<fix::ProposedChange> applied;
  int fitness = 0;
};

}  // namespace

RepairResult AcrEngine::repair(const topo::Network& faulty) const {
  const auto started = std::chrono::steady_clock::now();
  RepairResult result;
  result.repaired = faulty;

  obs::FlightRecorder* const recorder = options_.recorder;
  // Deep call sites (smt::Solver) record through this thread-local binding.
  const obs::RecorderScope recorder_scope(recorder);
  obs::Span repair_span("repair");
  repair_span.attr("seed", static_cast<std::int64_t>(options_.seed));

  util::MetricsRegistry& metrics = util::MetricsRegistry::global();
  // The LOCALIZE stage reports per-segment: simulation (delta or full),
  // suite evaluation (probes + coverage + spectrum), and ranking.
  util::Histogram& localize_sim_ms = metrics.histogram("repair.localize.sim_ms");
  util::Histogram& localize_suite_ms =
      metrics.histogram("repair.localize.suite_ms");
  util::Histogram& localize_rank_ms =
      metrics.histogram("repair.localize.rank_ms");
  util::Histogram& fix_ms = metrics.histogram("repair.fix_ms");
  util::Histogram& validate_ms = metrics.histogram("repair.validate_ms");
  metrics.counter("repair.runs").add(1);

  route::SimOptions validate_options;
  validate_options.record_provenance = false;  // validation never needs it
  route::SimOptions localize_options;
  localize_options.record_provenance = true;

  // k-failure tolerance report / violation count (empty/0 when disabled).
  const auto toleranceReport =
      [&](const topo::Network& updated) -> verify::FailureToleranceReport {
    if (options_.tolerance_k <= 0) return {};
    verify::FailureToleranceOptions tolerance_options;
    tolerance_options.max_link_failures = options_.tolerance_k;
    tolerance_options.max_scenarios = kToleranceMaxScenarios;
    tolerance_options.samples_per_intent = options_.samples_per_intent;
    tolerance_options.sim_options = validate_options;
    return verify::verifyUnderFailures(updated, intents_, tolerance_options);
  };
  const auto toleranceFailures = [&](const topo::Network& updated) -> int {
    int failures = 0;
    for (const auto& violation : toleranceReport(updated).violations) {
      failures += violation.tests_failed;
    }
    return failures;
  };

  verify::IncrementalVerifier main_verifier(intents_, validate_options,
                                            options_.samples_per_intent);
  const std::vector<verify::TestCase>& tests = main_verifier.tests();
  // A caller-provided pre-converged simulation (the acrd snapshot cache's
  // primed baseline) replaces the one full anchor simulation.
  const verify::VerifyResult baseline =
      main_verifier.baseline(faulty, options_.baseline_sim);
  const int baseline_fitness =
      baseline.tests_failed + toleranceFailures(faulty);
  result.initial_failed = baseline_fitness;
  result.final_failed = baseline_fitness;
  if (recorder != nullptr) {
    recorder->baseline(baseline_fitness, baseline.tests_run);
  }

  const auto finish = [&](Termination termination, bool success) {
    result.termination = termination;
    result.success = success;
    // The terminal event closes every recording — including a cancelled
    // one, whose last line is `"termination":"cancelled"`.
    if (recorder != nullptr) {
      recorder->end(terminationName(termination), result.iterations,
                    static_cast<int>(result.validations), result.final_failed,
                    result.changes);
    }
    result.diff = diffNetworks(faulty, result.repaired);
    result.elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - started)
            .count();
    if (success && termination == Termination::kRepaired) {
      metrics.counter("repair.repaired").add(1);
    }
    metrics.counter("repair.iterations")
        .add(static_cast<std::uint64_t>(result.iterations));
    metrics.counter("repair.validations").add(result.validations);
    metrics.counter("verify.tests_reverified").add(result.tests_reverified);
    metrics.counter("verify.tests_skipped").add(result.tests_skipped);
    return result;
  };

  if (baseline_fitness == 0) return finish(Termination::kNothingToRepair, true);

  std::mt19937_64 rng(options_.seed);
  std::vector<Candidate> population{
      Candidate{faulty, {}, {}, baseline_fitness}};
  int previous_fitness = baseline_fitness;
  // LOCALIZE is one provenance-recording simulation per candidate plus the
  // whole suite. The faulty network runs the full simulator once per
  // topology: the plain one, and each degraded link set the tolerance check
  // localizes on. Every other candidate is a one-leaf delta tree off that
  // anchor.
  const verify::Verifier localize_verifier(intents_, localize_options);
  std::optional<route::SimResult> plain_anchor;
  std::map<std::vector<std::size_t>,
           std::pair<topo::Network, route::SimResult>>
      degraded_anchors;
  // Localizes `network` (configs differ from the faulty network's exactly on
  // `changed`) on the topology without `links` — the plain one when empty.
  // Returns how it simulated: "anchor", "delta" or the delta tree's fallback
  // reason (an unconverged anchor falls back to a full run there).
  const auto localize = [&](const topo::Network& network,
                            const std::vector<std::string>& changed,
                            std::vector<std::size_t> links,
                            route::SimResult& sim,
                            sbfl::SuiteRun& suite) -> std::string {
    std::string sim_kind;
    {
      const util::ScopedTimer sim_timer(localize_sim_ms);
      const topo::Network* anchor_network = &faulty;
      const route::SimResult* anchor = nullptr;
      if (links.empty()) {
        if (!plain_anchor) {
          plain_anchor = route::Simulator(faulty).run(localize_options);
        }
        anchor = &*plain_anchor;
      } else {
        std::sort(links.begin(), links.end());
        auto [it, inserted] = degraded_anchors.try_emplace(std::move(links));
        auto& [degraded, degraded_sim] = it->second;
        if (inserted) {
          degraded = verify::withoutLinks(faulty, it->first);
          degraded_sim = route::Simulator(degraded).run(localize_options);
        }
        anchor_network = &degraded;
        anchor = &degraded_sim;
      }
      if (changed.empty()) {
        sim = *anchor;
        sim_kind = "anchor";
      } else {
        route::TreeLeafStats stats;
        sim = route::DeltaTree(*anchor_network, *anchor, localize_options)
                  .run(network, changed, &stats);
        sim_kind = stats.used_delta ? "delta" : stats.fallback_reason;
      }
    }
    const util::ScopedTimer suite_timer(localize_suite_ms);
    suite = sbfl::runSuite(network, sim, localize_verifier, tests);
    return sim_kind;
  };

  // Fitness (= number of failing tests) plus the verifier work it cost.
  struct Score {
    int fitness = 0;
    std::uint64_t tests_reverified = 0;
    std::uint64_t tests_skipped = 0;
    /// How the probe simulated: "delta-tree", a fallback-rule reason, or
    /// "full-verify" (use_incremental off).
    std::string sim;
    /// Delta-tree node path, empty for the full-verify oracle.
    std::string node;
  };
  // The one candidate-scoring path, shared by VALIDATE and crossover: a
  // probe of a CandidateBatch over the anchor verifier. A probe never
  // touches the verifier, so every evaluation is a pure function of
  // (anchor, base, candidate).
  const auto evaluate = [&](const topo::Network& updated,
                            verify::CandidateBatch& batch) -> Score {
    const verify::CandidateBatch::Probe probe = batch.probe(updated);
    Score score;
    score.tests_reverified =
        static_cast<std::uint64_t>(probe.tests_reverified);
    score.tests_skipped = static_cast<std::uint64_t>(probe.tests_skipped);
    score.fitness = probe.verdict.tests_failed + toleranceFailures(updated);
    score.sim = probe.sim;
    score.node = probe.node;
    return score;
  };
  const auto account = [&](const Score& score) {
    ++result.validations;
    result.tests_reverified += score.tests_reverified;
    result.tests_skipped += score.tests_skipped;
  };
  // With batch_validate a round's candidates share its population candidate
  // as the tree base; without, every leaf forks off the verifier's anchor.
  const auto baseFor =
      [&](const topo::Network& candidate) -> const topo::Network& {
    return options_.batch_validate ? candidate
                                   : *main_verifier.cachedNetwork();
  };
  // Raised by the validation scan / crossover loop when the cancel flag
  // trips between candidates — a running VALIDATE round stops at the next
  // candidate boundary instead of finishing the iteration.
  bool cancelled = false;

  for (int iteration = 1; iteration <= options_.max_iterations; ++iteration) {
    if (options_.cancel != nullptr &&
        options_.cancel->load(std::memory_order_relaxed)) {
      return finish(Termination::kCancelled, false);
    }
    result.iterations = iteration;
    IterationStats stats;
    stats.iteration = iteration;

    std::vector<Candidate> next_population;
    for (const Candidate& candidate : population) {
      // ---- LOCALIZE -------------------------------------------------------
      std::optional<obs::Span> localize_span;
      localize_span.emplace("localize");
      localize_span->attr("iteration", static_cast<std::int64_t>(iteration));
      std::vector<std::string> changed_devices;
      for (const auto& diff : diffNetworks(faulty, candidate.network)) {
        changed_devices.push_back(diff.device);
      }
      route::SimResult sim;
      sbfl::SuiteRun suite;
      std::string sim_kind =
          localize(candidate.network, changed_devices, {}, sim, suite);
      // When the plain suite is green but a k-failure scenario violates,
      // the fault is latent: localize on the degraded topology where the
      // violation manifests (configs are identical, so line coordinates
      // transfer directly), delta-seeded off the faulty network with the
      // same links removed.
      const topo::Network* context_network = &candidate.network;
      topo::Network degraded;
      const bool plain_failing =
          std::any_of(suite.results.begin(), suite.results.end(),
                      [](const verify::TestResult& r) { return !r.passed; });
      if (!plain_failing && options_.tolerance_k > 0) {
        const verify::FailureToleranceReport report =
            toleranceReport(candidate.network);
        if (!report.violations.empty()) {
          const std::vector<std::size_t>& links =
              report.violations.front().link_indices;
          degraded = verify::withoutLinks(candidate.network, links);
          sim_kind = localize(degraded, changed_devices, links, sim, suite);
          context_network = &degraded;
        }
      }
      const auto rank_started = std::chrono::steady_clock::now();
      const std::vector<sbfl::LineScore> ranked = suite.spectrum.rank(
          options_.metric, options_.seed + static_cast<std::uint64_t>(iteration));
      localize_rank_ms.observe(std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() -
                                   rank_started)
                                   .count());
      localize_span->attr("suspects",
                          static_cast<std::int64_t>(ranked.size()));
      localize_span->attr("sim", sim_kind);
      localize_span.reset();
      if (recorder != nullptr) {
        std::vector<obs::FlightRecorder::Suspect> suspects;
        constexpr std::size_t kMaxSuspects = 8;
        for (const auto& score : ranked) {
          if (suspects.size() >= kMaxSuspects || score.failed_cover == 0) break;
          suspects.push_back({score.line.device, score.line.line,
                              score.suspiciousness});
        }
        recorder->localize(iteration, suspects);
      }

      // Resolve line info lazily, per device.
      std::map<std::string, std::map<int, cfg::LineInfo>> line_index;
      const auto infoOf =
          [&](const cfg::LineId& line) -> const cfg::LineInfo* {
        auto it = line_index.find(line.device);
        if (it == line_index.end()) {
          const cfg::DeviceConfig* device = candidate.network.config(line.device);
          if (device == nullptr) return nullptr;
          it = line_index.emplace(line.device, device->buildLineIndex()).first;
        }
        const auto line_it = it->second.find(line.line);
        return line_it == it->second.end() ? nullptr : &line_it->second;
      };

      // ---- FIX ------------------------------------------------------------
      const fix::RepairContext context{*context_network, sim, intents_,
                                       suite.results, suite.coverage};
      // generate(exhaustive): instantiate templates on the top suspicious
      // lines. In search mode one randomly-drawn template per line; when
      // `exhaustive`, every applicable template (used by brute-force mode
      // and as the sampling-without-replacement fallback when a round's
      // random draws all get discarded — S = ∅ must mean "no candidate can
      // be generated", not "this round was unlucky").
      std::set<std::string> seen_proposals;
      const auto generate = [&](bool exhaustive) {
        const util::ScopedTimer fix_timer(fix_ms);
        obs::Span fix_span("fixgen");
        fix_span.attr("exhaustive", std::int64_t{exhaustive ? 1 : 0});
        std::vector<fix::ProposedChange> proposals;
        int productive_lines = 0;
        for (const auto& score : ranked) {
          if (productive_lines >= options_.top_k_lines) break;
          if (score.failed_cover == 0) break;  // only failure-covered lines
          const cfg::LineInfo* info = infoOf(score.line);
          if (info == nullptr) continue;
          auto applicable = fix::templatesFor(info->kind);
          if (applicable.empty()) continue;
          if (!exhaustive) {
            if (options_.history != nullptr && !options_.history->empty()) {
              // History-guided draw: order templates by a weighted sample
              // (heavier past success => earlier draw), instead of a
              // uniform shuffle.
              std::vector<std::pair<double, std::size_t>> keys;
              keys.reserve(applicable.size());
              std::uniform_real_distribution<double> unit(1e-9, 1.0);
              for (std::size_t t = 0; t < applicable.size(); ++t) {
                const double w = options_.history->weight(applicable[t]->name());
                // Exponential-race trick: smallest -log(u)/w wins.
                keys.emplace_back(-std::log(unit(rng)) / w, t);
              }
              std::sort(keys.begin(), keys.end());
              std::vector<std::shared_ptr<const fix::ChangeTemplate>> ordered;
              ordered.reserve(applicable.size());
              for (const auto& [key, t] : keys) ordered.push_back(applicable[t]);
              applicable = std::move(ordered);
            } else {
              std::shuffle(applicable.begin(), applicable.end(), rng);
            }
          }
          int from_line = 0;
          for (const auto& tmpl : applicable) {
            std::vector<fix::ProposedChange> from_template;
            {
              obs::Span propose_span("fixgen.propose");
              propose_span.attr("template", tmpl->name());
              from_template = tmpl->propose(context, score.line, *info);
            }
            if (from_template.size() > kMaxProposalsPerLine) {
              from_template.resize(kMaxProposalsPerLine);
            }
            if (recorder != nullptr && !from_template.empty()) {
              recorder->templateFired(tmpl->name(), score.line.device,
                                      score.line.line,
                                      static_cast<int>(from_template.size()));
            }
            from_line += static_cast<int>(from_template.size());
            for (auto& proposal : from_template) {
              if (seen_proposals.insert(proposal.description).second) {
                proposals.push_back(std::move(proposal));
              }
            }
            if (!exhaustive && from_line > 0) break;
          }
          if (from_line > 0) ++productive_lines;
        }
        result.search_space += proposals.size();
        return proposals;
      };

      // Selective symbolic pass: solve suspect-device fields jointly and
      // prepend each satisfying model as a multi-device candidate, so the
      // round's batch VALIDATE scores compound fixes alongside (and before)
      // the concrete template proposals.
      std::vector<fix::ProposedChange> proposals;
      if (options_.symbolic) {
        symb::SymbolicOptions sym_options;
        sym_options.suspicion_threshold = options_.symbolic_suspicion;
        sym_options.max_variables = options_.symbolic_max_variables;
        sym_options.fork_budget = options_.symbolic_fork_budget;
        symb::SymbolicOutcome outcome =
            symb::proposeSymbolic(context, ranked, sym_options);
        for (auto& proposal : outcome.proposals) {
          if (seen_proposals.insert(proposal.description).second) {
            proposals.push_back(std::move(proposal));
          }
        }
        result.search_space += proposals.size();
        if (recorder != nullptr && !proposals.empty()) {
          recorder->templateFired("symbolic-model", outcome.anchor_device,
                                  outcome.anchor_line,
                                  static_cast<int>(proposals.size()));
        }
      }
      for (auto& proposal : generate(options_.brute_force)) {
        proposals.push_back(std::move(proposal));
      }

      // ---- VALIDATE -------------------------------------------------------
      bool repaired = false;
      const auto validate =
          [&](const std::vector<fix::ProposedChange>& proposals) {
            const util::ScopedTimer validate_timer(validate_ms);
            obs::Span validate_span("validate.round");
            validate_span.attr("iteration",
                               static_cast<std::int64_t>(iteration));
            validate_span.attr(
                "proposals", static_cast<std::int64_t>(proposals.size()));
            // Every applying proposal is a leaf of one candidate batch over
            // `base`, built lazily and scored in proposal order, so the
            // scan's early exits (repair found, cancellation) skip the base
            // propagation and every candidate past the winner.
            const topo::Network& base = baseFor(candidate.network);
            std::optional<verify::CandidateBatch> batch;
            int applied = 0;  // verdict index: counts applying proposals only
            for (const fix::ProposedChange& proposal : proposals) {
              if (repaired) break;
              topo::Network updated = candidate.network;
              if (!proposal.apply(updated)) continue;
              const int index = applied++;
              // Cooperative cancellation between candidates: a remote
              // cancel lands mid-round instead of waiting out the
              // iteration.
              if (options_.cancel != nullptr &&
                  options_.cancel->load(std::memory_order_relaxed)) {
                cancelled = true;
                return;
              }
              ++stats.candidates_generated;
              if (options_.history != nullptr) {
                options_.history->recordAttempt(proposal.template_name);
              }
              if (!batch) {
                batch.emplace(main_verifier, base, options_.use_incremental);
              }
              const Score score = evaluate(updated, *batch);
              account(score);
              const int fitness = score.fitness;
              // The paper's fitness rule: discard updates whose fitness
              // exceeds the previous iteration's.
              const bool discarded = fitness > previous_fitness;
              if (recorder != nullptr) {
                recorder->verdict(iteration, index, proposal.template_name,
                                  proposal.description, fitness, !discarded,
                                  score.sim,
                                  static_cast<int>(score.tests_reverified),
                                  static_cast<int>(score.tests_skipped),
                                  score.node);
              }
              if (discarded) {
                metrics.counter("repair.candidates_discarded").add(1);
                continue;
              }

              Candidate next;
              next.network = std::move(updated);
              next.changes = candidate.changes;
              next.changes.push_back('[' + proposal.template_name + "] " +
                                     proposal.description);
              next.applied = candidate.applied;
              next.applied.push_back(proposal);
              next.fitness = fitness;
              if (fitness == 0) {
                result.repaired = next.network;
                result.changes = next.changes;
                result.final_failed = 0;
                repaired = true;
                if (options_.history != nullptr) {
                  for (const auto& change : next.applied) {
                    options_.history->recordSuccess(change.template_name);
                  }
                }
              }
              next_population.push_back(std::move(next));
            }
          };

      validate(proposals);
      if (cancelled) return finish(Termination::kCancelled, false);
      if (!repaired && next_population.empty() && !options_.brute_force) {
        // Every random draw was discarded: continue sampling without
        // replacement before concluding S = ∅.
        validate(generate(/*exhaustive=*/true));
        if (cancelled) return finish(Termination::kCancelled, false);
      }
      if (repaired) {
        stats.candidates_kept = 1;
        stats.fitness = 0;
        result.history.push_back(stats);
        return finish(Termination::kRepaired, true);
      }
    }

    // ---- CROSSOVER (optional, §4.2) ---------------------------------------
    // Single-point recombination of two survivors' change sequences,
    // replayed against the original faulty network. An individual change
    // whose apply() no longer holds (e.g. the other parent already made it)
    // is skipped — the idempotence guards make replay safe.
    if (options_.use_crossover && next_population.size() >= 2) {
      obs::Span crossover_span("crossover");
      int crossover_produced = 0;
      std::vector<Candidate> children;
      std::optional<verify::CandidateBatch> crossover_batch;
      std::uniform_int_distribution<std::size_t> pick(
          0, next_population.size() - 1);
      for (int pair = 0; pair < kCrossoverPairs; ++pair) {
        if (options_.cancel != nullptr &&
            options_.cancel->load(std::memory_order_relaxed)) {
          if (recorder != nullptr) {
            recorder->crossover(kCrossoverPairs, crossover_produced);
          }
          return finish(Termination::kCancelled, false);
        }
        const std::size_t ia = pick(rng);
        const std::size_t ib = pick(rng);
        if (ia == ib) continue;
        const Candidate& a = next_population[ia];
        const Candidate& b = next_population[ib];
        if (a.applied.empty() || b.applied.empty()) continue;
        std::uniform_int_distribution<std::size_t> cut_a(1, a.applied.size());
        std::uniform_int_distribution<std::size_t> cut_b(
            0, b.applied.size() - 1);
        const std::size_t head = cut_a(rng);
        const std::size_t tail = cut_b(rng);
        Candidate child;
        child.network = faulty;
        for (std::size_t k = 0; k < head; ++k) {
          if (a.applied[k].apply(child.network)) {
            child.applied.push_back(a.applied[k]);
            child.changes.push_back(a.changes[k]);
          }
        }
        for (std::size_t k = tail; k < b.applied.size(); ++k) {
          if (b.applied[k].apply(child.network)) {
            child.applied.push_back(b.applied[k]);
            child.changes.push_back(b.changes[k]);
          }
        }
        if (child.applied.empty() || child.changes == a.changes ||
            child.changes == b.changes) {
          continue;
        }
        ++stats.candidates_generated;
        ++crossover_produced;
        // Children replay changes onto the faulty network, so they share no
        // base: their leaves fork off the anchor.
        if (!crossover_batch) {
          crossover_batch.emplace(main_verifier, *main_verifier.cachedNetwork(),
                                  options_.use_incremental);
        }
        const Score child_score = evaluate(child.network, *crossover_batch);
        account(child_score);
        child.fitness = child_score.fitness;
        if (recorder != nullptr) {
          recorder->verdict(iteration, -1 - pair, "crossover",
                            child.changes.empty() ? "" : child.changes.back(),
                            child.fitness,
                            child.fitness <= previous_fitness,
                            child_score.sim,
                            static_cast<int>(child_score.tests_reverified),
                            static_cast<int>(child_score.tests_skipped),
                            child_score.node);
        }
        if (child.fitness > previous_fitness) continue;
        if (child.fitness == 0) {
          result.repaired = child.network;
          result.changes = child.changes;
          result.final_failed = 0;
          if (options_.history != nullptr) {
            for (const auto& change : child.applied) {
              options_.history->recordSuccess(change.template_name);
            }
          }
          stats.candidates_kept = 1;
          stats.fitness = 0;
          result.history.push_back(stats);
          return finish(Termination::kRepaired, true);
        }
        children.push_back(std::move(child));
      }
      if (recorder != nullptr) {
        recorder->crossover(kCrossoverPairs, crossover_produced);
      }
      for (auto& child : children) {
        next_population.push_back(std::move(child));
      }
    }

    if (next_population.empty()) {
      return finish(Termination::kExhausted, false);
    }
    std::sort(next_population.begin(), next_population.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.fitness != b.fitness) return a.fitness < b.fitness;
                return a.changes.size() < b.changes.size();
              });
    if (next_population.size() > kMaxCandidates) {
      next_population.resize(kMaxCandidates);
    }
    stats.candidates_kept = static_cast<int>(next_population.size());
    // The paper: the iteration's fitness is the largest fitness among the
    // preserved updates.
    stats.fitness = next_population.back().fitness;
    previous_fitness = stats.fitness;
    result.history.push_back(stats);

    population = std::move(next_population);
    result.repaired = population.front().network;
    result.changes = population.front().changes;
    result.final_failed = population.front().fitness;
    // Re-anchor the differential cache at the current best candidate. The
    // full-verify oracle never reads the anchor, so it stays put there.
    if (options_.use_incremental) {
      (void)main_verifier.update(population.front().network);
    }
  }

  return finish(Termination::kIterationLimit, false);
}

}  // namespace acr::repair
