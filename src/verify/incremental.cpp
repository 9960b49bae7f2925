#include "verify/incremental.hpp"

#include <set>

#include "netcore/prefix_trie.hpp"
#include "obs/trace.hpp"

namespace acr::verify {

IncrementalVerifier::IncrementalVerifier(std::vector<Intent> intents,
                                         route::SimOptions sim_options,
                                         int samples_per_intent,
                                         bool multipath)
    : intents_(std::move(intents)),
      tests_(generateTests(intents_, samples_per_intent)),
      sim_options_(sim_options),
      multipath_(multipath) {
  if (multipath_) sim_options_.enable_ecmp = true;
}

void IncrementalVerifier::exportStats(util::MetricsRegistry& registry) const {
  registry.counter("verify.simulations").add(stats_.simulations);
  registry.counter("verify.tests_total").add(stats_.tests_total);
  registry.counter("verify.tests_reverified").add(stats_.tests_reverified);
  registry.counter("verify.tests_skipped").add(stats_.tests_skipped);
  registry.counter("verify.delta_sims").add(stats_.delta_sims);
  registry.counter("verify.delta_fallbacks").add(stats_.delta_fallbacks);
}

VerifyResult IncrementalVerifier::toVerifyResult() const {
  VerifyResult out;
  out.results = cached_results_;
  out.tests_run = static_cast<int>(out.results.size());
  for (const auto& result : out.results) {
    if (!result.passed) ++out.tests_failed;
  }
  return out;
}

VerifyResult IncrementalVerifier::baseline(const topo::Network& network,
                                           const route::SimResult* seed_sim) {
  obs::Span span("verify.baseline");
  const Verifier verifier(intents_, sim_options_, multipath_);
  route::SimResult sim;
  // A seed is only adopted when it plausibly belongs to this network (one
  // RIB per configured device); anything else re-simulates. Derivation ids
  // inside an adopted seed may reference the seed's own provenance graph —
  // verdicts, traces and FIBs never depend on them.
  if (seed_sim != nullptr &&
      seed_sim->rib.size() == network.configs.size()) {
    sim = *seed_sim;
  } else {
    sim = route::Simulator(network).run(sim_options_);
    ++stats_.simulations;
  }
  cached_results_ = verifier.runTests(network, sim, tests_);
  stats_.tests_total += tests_.size();
  stats_.tests_reverified += tests_.size();
  cached_sim_ = std::move(sim);
  cached_network_ = network;
  return toVerifyResult();
}

namespace {

std::vector<std::string> devicesOf(const std::vector<cfg::ConfigDiff>& diffs) {
  std::vector<std::string> devices;
  devices.reserve(diffs.size());
  for (const auto& diff : diffs) devices.push_back(diff.device);
  return devices;
}

std::string joinDevices(const std::vector<std::string>& devices) {
  std::string joined;
  for (const std::string& device : devices) {
    if (!joined.empty()) joined += '+';
    joined += device;
  }
  return joined;
}

}  // namespace

VerifyResult IncrementalVerifier::update(const topo::Network& network) {
  obs::Span span("verify.update");
  if (!cached_sim_ || !cached_network_) return baseline(network);

  const std::vector<std::string> changed =
      devicesOf(diffNetworks(*cached_network_, network));
  route::TreeLeafStats leaf;
  route::SimResult sim =
      route::DeltaTree(*cached_network_, *cached_sim_, sim_options_)
          .run(network, changed, &leaf);
  ++stats_.simulations;
  ++(leaf.used_delta ? stats_.delta_sims : stats_.delta_fallbacks);
  // Changed devices catch data-plane-only edits such as PBR rules.
  rejudge(network, sim, {changed.begin(), changed.end()},
          changedPrefixes(sim, leaf), cached_results_, stats_);
  cached_sim_ = std::move(sim);
  cached_network_ = network;
  return toVerifyResult();
}

std::set<net::Prefix> IncrementalVerifier::changedPrefixes(
    const route::SimResult& sim, const route::TreeLeafStats& leaf) const {
  std::set<net::Prefix> changed_prefixes;
  if (leaf.used_delta) {
    for (const auto& [router, prefix] : leaf.changed_vs_anchor) {
      changed_prefixes.insert(prefix);
    }
    return changed_prefixes;
  }
  // The RIB diff walks packed pages (shared pages skip wholesale) instead
  // of comparing key() strings per entry.
  sim.rib.changedPrefixesInto(cached_sim_->rib, changed_prefixes);
  changed_prefixes.insert(cached_sim_->flapping.begin(),
                          cached_sim_->flapping.end());
  changed_prefixes.insert(sim.flapping.begin(), sim.flapping.end());
  return changed_prefixes;
}

void IncrementalVerifier::rejudge(
    const topo::Network& network, const route::SimResult& sim,
    const std::set<std::string>& changed_devices,
    const std::set<net::Prefix>& changed_prefixes,
    std::vector<TestResult>& results, Stats& stats) const {
  // Longest-prefix-match beats the linear scan once a few prefixes churn:
  // every test queries this twice (src and dst).
  net::PrefixTrie<bool> changed_trie;
  for (const auto& prefix : changed_prefixes) changed_trie.insert(prefix, true);
  const auto address_affected = [&](net::Ipv4Address address) {
    return changed_trie.longestMatch(address) != nullptr;
  };

  const Verifier verifier(intents_, sim_options_, multipath_);
  const dp::DataPlane dataplane(network, sim);

  for (std::size_t i = 0; i < tests_.size(); ++i) {
    ++stats.tests_total;
    TestResult& cached = results[i];
    bool must_recheck = !cached.passed;
    if (!must_recheck) {
      must_recheck = address_affected(tests_[i].packet.dst) ||
                     address_affected(tests_[i].packet.src);
    }
    if (!must_recheck && !changed_devices.empty()) {
      if (multipath_) {
        // The cached trace is only the worst branch; an edited device could
        // sit on an unexplored sibling branch, so device edits invalidate
        // every cached verdict under multipath semantics.
        must_recheck = true;
      } else {
        for (const auto& hop : cached.trace.hops) {
          if (changed_devices.count(hop.router) != 0) {
            must_recheck = true;
            break;
          }
        }
      }
    }
    if (!must_recheck) {
      ++stats.tests_skipped;
      continue;
    }
    ++stats.tests_reverified;
    TestResult fresh;
    fresh.test = tests_[i];
    fresh.trace = multipath_
                      ? dataplane.traceMultipath(tests_[i].packet).worst()
                      : dataplane.trace(tests_[i].packet);
    fresh.passed = judgeTest(
        intents_[static_cast<std::size_t>(tests_[i].intent_index)], fresh.trace,
        &fresh.reason);
    cached = std::move(fresh);
  }
}

CandidateBatch::CandidateBatch(const IncrementalVerifier& verifier,
                               const topo::Network& base, bool incremental)
    : verifier_(verifier), base_(base), base_path_("anchor") {
  if (!incremental || !verifier_.cached_sim_ || !verifier_.cached_network_) {
    return;
  }
  base_changed_ = devicesOf(diffNetworks(*verifier_.cached_network_, base_));
  if (!base_changed_.empty()) {
    base_path_ += '/' + joinDevices(base_changed_);
  }
  tree_.emplace(*verifier_.cached_network_, *verifier_.cached_sim_,
                verifier_.sim_options_);
  tree_->setBase(base_, base_changed_);
}

CandidateBatch::Probe CandidateBatch::probe(const topo::Network& candidate) {
  obs::Span span("verify.batch_probe");
  Probe out;
  if (!tree_) {
    // The oracle: a from-scratch simulation judged on the whole suite.
    const Verifier verifier(verifier_.intents_, verifier_.sim_options_,
                            verifier_.multipath_);
    const route::SimResult sim =
        route::Simulator(candidate).run(verifier_.sim_options_);
    out.verdict.results = verifier.runTests(candidate, sim, verifier_.tests_);
    out.sim = "full-verify";
    out.tests_reverified = static_cast<int>(verifier_.tests_.size());
  } else {
    const std::vector<std::string> anchor_changed =
        devicesOf(diffNetworks(*verifier_.cached_network_, candidate));
    // vs. the base: when the base IS the anchor the anchor diff is the base
    // diff; otherwise diff against the base network directly.
    const std::vector<std::string> changed_vs_base =
        base_changed_.empty() ? anchor_changed
                              : devicesOf(diffNetworks(base_, candidate));
    out.node = base_path_ + '/' +
               (changed_vs_base.empty() ? std::string("=")
                                        : joinDevices(changed_vs_base));

    IncrementalVerifier::Stats stats;
    std::vector<TestResult> results = verifier_.cached_results_;
    tree_->leaf(candidate, changed_vs_base,
                [&](const route::SimResult& sim,
                    const route::TreeLeafStats& leaf) {
                  out.sim = leaf.used_delta ? "delta-tree"
                                            : leaf.fallback_reason;
                  verifier_.rejudge(
                      candidate, sim,
                      {anchor_changed.begin(), anchor_changed.end()},
                      verifier_.changedPrefixes(sim, leaf), results, stats);
                });
    out.verdict.results = std::move(results);
    out.tests_reverified = static_cast<int>(stats.tests_reverified);
    out.tests_skipped = static_cast<int>(stats.tests_skipped);
  }

  out.verdict.tests_run = static_cast<int>(out.verdict.results.size());
  for (const auto& result : out.verdict.results) {
    if (!result.passed) ++out.verdict.tests_failed;
  }
  return out;
}

}  // namespace acr::verify
