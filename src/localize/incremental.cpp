#include "localize/incremental.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "dataplane/trace.hpp"
#include "localize/coverage.hpp"
#include "routing/delta_tree.hpp"
#include "util/metrics.hpp"
#include "verify/failures.hpp"

namespace acr::sbfl {

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Byte-level equality of the PBR sections (rules, actions, match prefixes
/// and line numbers) — the only config a dataplane trace reads per hop.
bool samePbrConfig(const cfg::DeviceConfig* a, const cfg::DeviceConfig* b) {
  if (a == nullptr || b == nullptr) return a == b;
  if (a->pbr_policies.size() != b->pbr_policies.size()) return false;
  for (std::size_t i = 0; i < a->pbr_policies.size(); ++i) {
    const cfg::PbrPolicy& pa = a->pbr_policies[i];
    const cfg::PbrPolicy& pb = b->pbr_policies[i];
    if (pa.name != pb.name || pa.line != pb.line ||
        pa.rules.size() != pb.rules.size()) {
      return false;
    }
    for (std::size_t j = 0; j < pa.rules.size(); ++j) {
      const cfg::PbrRule& ra = pa.rules[j];
      const cfg::PbrRule& rb = pb.rules[j];
      if (ra.index != rb.index || ra.action != rb.action ||
          ra.source != rb.source || ra.destination != rb.destination ||
          ra.redirect_next_hop != rb.redirect_next_hop ||
          ra.line != rb.line) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

LocalizeCache::LocalizeCache(const topo::Network& origin,
                             std::vector<verify::Intent> intents,
                             std::vector<verify::TestCase> tests,
                             route::SimOptions localize_options,
                             bool multipath)
    : origin_(origin),
      verifier_(std::move(intents), localize_options, multipath),
      tests_(std::move(tests)),
      options_(localize_options),
      multipath_(multipath) {
  if (multipath_) options_.enable_ecmp = true;
}

void LocalizeCache::fullSuite(const topo::Network& network,
                              LocalizeOutcome& out) const {
  const auto started = Clock::now();
  std::vector<verify::TestResult> raw =
      verifier_.runTests(network, out.sim, tests_);
  out.results.reserve(raw.size());
  out.coverage.reserve(raw.size());
  for (auto& result : raw) {
    out.coverage.push_back(coverageOf(network, out.sim, result));
    out.spectrum.addTest(*out.coverage.back(), result.passed);
    out.results.push_back(std::move(result));
  }
  out.probe_misses = out.results.size();
  out.suite_ms = msSince(started);
  util::MetricsRegistry::global()
      .counter("localize.cache.probe_misses")
      .add(out.probe_misses);
}

LocalizeOutcome LocalizeCache::fullPipeline(const topo::Network& network,
                                            std::string sim_kind) const {
  LocalizeOutcome out;
  out.sim_kind = std::move(sim_kind);
  const auto started = Clock::now();
  out.sim = route::Simulator(network).run(options_);
  out.sim_ms = msSince(started);
  fullSuite(network, out);
  return out;
}

LocalizeCache::Anchor LocalizeCache::buildAnchor(
    topo::Network network, LocalizeOutcome* outcome) const {
  Anchor anchor;
  anchor.network = std::move(network);
  const auto sim_started = Clock::now();
  anchor.sim = route::Simulator(anchor.network).run(options_);
  const double sim_ms = msSince(sim_started);

  const auto suite_started = Clock::now();
  std::vector<verify::TestResult> raw =
      verifier_.runTests(anchor.network, anchor.sim, tests_);
  const std::size_t n = raw.size();
  anchor.results.reserve(n);
  anchor.coverage.reserve(n);
  anchor.rows.reserve(n);
  anchor.footprints.reserve(n);
  for (auto& result : raw) {
    ProbeFootprint footprint;
    anchor.coverage.push_back(
        coverageOf(anchor.network, anchor.sim, result, &footprint));
    anchor.rows.push_back(
        anchor.spectrum.lines()->internRow(*anchor.coverage.back()));
    anchor.spectrum.addRow(anchor.rows.back(), result.passed);
    anchor.footprints.push_back(std::move(footprint));
    anchor.results.push_back(std::move(result));
  }
  anchor.usable = anchor.sim.converged && !anchor.sim.provenance.empty();
  const double suite_ms = msSince(suite_started);

  if (outcome != nullptr) {
    outcome->sim = anchor.sim;
    outcome->results = anchor.results;
    outcome->coverage = anchor.coverage;
    outcome->spectrum = anchor.spectrum;
    outcome->sim_kind = "anchor";
    outcome->probe_misses = n;
    outcome->sim_ms = sim_ms;
    outcome->suite_ms = suite_ms;
  }
  util::MetricsRegistry::global()
      .counter("localize.cache.probe_misses")
      .add(n);
  return anchor;
}

LocalizeOutcome LocalizeCache::localizeAgainst(
    const Anchor& anchor, const topo::Network& network,
    const std::vector<std::string>& changed_devices) const {
  if (!anchor.usable) return fullPipeline(network, "full");

  LocalizeOutcome out;
  const auto sim_started = Clock::now();
  route::TreeLeafStats stats;
  out.sim = route::DeltaTree(anchor.network, anchor.sim, options_)
                .run(network, changed_devices, &stats);
  out.sim_ms = msSince(sim_started);
  if (!stats.used_delta) {
    // The delta premise broke (fallback rule fired): the full engine
    // already ran inside the delta tree, so only the suite remains.
    out.sim_kind = stats.fallback_reason;
    fullSuite(network, out);
    return out;
  }
  out.sim_kind = "delta";
  out.derivations_fresh = stats.fresh_derivations;
  out.derivations_reused = stats.reused_derivations;

  const auto suite_started = Clock::now();
  // Entry-granular invalidation. A traversed hop reads exactly two things:
  // its FIB entries matching the probe's destination and its PBR policies.
  // So only a state-changed or chain-dirty cell whose prefix contains that
  // destination — or a PBR-section edit at the hop — can change what it
  // saw; a routing-only config edit (bgp, policies, redistribution) flows
  // through the FIB and is already captured by the dirty cells. The
  // absence walk's RIB lookups are all for its recorded prefix (only
  // overlapping dirty cells matter) but its config reads span the whole
  // device; the subnet owner contributed config lines only.
  const std::set<std::string> config_dirty(changed_devices.begin(),
                                           changed_devices.end());
  std::set<std::string> fwd_config_dirty;
  for (const std::string& device : changed_devices) {
    if (!samePbrConfig(anchor.network.config(device),
                       network.config(device))) {
      fwd_config_dirty.insert(device);
    }
  }
  std::map<std::string, std::vector<net::Prefix>> dirty_cells;
  for (const auto& [router, prefix] : stats.changed_vs_anchor) {
    dirty_cells[router].push_back(prefix);
  }
  for (const auto& [router, prefix] : stats.dirty_chain_cells) {
    dirty_cells[router].push_back(prefix);
  }
  const bool anything_dirty =
      !config_dirty.empty() || !dirty_cells.empty();
  const auto hop_dirty = [&](const std::string& hop, net::Ipv4Address dst) {
    if (fwd_config_dirty.count(hop) != 0) return true;
    const auto it = dirty_cells.find(hop);
    if (it == dirty_cells.end()) return false;
    for (const net::Prefix& prefix : it->second) {
      if (prefix.contains(dst)) return true;
    }
    return false;
  };
  const auto state_dirty = [&](const std::string& router,
                               const net::Prefix& walked) {
    const auto it = dirty_cells.find(router);
    if (it == dirty_cells.end()) return false;
    for (const net::Prefix& prefix : it->second) {
      if (prefix.overlaps(walked)) return true;
    }
    return false;
  };

  const std::size_t n = tests_.size();
  out.results.reserve(n);
  out.coverage.reserve(n);
  Spectrum spectrum = anchor.spectrum;  // shares the line table, copies counts
  std::optional<dp::DataPlane> dataplane;
  // A multipath trace keeps only its worst branch — not the whole read
  // set — so caching is unsound there: rerun everything.
  const bool cacheable = !multipath_;
  for (std::size_t i = 0; i < n; ++i) {
    const ProbeFootprint& footprint = anchor.footprints[i];
    const net::Ipv4Address dst = tests_[i].packet.dst;
    bool reuse = cacheable && !(footprint.global && anything_dirty);
    if (reuse) {
      for (const std::string& hop : footprint.hops) {
        if (hop_dirty(hop, dst)) {
          reuse = false;
          break;
        }
      }
    }
    if (reuse) {
      for (const std::string& router : footprint.state_reads) {
        if (state_dirty(router, footprint.state_prefix)) {
          reuse = false;
          break;
        }
      }
    }
    if (reuse) {
      // Config edits only reach the absence walk through the clauses it
      // actually read (walk_config_reads) — a merely-visited router whose
      // neighbors all lacked the route contributed no config read.
      for (const std::string& router : footprint.walk_config_reads) {
        if (config_dirty.count(router) != 0) {
          reuse = false;
          break;
        }
      }
    }
    if (reuse) {
      for (const std::string& router : footprint.config_reads) {
        if (config_dirty.count(router) != 0) {
          reuse = false;
          break;
        }
      }
    }
    if (reuse) {
      // A hit aliases the anchor's rows — a reference-count bump, not a
      // deep copy of the trace and the covered-line set.
      ++out.probe_hits;
      out.results.push_back(anchor.results[i]);
      out.coverage.push_back(anchor.coverage[i]);
      continue;
    }
    ++out.probe_misses;
    if (!dataplane) dataplane.emplace(network, out.sim);
    verify::TestResult result;
    result.test = tests_[i];
    if (multipath_) {
      result.trace = dataplane->traceMultipath(tests_[i].packet).worst();
    } else {
      result.trace = dataplane->trace(tests_[i].packet);
    }
    result.passed = verify::judgeTest(
        verifier_.intents()[static_cast<std::size_t>(tests_[i].intent_index)],
        result.trace, &result.reason);
    spectrum.removeRow(anchor.rows[i], anchor.results[i]->passed);
    std::set<cfg::LineId> covered = coverageOf(network, out.sim, result);
    spectrum.addRow(spectrum.lines()->internRow(covered), result.passed);
    out.coverage.push_back(std::move(covered));
    out.results.push_back(std::move(result));
  }
  out.spectrum = std::move(spectrum);
  out.suite_ms = msSince(suite_started);

  util::MetricsRegistry& metrics = util::MetricsRegistry::global();
  metrics.counter("localize.cache.probe_hits").add(out.probe_hits);
  metrics.counter("localize.cache.probe_misses").add(out.probe_misses);
  metrics.counter("localize.cache.derivations_reused")
      .add(out.derivations_reused);
  return out;
}

LocalizeOutcome LocalizeCache::localize(
    const topo::Network& network,
    const std::vector<std::string>& changed_devices) {
  if (!plain_) {
    LocalizeOutcome built;
    const bool is_origin = changed_devices.empty();
    plain_ = buildAnchor(origin_, is_origin ? &built : nullptr);
    if (is_origin) return built;
  }
  return localizeAgainst(*plain_, network, changed_devices);
}

LocalizeOutcome LocalizeCache::localizeDegraded(
    const topo::Network& network,
    const std::vector<std::string>& changed_devices,
    std::vector<std::size_t> links) {
  std::sort(links.begin(), links.end());
  auto it = degraded_.find(links);
  if (it == degraded_.end()) {
    LocalizeOutcome built;
    const bool is_origin = changed_devices.empty();
    Anchor anchor = buildAnchor(verify::withoutLinks(origin_, links),
                                is_origin ? &built : nullptr);
    it = degraded_.emplace(std::move(links), std::move(anchor)).first;
    if (is_origin) return built;
  }
  return localizeAgainst(it->second, network, changed_devices);
}

}  // namespace acr::sbfl
