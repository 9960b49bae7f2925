#include "routing/sim_engine.hpp"

#include <algorithm>
#include <utility>

#include "util/metrics.hpp"

namespace acr::route::detail {

namespace {
// ProvenanceRebuilder memo sentinels, outside the valid id space (ids are
// >= 0; kNoDerivation is -1 and a legal stored value).
constexpr prov::DerivationId kCellUnvisited = -2;
constexpr prov::DerivationId kCellInProgress = -3;
}  // namespace

void packedLocalsFor(const std::string& name, const cfg::DeviceConfig& device,
                     SimTables& tables, prov::ProvenanceGraph* provenance,
                     std::vector<PackedLocal>& out) {
  out.clear();
  for (const auto& itf : device.interfaces) {
    PackedLocal local;
    const net::Prefix prefix = itf.connectedPrefix();
    local.pid = tables.prefixes.intern(prefix);
    local.entry.source = RouteSource::kConnected;
    local.entry.present = 1;
    if (provenance != nullptr) {
      local.entry.derivation = provenance->add(prov::Derivation{
          name, prefix, prov::kNoDerivation, {cfg::LineId{name, itf.ip_line}}});
    }
    out.push_back(local);
  }
  for (const auto& sr : device.static_routes) {
    const bool resolvable =
        std::any_of(device.interfaces.begin(), device.interfaces.end(),
                    [&](const cfg::InterfaceConfig& itf) {
                      return itf.connectedPrefix().contains(sr.next_hop);
                    });
    if (!resolvable) continue;  // inactive static route
    PackedLocal local;
    local.pid = tables.prefixes.intern(sr.prefix);
    local.entry.source = RouteSource::kStatic;
    local.entry.next_hop = sr.next_hop.value();
    local.entry.present = 1;
    if (provenance != nullptr) {
      local.entry.derivation = provenance->add(prov::Derivation{
          name, sr.prefix, prov::kNoDerivation, {cfg::LineId{name, sr.line}}});
    }
    out.push_back(local);
  }
}

void EnginePlan::build(std::size_t router_count,
                       const std::vector<const Flow*>& flows) {
  in_flows.assign(router_count, {});
  out_flows.assign(router_count, {});
  flow_slot.assign(flows.size(), 0);
  slots.assign(router_count, kFirstNeighborSlot);
  std::vector<std::map<int, std::uint16_t>> neighbor_slot(router_count);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const Flow& flow = *flows[i];
    const auto to = static_cast<std::size_t>(flow.to_id);
    const auto from = static_cast<std::size_t>(flow.from_id);
    in_flows[to].push_back(static_cast<std::uint32_t>(i));
    out_flows[from].push_back(static_cast<std::uint32_t>(i));
    const auto [it, inserted] =
        neighbor_slot[to].try_emplace(flow.from_id, slots[to]);
    if (inserted) ++slots[to];
    flow_slot[i] = it->second;
  }
}

void CandidateBoard::configure(const EnginePlan& plan, std::size_t universe) {
  rows_.assign(plan.slots.size(), Row{});
  for (std::size_t rid = 0; rid < rows_.size(); ++rid) {
    rows_[rid].slots = plan.slots[rid];
  }
  universe_ = 0;
  epoch_ = 0;
  growUniverse(universe);
}

void CandidateBoard::growUniverse(std::size_t universe) {
  if (universe <= universe_) return;
  universe_ = universe;
  for (Row& row : rows_) {
    row.cells.resize(universe_ * row.slots);
    row.cell_epoch.resize(universe_ * row.slots, 0);
    row.touched_epoch.resize(universe_, 0);
  }
}

void CandidateBoard::beginRound() {
  ++epoch_;
  for (Row& row : rows_) row.touched.clear();
}

bool CandidateBoard::select(int rid, PrefixId pid, const EntryBetter& better,
                            bool enable_ecmp, RouteEntry& out,
                            EcmpSet& ecmp_out) const {
  const Row& row = rows_[static_cast<std::size_t>(rid)];
  const std::size_t base = static_cast<std::size_t>(pid) * row.slots;
  const RouteEntry* best = nullptr;
  for (std::uint16_t s = 0; s < row.slots; ++s) {
    if (row.cell_epoch[base + s] != epoch_) continue;
    const RouteEntry& candidate = row.cells[base + s];
    if (best == nullptr || better(candidate, *best)) best = &candidate;
  }
  ecmp_out.clear();
  if (best == nullptr) return false;
  out = *best;
  out.present = 1;
  out.has_ecmp = 0;
  if (enable_ecmp && out.source == RouteSource::kBgp) {
    for (std::uint16_t s = 0; s < row.slots; ++s) {
      if (row.cell_epoch[base + s] != epoch_) continue;
      const RouteEntry& candidate = row.cells[base + s];
      if (candidate.source == RouteSource::kBgp &&
          equalCostEntries(candidate, *best)) {
        ecmp_out.emplace_back(candidate.learned_from_id,
                              net::Ipv4Address(candidate.next_hop));
      }
    }
    // Materialization order: (neighbor name, next hop) — the sort order of
    // the old (string, address) pairs.
    const RouterTable& table = *better.table;
    std::sort(ecmp_out.begin(), ecmp_out.end(),
              [&table](const std::pair<std::int32_t, net::Ipv4Address>& a,
                       const std::pair<std::int32_t, net::Ipv4Address>& b) {
                const std::string& na = table.nameOf(a.first);
                const std::string& nb = table.nameOf(b.first);
                if (na != nb) return na < nb;
                return a.second < b.second;
              });
    if (!ecmp_out.empty()) out.has_ecmp = 1;
  }
  return true;
}

bool announceEntryOnFlow(const Flow& flow, PrefixId pid,
                         const RouteEntry& entry, SimTables& tables,
                         prov::ProvenanceGraph* provenance,
                         std::uint64_t* announcements, RouteEntry& out) {
  const cfg::DeviceConfig& exporter = *flow.exporter;
  const net::Prefix& prefix = tables.prefixes.prefixOf(pid);

  // Redistribution gate for locally originated routes.
  if (entry.source == RouteSource::kConnected) {
    if (!exporter.bgp->redistributes_source(cfg::RedistSource::kConnected)) {
      return false;
    }
    if (prefix.length() >= 30) return false;  // never leak transfer subnets
  } else if (entry.source == RouteSource::kStatic) {
    if (!exporter.bgp->redistributes_source(cfg::RedistSource::kStatic)) {
      return false;
    }
  }
  if (announcements != nullptr) ++*announcements;

  const bool record = provenance != nullptr;
  RouteEntry announced = entry;
  announced.source = RouteSource::kBgp;
  announced.has_ecmp = 0;  // derived state, never advertised
  std::vector<cfg::LineId> lines;
  if (record) {
    lines = flow.session_lines;
    lines.insert(lines.end(), flow.export_binding.lines.begin(),
                 flow.export_binding.lines.end());
    if (entry.source != RouteSource::kBgp &&
        exporter.bgp) {  // attribute the redistribute line
      for (const auto& redist : exporter.bgp->redistributes) {
        if ((entry.source == RouteSource::kConnected &&
             redist.source == cfg::RedistSource::kConnected) ||
            (entry.source == RouteSource::kStatic &&
             redist.source == cfg::RedistSource::kStatic)) {
          lines.push_back(cfg::LineId{flow.from, redist.line});
        }
      }
    }
  }
  if (flow.export_binding.bound) {
    if (!applyPreparedPolicy(flow.export_binding.prepared, flow.from, prefix,
                             flow.from_asn, tables.paths, announced,
                             record ? &lines : nullptr)) {
      return false;
    }
  }
  // Prepend own AS unless the overwrite already installed it in front.
  if (announced.as_path_len == 0 ||
      tables.paths.frontOf(announced.as_path_id) != flow.from_asn) {
    announced.as_path_id =
        tables.paths.prepended(announced.as_path_id, flow.from_asn);
    ++announced.as_path_len;
  }

  // Receiver-side loop prevention on the advertised path.
  if (tables.paths.contains(announced.as_path_id, flow.to_asn)) return false;

  out = announced;
  out.local_pref = 100;  // local-pref is not transitive over eBGP
  out.learned_from_id = flow.from_id;
  out.next_hop = flow.from_address.value();
  if (flow.import_binding.bound) {
    if (record) {
      lines.insert(lines.end(), flow.import_binding.lines.begin(),
                   flow.import_binding.lines.end());
    }
    if (!applyPreparedPolicy(flow.import_binding.prepared,
                             flow.importer->hostname, prefix, flow.to_asn,
                             tables.paths, out, record ? &lines : nullptr)) {
      return false;
    }
  }
  if (record) {
    out.derivation = provenance->add(
        prov::Derivation{flow.to, prefix, entry.derivation, std::move(lines)});
  }
  out.present = 1;
  return true;
}

ProvenanceRebuilder::ProvenanceRebuilder(const topo::Network& network,
                                         SimTables& tables,
                                         const std::vector<const Flow*>& flows,
                                         prov::ProvenanceGraph& graph,
                                         EntryAt entry_at, BaseDirty base_dirty)
    : network_(network),
      tables_(tables),
      graph_(graph),
      entry_at_(std::move(entry_at)),
      base_dirty_(std::move(base_dirty)) {
  for (const Flow* flow : flows) {
    flows_between_[{flow->from_id, flow->to_id}].push_back(flow);
  }
  memo_.resize(tables_.routers.names.size());
}

bool ProvenanceRebuilder::fail() {
  failed_ = true;
  return false;
}

std::vector<prov::DerivationId>& ProvenanceRebuilder::rowOf(int rid) {
  auto& row = memo_[static_cast<std::size_t>(rid)];
  if (row.size() < tables_.prefixes.size()) {
    row.resize(tables_.prefixes.size(), kCellUnvisited);
  }
  return row;
}

prov::DerivationId ProvenanceRebuilder::idOf(int rid, PrefixId pid) const {
  const auto& row = memo_[static_cast<std::size_t>(rid)];
  if (static_cast<std::size_t>(pid) >= row.size()) return prov::kNoDerivation;
  const prov::DerivationId id = row[pid];
  return id == kCellUnvisited || id == kCellInProgress ? prov::kNoDerivation
                                                       : id;
}

bool ProvenanceRebuilder::canonicalize(int rid, PrefixId pid,
                                       prov::DerivationId& out) {
  if (failed()) return false;
  {
    auto& row = rowOf(rid);
    const prov::DerivationId cached = row[pid];
    // A cycle is impossible for real chains (receiver-side loop prevention
    // makes learned_from a forest per prefix) — hitting one means state and
    // configs disagree.
    if (cached == kCellInProgress) return fail();
    if (cached != kCellUnvisited) {
      out = cached;
      return true;
    }
    row[pid] = kCellInProgress;
  }

  const RouteEntry* entry = entry_at_(rid, pid);
  if (entry == nullptr) return fail();
  const std::string& name = tables_.routers.nameOf(rid);
  const net::Prefix& prefix = tables_.prefixes.prefixOf(pid);
  prov::DerivationId id = prov::kNoDerivation;
  bool reuse = false;

  if (entry->source == RouteSource::kBgp) {
    prov::DerivationId parent_id = prov::kNoDerivation;
    if (!canonicalize(entry->learned_from_id, pid, parent_id)) return false;
    const RouteEntry* parent = entry_at_(entry->learned_from_id, pid);
    if (parent == nullptr) return fail();
    // Clean parent chains return the parent's stored id unchanged; fresh
    // ids are appended past the anchor segment, so equality here means the
    // whole ancestor chain is clean.
    reuse = !base_dirty_(rid, pid) && parent_id == parent->derivation;
    if (reuse) {
      id = entry->derivation;
    } else {
      RouteEntry parent_input = *parent;
      parent_input.derivation = parent_id;
      // Reproduce the announcement: walk the parallel flows in order and
      // keep the last whose output state-matches the stored best (same-slot
      // staging overwrites, so the last writer is the recorded one).
      const auto it = flows_between_.find({entry->learned_from_id, rid});
      if (it == flows_between_.end()) return fail();
      const Flow* chosen = nullptr;
      RouteEntry probe;
      for (const Flow* flow : it->second) {
        if (announceEntryOnFlow(*flow, pid, parent_input, tables_, nullptr,
                                nullptr, probe) &&
            sameEntryState(probe, *entry)) {
          chosen = flow;
        }
      }
      if (chosen == nullptr) return fail();
      RouteEntry rebuilt;
      if (!announceEntryOnFlow(*chosen, pid, parent_input, tables_, &graph_,
                               nullptr, rebuilt)) {
        return fail();
      }
      id = rebuilt.derivation;
    }
  } else {
    reuse = !base_dirty_(rid, pid);
    if (reuse) {
      id = entry->derivation;
    } else {
      // Reproduce the local origin the way packedLocalsFor records it:
      // interfaces then resolvable statics, last match wins.
      const cfg::DeviceConfig* device = network_.config(name);
      if (device == nullptr) return fail();
      int line = -1;
      if (entry->source == RouteSource::kConnected) {
        for (const auto& itf : device->interfaces) {
          if (itf.connectedPrefix() == prefix) line = itf.ip_line;
        }
      } else if (entry->source == RouteSource::kStatic) {
        for (const auto& sr : device->static_routes) {
          const bool resolvable = std::any_of(
              device->interfaces.begin(), device->interfaces.end(),
              [&](const cfg::InterfaceConfig& itf) {
                return itf.connectedPrefix().contains(sr.next_hop);
              });
          if (resolvable && sr.prefix == prefix &&
              sr.next_hop.value() == entry->next_hop) {
            line = sr.line;
          }
        }
      }
      if (line < 0) return fail();
      id = graph_.add(prov::Derivation{
          name, prefix, prov::kNoDerivation, {cfg::LineId{name, line}}});
    }
  }

  if (reuse) {
    ++reused_;
  } else {
    ++fresh_;
  }
  rowOf(rid)[pid] = id;
  out = id;
  return true;
}

void FullEngine::sizeState(State& state) const {
  state.pages.assign(tables_->routers.names.size(), {});
  state.ecmp.assign(tables_->routers.names.size(), {});
  for (const int rid : config_rids_) {
    state.pages[static_cast<std::size_t>(rid)].assign(universe_, RouteEntry{});
  }
}

void FullEngine::prime() {
  tables_ = seedTables(network_);
  universe_ = tables_->prefixes.size();

  for (const auto& link : network_.topology.links()) {
    result_.sessions.push_back(sessionForLink(network_, link));
  }
  flows_storage_ = buildFlows(network_, result_.sessions, tables_->routers);
  flows_.clear();
  flows_.reserve(flows_storage_.size());
  for (const Flow& flow : flows_storage_) flows_.push_back(&flow);

  plan_.build(tables_->routers.names.size(), flows_);
  board_.configure(plan_, universe_);
  better_ = EntryBetter{&tables_->routers};

  // Locals in config-map order — provenance ids depend on this order.
  prov::ProvenanceGraph* provenance =
      options_.record_provenance ? &result_.provenance : nullptr;
  config_rids_.clear();
  locals_.assign(tables_->routers.names.size(), {});
  for (const auto& [name, device] : network_.configs) {
    const int rid = tables_->routers.idOf(name);
    config_rids_.push_back(rid);
    packedLocalsFor(name, device, *tables_, provenance, locals_[rid]);
  }

  sizeState(cur_);
  sizeState(nxt_);
  sizeState(prev_);

  // Round 0: local routes only.
  board_.beginRound();
  for (const int rid : config_rids_) {
    for (const PackedLocal& local : locals_[rid]) board_.stageLocal(rid, local);
  }
  selectRoundInto(cur_);

  hash_history_.clear();
  hash_history_.emplace_back(hashOf(cur_), 0);
}

void FullEngine::selectRoundInto(State& dst) {
  for (const int rid : config_rids_) {
    auto& page = dst.pages[static_cast<std::size_t>(rid)];
    auto& ecmp = dst.ecmp[static_cast<std::size_t>(rid)];
    page.assign(universe_, RouteEntry{});
    ecmp.clear();
    for (const PrefixId pid : board_.touched(rid)) {
      RouteEntry selected;
      if (!board_.select(rid, pid, better_, options_.enable_ecmp, selected,
                         ecmp_scratch_)) {
        continue;
      }
      page[pid] = selected;
      if (!ecmp_scratch_.empty()) ecmp[pid] = ecmp_scratch_;
    }
  }
}

void FullEngine::computeRoundInto(const State& src, State& dst, bool record) {
  board_.beginRound();
  for (const int rid : config_rids_) {
    for (const PackedLocal& local : locals_[rid]) board_.stageLocal(rid, local);
  }
  // `record` is false only while re-walking an already-simulated cycle
  // window, where the announcement count and provenance must not grow.
  prov::ProvenanceGraph* provenance =
      record && options_.record_provenance ? &result_.provenance : nullptr;
  std::uint64_t* announcements = record ? &result_.announcements : nullptr;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const Flow& flow = *flows_[i];
    const auto& from_page = src.pages[static_cast<std::size_t>(flow.from_id)];
    const std::uint16_t slot = plan_.flow_slot[i];
    for (std::size_t pid = 0; pid < from_page.size(); ++pid) {
      const RouteEntry& entry = from_page[pid];
      if (entry.present == 0) continue;
      RouteEntry imported;
      if (announceEntryOnFlow(flow, static_cast<PrefixId>(pid), entry,
                              *tables_, provenance, announcements, imported)) {
        board_.stage(flow.to_id, slot, static_cast<PrefixId>(pid), imported);
      }
    }
  }
  selectRoundInto(dst);
}

std::uint64_t FullEngine::hashOf(const State& state) const {
  std::uint64_t hash = 0;
  for (const int rid : config_rids_) {
    const auto& page = state.pages[static_cast<std::size_t>(rid)];
    for (std::size_t pid = 0; pid < page.size(); ++pid) {
      if (page[pid].present == 0) continue;
      hash ^= entryStateHash(rid, static_cast<PrefixId>(pid), page[pid]);
    }
  }
  return hash;
}

bool FullEngine::statesEqual(const State& a, const State& b) const {
  for (const int rid : config_rids_) {
    const auto& pa = a.pages[static_cast<std::size_t>(rid)];
    const auto& pb = b.pages[static_cast<std::size_t>(rid)];
    for (std::size_t pid = 0; pid < pa.size(); ++pid) {
      if (!sameEntryState(pa[pid], pb[pid])) return false;
    }
  }
  return true;
}

void FullEngine::diffStatesBoth(const State& a, const State& b) {
  for (const int rid : config_rids_) {
    const auto& pa = a.pages[static_cast<std::size_t>(rid)];
    const auto& pb = b.pages[static_cast<std::size_t>(rid)];
    for (std::size_t pid = 0; pid < pa.size(); ++pid) {
      const bool in_a = pa[pid].present != 0;
      const bool in_b = pb[pid].present != 0;
      if (in_a ? (!in_b || !sameEntryState(pa[pid], pb[pid])) : in_b) {
        result_.flapping.insert(
            tables_->prefixes.prefixOf(static_cast<PrefixId>(pid)));
      }
    }
  }
}

void FullEngine::adoptRib(State&& state) {
  Rib rib(tables_, config_rids_);
  for (const int rid : config_rids_) {
    RibPage page;
    page.entries = std::move(state.pages[static_cast<std::size_t>(rid)]);
    for (const RouteEntry& entry : page.entries) {
      if (entry.present != 0) ++page.live;
    }
    page.ecmp = std::move(state.ecmp[static_cast<std::size_t>(rid)]);
    rib.installPage(rid, std::move(page));
  }
  result_.rib = std::move(rib);

  util::MetricsRegistry& metrics = util::MetricsRegistry::global();
  metrics.counter("sim.layout.interned_prefixes").add(tables_->prefixes.size());
  metrics.counter("sim.layout.interned_paths").add(tables_->paths.size());
  metrics.counter("sim.layout.interned_bytes")
      .add(tables_->prefixes.bytes() + tables_->paths.bytes());
  metrics.counter("sim.layout.rib_page_bytes").add(result_.rib.pageBytes());
}

void FullEngine::canonicalizeProvenance(State& state) {
  prov::ProvenanceGraph canonical;
  ProvenanceRebuilder rebuilder(
      network_, *tables_, flows_, canonical,
      [&state](int rid, PrefixId pid) -> const RouteEntry* {
        const auto& page = state.pages[static_cast<std::size_t>(rid)];
        if (static_cast<std::size_t>(pid) >= page.size()) return nullptr;
        const RouteEntry& entry = page[pid];
        return entry.present != 0 ? &entry : nullptr;
      },
      [](int, PrefixId) { return true; });
  for (const int rid : config_rids_) {
    const auto& page = state.pages[static_cast<std::size_t>(rid)];
    for (std::size_t pid = 0; pid < page.size(); ++pid) {
      if (page[pid].present == 0) continue;
      prov::DerivationId id = prov::kNoDerivation;
      if (!rebuilder.canonicalize(rid, static_cast<PrefixId>(pid), id)) {
        // Reproduction failed (a policy masked the input difference away,
        // or configs and fixpoint disagree): keep the per-round graph —
        // correct, just bigger and not delta-shareable.
        util::MetricsRegistry::global()
            .counter("sim.provenance.canonical_bail")
            .add(1);
        return;
      }
    }
  }
  // Patch ids only after every cell succeeded, so a bail leaves the state
  // pointing wholly into the per-round graph.
  for (const int rid : config_rids_) {
    auto& page = state.pages[static_cast<std::size_t>(rid)];
    for (std::size_t pid = 0; pid < page.size(); ++pid) {
      if (page[pid].present == 0) continue;
      page[pid].derivation = rebuilder.idOf(rid, static_cast<PrefixId>(pid));
    }
  }
  util::MetricsRegistry::global()
      .counter("sim.provenance.canonical_nodes")
      .add(canonical.size());
  // Born frozen: anchors fork in O(1) without caller cooperation.
  canonical.freeze();
  result_.provenance = std::move(canonical);
}

FullEngine::StepOutcome FullEngine::step() {
  computeRoundInto(cur_, nxt_, /*record=*/true);
  if (statesEqual(cur_, nxt_)) return StepOutcome::kConverged;
  last_hash_ = hashOf(nxt_);
  // History is hashes, not states (rounds are capped, so a linear scan
  // beats a node-allocating hash map).
  for (const auto& [hash, round] : hash_history_) {
    if (hash == last_hash_) {
      repeated_round_ = round;
      return StepOutcome::kOscillating;
    }
  }
  std::swap(prev_, cur_);
  std::swap(cur_, nxt_);
  return StepOutcome::kAdvanced;
}

SimResult FullEngine::run() {
  prime();

  for (int round = 1; round <= options_.max_rounds; ++round) {
    result_.rounds = round;
    const StepOutcome outcome = step();

    if (outcome == StepOutcome::kConverged) {
      result_.converged = true;
      if (options_.record_provenance) canonicalizeProvenance(nxt_);
      adoptRib(std::move(nxt_));
      return std::move(result_);
    }

    if (outcome == StepOutcome::kOscillating) {
      // Oscillation: this state was first reached at round
      // `repeated_round_`, so the orbit is periodic with this cycle length.
      // Re-walk the cycle once (recording off) to recover the window states
      // and flag every prefix whose best differs anywhere inside it.
      const int cycle_length = round - repeated_round_;
      util::MetricsRegistry::global().counter("sim.full.history_ribs").add(1);
      State representative = nxt_;
      State walker = nxt_;  // the one retained history copy
      State scratch;
      sizeState(scratch);
      for (int step_i = 0; step_i + 1 < cycle_length; ++step_i) {
        computeRoundInto(walker, scratch, /*record=*/false);
        diffStatesBoth(representative, scratch);
        std::swap(walker, scratch);
      }
      result_.converged = false;
      adoptRib(std::move(representative));
      return std::move(result_);
    }

    hash_history_.emplace_back(last_hash_, round);
  }

  // Round cap hit without a detected cycle: report the prefixes still in
  // motion between the last two rounds as flapping.
  result_.converged = false;
  for (const int rid : config_rids_) {
    const auto& cur_page = cur_.pages[static_cast<std::size_t>(rid)];
    const auto& prev_page = prev_.pages[static_cast<std::size_t>(rid)];
    for (std::size_t pid = 0; pid < cur_page.size(); ++pid) {
      if (cur_page[pid].present == 0) continue;
      if (prev_page[pid].present == 0 ||
          !sameEntryState(cur_page[pid], prev_page[pid])) {
        result_.flapping.insert(
            tables_->prefixes.prefixOf(static_cast<PrefixId>(pid)));
      }
    }
  }
  adoptRib(std::move(cur_));
  return std::move(result_);
}

}  // namespace acr::route::detail
