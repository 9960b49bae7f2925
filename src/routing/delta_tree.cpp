#include "routing/delta_tree.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <tuple>
#include <utility>

#include "obs/trace.hpp"
#include "routing/sim_engine.hpp"
#include "routing/sim_internal.hpp"
#include "util/metrics.hpp"

namespace acr::route {

struct DeltaTree::Impl {
  const topo::Network& anchor_network;
  const SimResult& anchor;
  SimOptions options;
  std::string disabled_reason;

  /// Clone of the anchor's interned tables: same ids for everything the
  /// anchor rib references, append-only growth for prefixes/paths the
  /// candidates introduce. Pinning the ids is what lets forks share the
  /// anchor's pages verbatim.
  SimTablesPtr tables;
  /// Anchor-resolved session flows, in buildFlows order. Never reallocated
  /// after construction — `effective` holds pointers into it.
  std::vector<detail::Flow> flows;
  /// The flow actually used per slot: anchor flows, overridden per slot by
  /// base- or leaf-resolved patches. Slot layout is fixed because the
  /// session table is identical across the whole tree (precondition).
  std::vector<const detail::Flow*> effective;
  /// First flow slot of session i (-1 for a down session; an up session
  /// owns exactly two consecutive slots, a->b then b->a).
  std::vector<std::ptrdiff_t> session_flow_start;
  /// Per-router flow/candidate-slot plan over `effective`'s slot indices —
  /// stable across flow patches (endpoints never change).
  detail::EnginePlan plan;
  detail::CandidateBoard board;
  detail::EntryBetter better;
  /// Base-resolved flow patches (deque: stable addresses under growth).
  std::deque<detail::Flow> node_patch_storage;
  /// Devices on which the base differs from the anchor — a leaf's dirty
  /// devices vs. the anchor are these plus its own changed_vs_base.
  std::vector<std::string> base_changed_devices;
  /// The current leaf's flow patches and the slot values they replaced.
  std::deque<detail::Flow> leaf_patch_storage;
  std::vector<std::pair<std::size_t, const detail::Flow*>> leaf_saved_slots;

  /// The one working state: the anchor fixpoint forked copy-on-write,
  /// masked per options (derivation ids only with provenance).
  SimResult view;
  std::uint64_t hash = 0;       // incremental state hash of view.rib
  std::uint64_t node_hash = 0;  // checkpoint at the base fixpoint
  bool base_set = false;

  /// Undo state of one tree level. Rolling back restores the saved page
  /// pointers — the pre-images survive inside the anchor/base pages because
  /// holding them here keeps every touched page shared, which forces the
  /// next write through clone-on-first-write instead of mutating in place.
  struct Level {
    std::vector<std::pair<int, RibPagePtr>> saved_pages;  // first-touch order
    std::vector<std::uint8_t> page_saved;                 // by rid
    /// First-touch (router, prefix) cells, deduplicated by `touch_grid` —
    /// the keys of the old per-entry undo maps, without the pre-image
    /// values (the saved pages carry those wholesale).
    std::vector<std::pair<int, PrefixId>> touched;
    std::vector<std::vector<std::uint8_t>> touch_grid;  // by rid, by pid
  };
  Level node_level;
  Level leaf_level;

  Impl(const topo::Network& anchor_network_in, const SimResult& anchor_in,
       const SimOptions& options_in)
      : anchor_network(anchor_network_in),
        anchor(anchor_in),
        options(options_in) {}

  [[nodiscard]] std::size_t routerCount() const {
    return tables->routers.names.size();
  }

  void initLevel(Level& level) {
    level.page_saved.assign(routerCount(), 0);
    level.touch_grid.resize(routerCount());
  }

  void recordTouch(Level& level, int rid, PrefixId pid) {
    const auto idx = static_cast<std::size_t>(rid);
    if (level.page_saved[idx] == 0) {
      level.page_saved[idx] = 1;
      level.saved_pages.emplace_back(rid, view.rib.pageRef(rid));
    }
    auto& grid = level.touch_grid[idx];
    if (grid.size() < tables->prefixes.size()) {
      grid.resize(tables->prefixes.size(), 0);
    }
    if (grid[pid] == 0) {
      grid[pid] = 1;
      level.touched.emplace_back(rid, pid);
    }
  }

  /// Routers whose pages a level touched — the set whose cached FIB pages
  /// must be re-derived after the level was applied or undone.
  [[nodiscard]] std::set<std::string> touchedRouters(const Level& level) const {
    std::set<std::string> routers;
    for (const auto& [rid, saved] : level.saved_pages) {
      routers.insert(tables->routers.nameOf(rid));
    }
    return routers;
  }

  /// Restores every page the level touched to its saved pre-image pointer
  /// and resets the incremental hash to `checkpoint`.
  void rollback(Level& level, std::uint64_t checkpoint) {
    std::set<std::string> routers = touchedRouters(level);
    for (auto& [rid, saved] : level.saved_pages) {
      view.rib.restorePage(rid, std::move(saved));
      level.page_saved[static_cast<std::size_t>(rid)] = 0;
    }
    for (const auto& [rid, pid] : level.touched) {
      level.touch_grid[static_cast<std::size_t>(rid)][pid] = 0;
    }
    level.saved_pages.clear();
    level.touched.clear();
    view.dropLookupPages(routers);
    hash = checkpoint;
  }

  /// Leaf/base-level precondition checks against the anchor. On success,
  /// `up_touched` holds the indices of the up sessions whose flows must be
  /// re-resolved against `network`.
  [[nodiscard]] std::string checkAgainstAnchor(
      const topo::Network& network, const std::set<std::string>& changed,
      std::vector<std::size_t>& up_touched) const {
    if (!detail::sameTopologyShape(anchor_network.topology,
                                   network.topology)) {
      return "topology-shape-changed";
    }
    if (!detail::sameDeviceSet(anchor_network, network)) {
      return "device-set-changed";
    }
    // Sessions depend only on their endpoint configs (given an identical
    // topology), so only links touching a changed device can disagree.
    const auto& links = anchor_network.topology.links();
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (changed.count(links[i].a) == 0 && changed.count(links[i].b) == 0) {
        continue;
      }
      const Session fresh = detail::sessionForLink(network, links[i]);
      if (!detail::sameSession(fresh, anchor.sessions[i])) {
        return "session-state-changed";
      }
      if (anchor.sessions[i].up) up_touched.push_back(i);
    }
    return {};
  }

  /// Re-resolves the flows of `up_touched` sessions against `network` into
  /// `storage`, overriding their `effective` slots. When `saved` is
  /// non-null the previous slot values are recorded for restoration.
  void patchFlows(
      const topo::Network& network, const std::vector<std::size_t>& up_touched,
      std::deque<detail::Flow>& storage,
      std::vector<std::pair<std::size_t, const detail::Flow*>>* saved) {
    std::vector<detail::Flow> fresh;
    for (const std::size_t i : up_touched) {
      const auto start = static_cast<std::size_t>(session_flow_start[i]);
      fresh.clear();
      detail::appendFlowsForSession(network, anchor.sessions[i],
                                    tables->routers, fresh);
      for (std::size_t k = 0; k < fresh.size(); ++k) {
        if (saved != nullptr) {
          saved->emplace_back(start + k, effective[start + k]);
        }
        storage.push_back(std::move(fresh[k]));
        effective[start + k] = &storage.back();
      }
    }
  }

  /// One propagation segment from the current fixpoint: recomputes
  /// `changed` devices (and their session neighbors) wholesale, then
  /// propagates dirty (router, prefix) work items in Jacobi rounds
  /// (collect, then commit) to a new fixpoint, committing into the shared
  /// working state with first-touch page/cell recording. Fills the rounds,
  /// work-item and dirty-prefix counts of `stats`. Returns the fallback
  /// reason on failure (the caller rolls back), empty on success.
  [[nodiscard]] std::string propagate(const topo::Network& network,
                                      const std::vector<std::string>& changed,
                                      Level& level, TreeLeafStats& stats) {
    Rib& bests = view.rib;
    const std::size_t router_count = routerCount();

    std::vector<std::vector<detail::PackedLocal>> locals(router_count);
    std::vector<std::uint8_t> locals_ready(router_count, 0);
    const auto localsOf =
        [&](int rid) -> const std::vector<detail::PackedLocal>& {
      const auto idx = static_cast<std::size_t>(rid);
      if (locals_ready[idx] == 0) {
        locals_ready[idx] = 1;
        const std::string& name = tables->routers.nameOf(rid);
        const cfg::DeviceConfig* device = network.config(name);
        if (device != nullptr) {
          detail::packedLocalsFor(name, *device, *tables, nullptr,
                                  locals[idx]);
        }
      }
      return locals[idx];
    };

    // Seed: changed devices and their session neighbors recompute
    // wholesale — their locals, redistribution and policy bindings may have
    // changed in ways the current routing state cannot witness. Everything
    // else enters the dirty set only when a neighbor's best route changes.
    std::set<int> seeds;
    for (const std::string& device : changed) {
      const int rid = tables->routers.idOf(device);
      if (rid == 0) continue;
      seeds.insert(rid);
      for (const std::uint32_t flow_idx :
           plan.out_flows[static_cast<std::size_t>(rid)]) {
        seeds.insert(effective[flow_idx]->to_id);
      }
    }

    // Dirty (router, prefix) work lists for the next round, deduplicated by
    // an epoch stamp per cell.
    std::vector<std::vector<PrefixId>> dirty_pids(router_count);
    std::vector<std::vector<PrefixId>> next_pids(router_count);
    std::vector<int> dirty_rids;
    std::vector<int> next_rids;
    std::vector<std::uint8_t> next_listed(router_count, 0);
    std::vector<std::vector<std::uint32_t>> pid_stamp(router_count);
    std::uint32_t stamp = 0;
    const auto addDirty = [&](int rid, PrefixId pid) {
      auto& marks = pid_stamp[static_cast<std::size_t>(rid)];
      if (marks.size() < tables->prefixes.size()) {
        marks.resize(tables->prefixes.size(), 0);
      }
      if (marks[pid] == stamp) return;
      marks[pid] = stamp;
      if (next_listed[static_cast<std::size_t>(rid)] == 0) {
        next_listed[static_cast<std::size_t>(rid)] = 1;
        next_rids.push_back(rid);
        next_pids[static_cast<std::size_t>(rid)].clear();
      }
      next_pids[static_cast<std::size_t>(rid)].push_back(pid);
    };

    // Distinct-prefix stat, tracked by a grow-on-demand bitmap.
    std::vector<std::uint8_t> prefix_seen;
    const auto recomputed = [&](PrefixId pid) {
      ++stats.work_items;
      if (prefix_seen.size() < tables->prefixes.size()) {
        prefix_seen.resize(tables->prefixes.size(), 0);
      }
      if (prefix_seen[pid] == 0) {
        prefix_seen[pid] = 1;
        ++stats.dirty_prefixes;
      }
    };

    // A recompute that reproduces the stored entry's key state is a pure
    // no-op: committing it would only clone a shared page and grow the undo
    // log to restore an identical value. Only state changes become updates,
    // which keeps leaf undo logs at the size of the *actual* diff —
    // wholesale-seeded neighbors that settle on the routes they already had
    // cost nothing to roll back.
    struct Update {
      int rid = 0;
      PrefixId pid = 0;
      RouteEntry entry;
      bool present = false;
    };
    std::vector<Update> updates;

    const auto recomputePrefix = [&](int rid, PrefixId pid) {
      recomputed(pid);
      const auto& local_list = localsOf(rid);
      board.growUniverse(tables->prefixes.size());
      for (const detail::PackedLocal& local : local_list) {
        if (local.pid == pid) board.stageLocal(rid, local);
      }
      for (const std::uint32_t flow_idx :
           plan.in_flows[static_cast<std::size_t>(rid)]) {
        const detail::Flow& flow = *effective[flow_idx];
        const RouteEntry* entry = bests.entryAt(flow.from_id, pid);
        if (entry == nullptr) continue;
        RouteEntry imported;
        if (detail::announceEntryOnFlow(flow, pid, *entry, *tables, nullptr,
                                        nullptr, imported)) {
          board.stage(rid, plan.flow_slot[flow_idx], pid, imported);
        }
      }
      RouteEntry selected;
      const bool present = board.select(rid, pid, better, selected);
      const RouteEntry* old_entry = bests.entryAt(rid, pid);
      if (!present && old_entry == nullptr) return;
      if (present && old_entry != nullptr &&
          sameEntryState(*old_entry, selected)) {
        return;
      }
      updates.push_back(Update{rid, pid, selected, present});
    };

    const auto recomputeRouter = [&](int rid) {
      const auto& local_list = localsOf(rid);
      board.growUniverse(tables->prefixes.size());
      for (const detail::PackedLocal& local : local_list) {
        board.stageLocal(rid, local);
      }
      for (const std::uint32_t flow_idx :
           plan.in_flows[static_cast<std::size_t>(rid)]) {
        const detail::Flow& flow = *effective[flow_idx];
        const RibPage* neighbor = bests.page(flow.from_id);
        if (neighbor == nullptr) continue;
        const std::uint16_t slot = plan.flow_slot[flow_idx];
        for (PrefixId pid = 0; pid < neighbor->entries.size(); ++pid) {
          const RouteEntry& entry = neighbor->entries[pid];
          if (entry.present == 0) continue;
          RouteEntry imported;
          if (detail::announceEntryOnFlow(flow, pid, entry, *tables, nullptr,
                                          nullptr, imported)) {
            board.stage(rid, slot, pid, imported);
          }
        }
      }
      for (const PrefixId pid : board.touched(rid)) {
        recomputed(pid);
        RouteEntry selected;
        const bool present = board.select(rid, pid, better, selected);
        const RouteEntry* old_entry = bests.entryAt(rid, pid);
        if (present && old_entry != nullptr &&
            sameEntryState(*old_entry, selected)) {
          continue;
        }
        updates.push_back(Update{rid, pid, selected, present});
      }
      const RibPage* own = bests.page(rid);
      if (own == nullptr) return;
      for (PrefixId pid = 0; pid < own->entries.size(); ++pid) {
        if (own->entries[pid].present == 0) continue;
        if (board.touchedThisRound(rid, pid)) continue;
        recomputed(pid);
        updates.push_back(Update{rid, pid, RouteEntry{}, false});
      }
    };

    std::vector<std::pair<std::uint64_t, int>> hash_history{{hash, 0}};
    int round = 0;
    bool converged = false;

    while (round < options.max_rounds) {
      ++round;
      updates.clear();
      board.beginRound();
      if (round == 1) {
        for (const int rid : seeds) recomputeRouter(rid);
      } else {
        for (const int rid : dirty_rids) {
          for (const PrefixId pid :
               dirty_pids[static_cast<std::size_t>(rid)]) {
            recomputePrefix(rid, pid);
          }
        }
      }

      ++stamp;
      for (const Update& update : updates) {
        // First touch at this tree level: save the page pointer before the
        // write, so the level can be rolled back exactly.
        recordTouch(level, update.rid, update.pid);
        const RouteEntry* old_entry = bests.entryAt(update.rid, update.pid);
        if (old_entry != nullptr) {
          hash ^= entryStateHash(update.rid, update.pid, *old_entry);
        }
        if (update.present) {
          hash ^= entryStateHash(update.rid, update.pid, update.entry);
          bests.set(update.rid, update.pid, update.entry);
        } else {
          bests.erase(update.rid, update.pid);
        }
        for (const std::uint32_t flow_idx :
             plan.out_flows[static_cast<std::size_t>(update.rid)]) {
          addDirty(effective[flow_idx]->to_id, update.pid);
        }
      }

      std::swap(dirty_rids, next_rids);
      dirty_pids.swap(next_pids);
      for (const int rid : dirty_rids) {
        next_listed[static_cast<std::size_t>(rid)] = 0;
      }
      next_rids.clear();

      if (updates.empty()) {
        converged = true;
        break;
      }
      // A repeated non-fixpoint state means the network oscillates. The
      // full engine's representative rib and flapping window depend on its
      // orbit from round 0, which a fixpoint-seeded orbit cannot replay.
      bool repeated = false;
      for (const auto& [seen_hash, seen_round] : hash_history) {
        if (seen_hash == hash) {
          repeated = true;
          break;
        }
      }
      if (repeated) return "oscillation-detected";
      hash_history.emplace_back(hash, round);
    }
    if (!converged) return "delta-round-cap";
    stats.rounds = round;
    return {};
  }

  /// Per-leaf canonical provenance: forks the anchor's frozen graph,
  /// rebuilds derivations along chain-dirty cells only — cells whose own
  /// state changed, whose device was edited, or whose derivation chain
  /// crosses such a cell — and patches them through the leaf undo log so
  /// they roll back with the leaf. On success `view.provenance` carries the
  /// leaf's forked graph; returns the fallback reason on failure, empty on
  /// success.
  [[nodiscard]] std::string canonicalizeLeafProvenance(
      const topo::Network& network,
      const std::vector<std::string>& changed_vs_base,
      const std::vector<std::tuple<int, net::Prefix, PrefixId>>& changed_cells,
      TreeLeafStats& stats) {
    const std::size_t router_count = routerCount();
    std::vector<std::uint8_t> device_changed(router_count, 0);
    const auto markDevice = [&](const std::string& device) {
      const int rid = tables->routers.idOf(device);
      if (rid != 0) device_changed[static_cast<std::size_t>(rid)] = 1;
    };
    for (const std::string& device : base_changed_devices) markDevice(device);
    for (const std::string& device : changed_vs_base) markDevice(device);

    std::vector<std::vector<std::uint8_t>> state_changed(router_count);
    std::set<PrefixId> affected_pids;
    for (const auto& [rid, prefix, pid] : changed_cells) {
      auto& row = state_changed[static_cast<std::size_t>(rid)];
      if (row.size() < tables->prefixes.size()) {
        row.resize(tables->prefixes.size(), 0);
      }
      row[pid] = 1;
      affected_pids.insert(pid);
    }
    // Chain dirtiness only originates from a base-dirty cell of the same
    // prefix: the affected universe is the changed cells' prefixes plus
    // every prefix present on an edited device.
    for (std::size_t rid = 0; rid < router_count; ++rid) {
      if (device_changed[rid] == 0) continue;
      const RibPage* page = view.rib.page(static_cast<int>(rid));
      if (page == nullptr) continue;
      for (PrefixId pid = 0; pid < page->entries.size(); ++pid) {
        if (page->entries[pid].present != 0) affected_pids.insert(pid);
      }
    }

    prov::ProvenanceGraph graph = anchor.provenance.fork();
    detail::ProvenanceRebuilder rebuilder(
        network, *tables, effective, graph,
        [this](int rid, PrefixId pid) { return view.rib.entryAt(rid, pid); },
        [&](int rid, PrefixId pid) {
          if (device_changed[static_cast<std::size_t>(rid)] != 0) return true;
          const auto& row = state_changed[static_cast<std::size_t>(rid)];
          return static_cast<std::size_t>(pid) < row.size() && row[pid] != 0;
        });
    for (const PrefixId pid : affected_pids) {
      for (std::size_t rid = 0; rid < router_count; ++rid) {
        if (view.rib.entryAt(static_cast<int>(rid), pid) == nullptr) continue;
        prov::DerivationId id = prov::kNoDerivation;
        if (!rebuilder.canonicalize(static_cast<int>(rid), pid, id)) {
          // The fixpoint could not be reproduced from the configs (e.g. a
          // policy masked the edit away) — identity over cleverness.
          return "provenance-divergence";
        }
      }
    }
    // Patch fresh ids only after every cell succeeded, each one through
    // the leaf undo log so it rolls back with the leaf.
    for (const PrefixId pid : affected_pids) {
      for (std::size_t rid = 0; rid < router_count; ++rid) {
        const RouteEntry* entry = view.rib.entryAt(static_cast<int>(rid), pid);
        if (entry == nullptr) continue;
        const prov::DerivationId id =
            rebuilder.idOf(static_cast<int>(rid), pid);
        if (id == entry->derivation) continue;
        recordTouch(leaf_level, static_cast<int>(rid), pid);
        RouteEntry patched = *entry;
        patched.derivation = id;
        view.rib.set(static_cast<int>(rid), pid, patched);
      }
    }
    stats.fresh_derivations = rebuilder.freshCount();
    std::size_t total_routes = 0;
    for (std::size_t rid = 0; rid < router_count; ++rid) {
      const RibPage* page = view.rib.page(static_cast<int>(rid));
      if (page != nullptr) total_routes += page->live;
    }
    stats.reused_derivations =
        total_routes - std::min(total_routes, stats.fresh_derivations);
    view.provenance = std::move(graph);
    return {};
  }

  /// Applies one leaf on top of the base node: leaf-level precondition
  /// checks, flow patches, propagation, the exact anchor diff and (with
  /// provenance) the canonical derivations. On success the working state
  /// holds the leaf's fixpoint and `stats` describes it; on failure the
  /// state is back at the base node and the fallback reason is returned.
  [[nodiscard]] std::string enterLeaf(
      const topo::Network& network,
      const std::vector<std::string>& changed_vs_base, TreeLeafStats& stats) {
    if (!disabled_reason.empty()) return disabled_reason;

    const std::set<std::string> changed(changed_vs_base.begin(),
                                        changed_vs_base.end());
    std::vector<std::size_t> up_touched;
    std::string reason = checkAgainstAnchor(network, changed, up_touched);
    if (!reason.empty()) return reason;

    patchFlows(network, up_touched, leaf_patch_storage, &leaf_saved_slots);
    reason = propagate(network, changed_vs_base, leaf_level, stats);
    if (!reason.empty()) {
      leaveLeaf();
      return reason;
    }
    stats.used_delta = true;
    stats.undo_entries = leaf_level.touched.size();

    // Exact leaf-vs-anchor RIB diff from the touch lists: every cell either
    // tree level wrote, compared against the pristine anchor pages (saved
    // page pointers keep them intact). No RIB sweep is needed.
    std::vector<std::pair<int, PrefixId>> keys = node_level.touched;
    for (const auto& [rid, pid] : leaf_level.touched) {
      const auto& node_grid =
          node_level.touch_grid[static_cast<std::size_t>(rid)];
      if (pid < node_grid.size() && node_grid[pid] != 0) continue;
      keys.emplace_back(rid, pid);
    }
    std::vector<std::tuple<int, net::Prefix, PrefixId>> changed_cells;
    for (const auto& [rid, pid] : keys) {
      const RouteEntry* anchor_entry = anchor.rib.entryAt(rid, pid);
      const RouteEntry* current = view.rib.entryAt(rid, pid);
      const bool same = current == nullptr
                            ? anchor_entry == nullptr
                            : anchor_entry != nullptr &&
                                  sameEntryState(*anchor_entry, *current);
      if (!same) {
        changed_cells.emplace_back(rid, tables->prefixes.prefixOf(pid), pid);
      }
    }
    std::sort(changed_cells.begin(), changed_cells.end(),
              [](const auto& a, const auto& b) {
                return std::get<0>(a) != std::get<0>(b)
                           ? std::get<0>(a) < std::get<0>(b)
                           : std::get<1>(a) < std::get<1>(b);
              });
    stats.changed_vs_anchor.reserve(changed_cells.size());
    for (const auto& [rid, prefix, pid] : changed_cells) {
      stats.changed_vs_anchor.emplace_back(tables->routers.nameOf(rid),
                                           prefix);
    }

    if (options.record_provenance) {
      reason = canonicalizeLeafProvenance(network, changed_vs_base,
                                          changed_cells, stats);
      if (!reason.empty()) {
        leaveLeaf();
        return reason;
      }
    }

    view.dropLookupPages(touchedRouters(leaf_level));
    view.rounds = stats.rounds;
    // COW page reuse: only first-touched pages were cloned for this leaf.
    util::MetricsRegistry& metrics = util::MetricsRegistry::global();
    const std::size_t cloned = leaf_level.saved_pages.size();
    metrics.counter("sim.layout.pages_cloned").add(cloned);
    metrics.counter("sim.layout.pages_reused").add(view.rib.size() - cloned);
    return {};
  }

  /// Rolls the working state back from the current leaf to the base node.
  void leaveLeaf() {
    view.provenance.clear();  // the leaf's fork dies with the leaf
    rollback(leaf_level, node_hash);
    for (const auto& [slot, flow] : leaf_saved_slots) effective[slot] = flow;
    leaf_saved_slots.clear();
    leaf_patch_storage.clear();
  }

  /// Labels a leaf that fell back to the full engine: span attribute,
  /// per-rule `<family>.fallback.<reason>` counter, and fresh stats.
  static void fallBack(obs::Span& span, const std::string& family,
                       std::string reason, TreeLeafStats& stats) {
    span.attr("fallback", reason);
    util::MetricsRegistry::global()
        .counter(family + ".fallback." + reason)
        .add(1);
    stats = TreeLeafStats{};
    stats.fallback_reason = std::move(reason);
  }
};

DeltaTree::DeltaTree(const topo::Network& anchor_network,
                     const SimResult& anchor, const SimOptions& options)
    : impl_(std::make_unique<Impl>(anchor_network, anchor, options)) {
  util::MetricsRegistry& metrics = util::MetricsRegistry::global();
  metrics.counter("sim.tree.batches").add(1);
  const auto disable = [&](std::string reason) {
    impl_->disabled_reason = std::move(reason);
  };

  // Anchor-level preconditions, checked once per tree. A converged anchor
  // carries a canonical fixpoint provenance graph (sim_engine.hpp) that
  // provenance-recording leaves fork copy-on-write; an anchor recorded
  // without provenance — or one whose rib masks its derivation ids — has
  // nothing to fork.
  if (options.record_provenance &&
      (anchor.provenance.empty() || !anchor.rib.showsDerivations())) {
    disable("provenance-anchor-missing");
    return;
  }
  // The anchor state is only a valid starting point if it is a fixpoint.
  // Converged results always come from an engine, so they carry interned
  // pages to fork.
  if (!anchor.converged) {
    disable("baseline-not-converged");
    return;
  }
  // Working state: the anchor fixpoint forked copy-on-write onto cloned
  // tables — O(routers) page-pointer copies, pages cloned lazily at first
  // write. The cloned tables pin the anchor's ids (append-only growth for
  // any new prefixes an edit introduces), so anchor pages are valid
  // verbatim. With provenance on, derivation ids stay visible: they index
  // the anchor graph a leaf forks, so untouched entries reuse anchor
  // derivations byte-for-byte.
  impl_->tables = std::make_shared<SimTables>(*anchor.rib.tables());
  impl_->view.rib = anchor.rib;
  impl_->view.rib.setTables(impl_->tables);
  impl_->view.rib.scrubFor(options.record_provenance);
  impl_->view.converged = true;
  impl_->view.sessions = anchor.sessions;
  impl_->hash = impl_->view.rib.stateHash();
  impl_->node_hash = impl_->hash;

  // Anchor flows, with the per-session slot layout every fork patches into.
  for (const Session& session : anchor.sessions) {
    impl_->session_flow_start.push_back(
        session.up ? static_cast<std::ptrdiff_t>(impl_->flows.size()) : -1);
    detail::appendFlowsForSession(anchor_network, session,
                                  impl_->tables->routers, impl_->flows);
  }
  impl_->effective.reserve(impl_->flows.size());
  for (std::size_t i = 0; i < impl_->flows.size(); ++i) {
    impl_->effective.push_back(&impl_->flows[i]);
  }
  impl_->plan.build(impl_->routerCount(), impl_->effective);
  impl_->board.configure(impl_->plan, impl_->tables->prefixes.size());
  impl_->better = detail::EntryBetter{&impl_->tables->routers};
  impl_->initLevel(impl_->node_level);
  impl_->initLevel(impl_->leaf_level);
}

DeltaTree::~DeltaTree() = default;

bool DeltaTree::usable() const { return impl_->disabled_reason.empty(); }

const std::string& DeltaTree::disabledReason() const {
  return impl_->disabled_reason;
}

void DeltaTree::setBase(const topo::Network& base,
                        const std::vector<std::string>& changed_vs_anchor) {
  if (!usable()) return;
  if (impl_->base_set) {
    impl_->disabled_reason = "base-already-set";
    return;
  }
  impl_->base_set = true;
  impl_->base_changed_devices = changed_vs_anchor;
  if (changed_vs_anchor.empty()) return;  // base == anchor

  obs::Span span("sim.tree.node");
  util::MetricsRegistry& metrics = util::MetricsRegistry::global();
  const std::set<std::string> changed(changed_vs_anchor.begin(),
                                      changed_vs_anchor.end());
  std::vector<std::size_t> up_touched;
  std::string reason = impl_->checkAgainstAnchor(base, changed, up_touched);
  if (reason.empty()) {
    impl_->patchFlows(base, up_touched, impl_->node_patch_storage, nullptr);
    TreeLeafStats node_stats;
    reason = impl_->propagate(base, changed_vs_anchor, impl_->node_level,
                              node_stats);
    metrics.counter("sim.tree.node_work_items").add(node_stats.work_items);
    if (reason.empty()) {
      impl_->view.dropLookupPages(impl_->touchedRouters(impl_->node_level));
      impl_->node_hash = impl_->hash;
      span.attr("rounds", std::to_string(node_stats.rounds));
      return;
    }
    impl_->rollback(impl_->node_level, impl_->node_hash);
  }
  // A base-level violation poisons every leaf: unwind to the anchor and
  // disable — leaves fall back to full runs with this reason.
  impl_->node_patch_storage.clear();
  for (std::size_t i = 0; i < impl_->flows.size(); ++i) {
    impl_->effective[i] = &impl_->flows[i];
  }
  span.attr("fallback", reason);
  impl_->disabled_reason = std::move(reason);
}

void DeltaTree::leaf(const topo::Network& network,
                     const std::vector<std::string>& changed_vs_base,
                     const LeafVisitor& visit) {
  obs::Span span("sim.tree.leaf");
  util::MetricsRegistry& metrics = util::MetricsRegistry::global();
  metrics.counter("sim.tree.leaves").add(1);

  TreeLeafStats stats;
  std::string reason = impl_->enterLeaf(network, changed_vs_base, stats);
  if (!reason.empty()) {
    Impl::fallBack(span, "sim.tree", std::move(reason), stats);
    visit(Simulator(network).run(impl_->options), stats);
    return;
  }
  metrics.counter("sim.tree.delta_leaves").add(1);
  metrics.counter("sim.tree.leaf_work_items").add(stats.work_items);
  metrics.counter("sim.tree.rounds")
      .add(static_cast<std::uint64_t>(stats.rounds));
  metrics.counter("sim.tree.undo_entries").add(stats.undo_entries);
  if (impl_->options.record_provenance) {
    metrics.counter("sim.tree.derivations_fresh").add(stats.fresh_derivations);
    metrics.counter("sim.tree.derivations_reused")
        .add(stats.reused_derivations);
  }
  span.attr("rounds", std::to_string(stats.rounds));

  visit(impl_->view, stats);
  impl_->leaveLeaf();
}

SimResult DeltaTree::run(const topo::Network& network,
                         const std::vector<std::string>& changed_vs_base,
                         TreeLeafStats* stats_out) && {
  obs::Span span("sim.delta");
  util::MetricsRegistry& metrics = util::MetricsRegistry::global();
  metrics.counter("sim.delta.runs").add(1);

  TreeLeafStats stats;
  SimResult result;
  std::string reason = impl_->enterLeaf(network, changed_vs_base, stats);
  if (reason.empty()) {
    metrics.counter("sim.delta.dirty_prefixes").add(stats.dirty_prefixes);
    metrics.counter("sim.delta.work_items").add(stats.work_items);
    metrics.counter("sim.delta.rounds")
        .add(static_cast<std::uint64_t>(stats.rounds));
    if (impl_->options.record_provenance) {
      metrics.counter("sim.delta.derivations_fresh")
          .add(stats.fresh_derivations);
      metrics.counter("sim.delta.derivations_reused")
          .add(stats.reused_derivations);
      span.attr("derivations_fresh", std::to_string(stats.fresh_derivations));
    }
    result = std::move(impl_->view);
  } else {
    Impl::fallBack(span, "sim.delta", std::move(reason), stats);
    result = Simulator(network).run(impl_->options);
  }
  if (stats_out != nullptr) *stats_out = std::move(stats);
  return result;
}

}  // namespace acr::route
