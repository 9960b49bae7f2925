// Packed round machinery shared by the full (`Simulator`) and incremental
// (`DeltaTree`) control-plane engines.
//
// This is the data-layout twin of sim_internal.hpp: the same per-round
// transfer function — local-route origination, the announcement transform,
// best-route selection — expressed over interned ids and packed
// `RouteEntry` records instead of strings, `net::Prefix` map keys and
// heap-backed `Route`s. Both engine families must agree *byte for byte* on
// that transfer function, so it lives here exactly once.
//
//   * `packedLocalsFor` — connected + resolvable-static locals of one
//     device as (PrefixId, RouteEntry) pairs.
//   * `EnginePlan` — per-router in/out flow lists plus the candidate-slot
//     layout: every router's candidate row has one slot per local source
//     and one per distinct announcing neighbor, replacing the old
//     prefix -> origin-string candidate maps.
//   * `CandidateBoard` — epoch-stamped (router, prefix, slot) candidate
//     cells. beginRound() is O(routers): staleness is the epoch check, so
//     rounds never clear or allocate candidate storage.
//   * `EntryBetter` — the branch-light decision process over packed fields.
//   * `announceEntryOnFlow` — the announcement transform on RouteEntry,
//     with AS-path edits going through the memoized interner.
//   * `FullEngine` — the from-scratch synchronous-round run over three
//     ping-pong flat states, converted to RIB pages only at the end. The
//     prime()/step() split exists for the allocation-regression test
//     (tests/routing/layout_alloc_test.cc): a steady-state round performs
//     zero heap allocations once the tables and memos are warm.
//
// Not part of the public API: include only from acr_routing sources and
// white-box tests.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "routing/intern.hpp"
#include "routing/rib.hpp"
#include "routing/sim_internal.hpp"

namespace acr::route::detail {

/// One local (connected or static) route of a device, packed. The entry's
/// derivation is recorded once at engine start; locals are immutable across
/// rounds.
struct PackedLocal {
  PrefixId pid = 0;
  RouteEntry entry;
};

/// Locals of one device in the old `localRoutesFor` order (interfaces, then
/// resolvable statics), interning prefixes into `tables` and recording
/// derivations into `provenance` when non-null.
void packedLocalsFor(const std::string& name, const cfg::DeviceConfig& device,
                     SimTables& tables, prov::ProvenanceGraph* provenance,
                     std::vector<PackedLocal>& out);

/// Candidate-slot layout: slot 0 = connected local, slot 1 = static local,
/// slots 2+ = one per distinct announcing neighbor in first-flow-appearance
/// order. Flows from the same neighbor share a slot (last write wins — the
/// old candidate-map overwrite semantics).
inline constexpr std::uint16_t kConnectedSlot = 0;
inline constexpr std::uint16_t kStaticSlot = 1;
inline constexpr std::uint16_t kFirstNeighborSlot = 2;

/// Per-router flow and slot plan, built once per engine run (flow *slots*
/// depend only on the session table, which is fixed across a delta tree's
/// lifetime — patched flows keep their slots).
struct EnginePlan {
  std::vector<std::vector<std::uint32_t>> in_flows;   // by receiver rid
  std::vector<std::vector<std::uint32_t>> out_flows;  // by sender rid
  std::vector<std::uint16_t> flow_slot;               // by flow index
  std::vector<std::uint16_t> slots;                   // row width by rid

  void build(std::size_t router_count,
             const std::vector<const Flow*>& flows);
};

/// The decision process ("is `a` preferred over `b`"): admin distance,
/// highest local-pref, shortest AS_PATH, lowest MED, lowest advertising
/// router-id, neighbor name. Branch-light: the first four tiebreaks
/// collapse into two 64-bit comparison words (local-pref bit-flipped
/// because higher wins while everything else prefers lower), so the common
/// all-equal-up-front case costs two integer compares.
struct EntryBetter {
  const RouterTable* table = nullptr;

  [[nodiscard]] static std::uint64_t adminWord(const RouteEntry& e) {
    return (static_cast<std::uint64_t>(e.source) << 32) |
           static_cast<std::uint32_t>(~e.local_pref);
  }
  [[nodiscard]] static std::uint64_t pathWord(const RouteEntry& e) {
    return (static_cast<std::uint64_t>(e.as_path_len) << 32) | e.med;
  }

  bool operator()(const RouteEntry& a, const RouteEntry& b) const {
    const std::uint64_t admin_a = adminWord(a);
    const std::uint64_t admin_b = adminWord(b);
    if (admin_a != admin_b) return admin_a < admin_b;
    const std::uint64_t path_a = pathWord(a);
    const std::uint64_t path_b = pathWord(b);
    if (path_a != path_b) return path_a < path_b;
    const net::Ipv4Address id_a = table->routerIdOf(a.learned_from_id);
    const net::Ipv4Address id_b = table->routerIdOf(b.learned_from_id);
    if (id_a != id_b) return id_a < id_b;
    return table->nameOf(a.learned_from_id) < table->nameOf(b.learned_from_id);
  }
};

/// Epoch-stamped candidate cells of every router: row = `universe x slots`
/// RouteEntry cells per rid. A cell is live this round iff its epoch stamp
/// matches the board's; `touched(rid)` lists the prefixes that received at
/// least one candidate this round, in first-staging order.
class CandidateBoard {
 public:
  void configure(const EnginePlan& plan, std::size_t universe);
  /// Extends every row after the prefix universe grew (appended interns).
  void growUniverse(std::size_t universe);
  void beginRound();

  void stage(int rid, std::uint16_t slot, PrefixId pid,
             const RouteEntry& entry) {
    Row& row = rows_[static_cast<std::size_t>(rid)];
    const std::size_t cell =
        static_cast<std::size_t>(pid) * row.slots + slot;
    row.cells[cell] = entry;
    row.cell_epoch[cell] = epoch_;
    if (row.touched_epoch[pid] != epoch_) {
      row.touched_epoch[pid] = epoch_;
      row.touched.push_back(pid);
    }
  }
  void stageLocal(int rid, const PackedLocal& local) {
    stage(rid,
          local.entry.source == RouteSource::kConnected ? kConnectedSlot
                                                        : kStaticSlot,
          local.pid, local.entry);
  }

  [[nodiscard]] const std::vector<PrefixId>& touched(int rid) const {
    return rows_[static_cast<std::size_t>(rid)].touched;
  }
  [[nodiscard]] bool touchedThisRound(int rid, PrefixId pid) const {
    return rows_[static_cast<std::size_t>(rid)].touched_epoch[pid] == epoch_;
  }

  /// Best candidate of one cell (false when none are staged this round);
  /// `out.present` is set.
  bool select(int rid, PrefixId pid, const EntryBetter& better,
              RouteEntry& out) const;

 private:
  struct Row {
    std::uint16_t slots = kFirstNeighborSlot;
    std::vector<RouteEntry> cells;          // universe x slots
    std::vector<std::uint32_t> cell_epoch;  // parallel to cells
    std::vector<std::uint32_t> touched_epoch;  // by pid
    std::vector<PrefixId> touched;
  };

  std::vector<Row> rows_;
  std::size_t universe_ = 0;
  std::uint32_t epoch_ = 0;
};

/// The announcement transform of one (flow, exporter-best) pair on packed
/// entries: redistribution gates, export policy, AS-path prepend,
/// receiver-side loop prevention, import policy. Returns true and fills
/// `out` with the imported candidate, false when the announcement is
/// filtered anywhere along the way. `announcements` (when non-null) counts
/// attempts that pass the redistribution gate; `provenance` (when non-null)
/// records the derivation — line identity and order byte-match the old
/// `announceOnFlow`.
bool announceEntryOnFlow(const Flow& flow, PrefixId pid,
                         const RouteEntry& entry, SimTables& tables,
                         prov::ProvenanceGraph* provenance,
                         std::uint64_t* announcements, RouteEntry& out);

/// Canonical fixpoint provenance: re-derives the derivation chain of
/// converged RIB cells from the fixpoint itself instead of the round-by-
/// round announcement history. A cell's canonical node is a pure function
/// of (flow, sender's fixpoint entry), so the chain content byte-matches
/// the final-round chain the per-round recorder would have produced —
/// while the graph shrinks from O(rounds x announcements) to O(routes),
/// making it shareable across delta simulations.
///
/// The same recursion serves two callers:
///   * the full engine rebuilds every cell (`base_dirty` always true);
///   * the delta engine reuses the anchor's node for every cell whose
///     whole chain is clean (`base_dirty` = state-changed or on an edited
///     device), appending fresh nodes only along dirty chains.
///
/// A cell is *chain-dirty* when it is base-dirty itself or any ancestor on
/// its derivation chain is — dirtiness flows downstream through state-
/// unchanged cells, because an edit can change a chain's line set without
/// changing any route state. Clean cells return their stored (anchor)
/// DerivationId untouched; fresh ids are appended to `graph`, so with a
/// forked anchor graph the two id spaces never collide.
class ProvenanceRebuilder {
 public:
  using EntryAt = std::function<const RouteEntry*(int, PrefixId)>;
  using BaseDirty = std::function<bool(int, PrefixId)>;

  ProvenanceRebuilder(const topo::Network& network, SimTables& tables,
                      const std::vector<const Flow*>& flows,
                      prov::ProvenanceGraph& graph, EntryAt entry_at,
                      BaseDirty base_dirty);

  /// Canonical derivation id of cell (rid, pid): the stored id when the
  /// chain is clean, a freshly appended node otherwise. Returns false when
  /// the fixpoint can't be reproduced from the configs (a policy masked
  /// the difference away, or configs and state disagree) — the caller must
  /// then discard every id handed out so far.
  bool canonicalize(int rid, PrefixId pid, prov::DerivationId& out);

  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] std::size_t freshCount() const { return fresh_; }
  [[nodiscard]] std::size_t reusedCount() const { return reused_; }
  /// Memoized result of a prior canonicalize() (kNoDerivation when the
  /// cell was never visited).
  [[nodiscard]] prov::DerivationId idOf(int rid, PrefixId pid) const;

 private:
  bool fail();
  [[nodiscard]] std::vector<prov::DerivationId>& rowOf(int rid);

  const topo::Network& network_;
  SimTables& tables_;
  prov::ProvenanceGraph& graph_;
  EntryAt entry_at_;
  BaseDirty base_dirty_;
  /// Flows by (from_id, to_id), in global flow order — reproduction walks
  /// them in order and keeps the last match, mirroring the candidate
  /// board's same-slot overwrite semantics.
  std::map<std::pair<int, int>, std::vector<const Flow*>> flows_between_;
  std::vector<std::vector<prov::DerivationId>> memo_;  // by rid, by pid
  bool failed_ = false;
  std::size_t fresh_ = 0;
  std::size_t reused_ = 0;
};

/// From-scratch synchronous-round engine over triple-buffered flat states.
class FullEngine {
 public:
  FullEngine(const topo::Network& network, const SimOptions& options)
      : network_(network), options_(options) {}

  [[nodiscard]] SimResult run();

  // -- white-box stepping (allocation regression test) --------------------
  /// Per-round state: one flat entry array by pid per router.
  struct State {
    std::vector<std::vector<RouteEntry>> pages;  // by rid
  };

  /// Seeds tables, flows, locals and the round-0 (locals-only) state.
  void prime();
  enum class StepOutcome { kAdvanced, kConverged, kOscillating };
  /// Advances one synchronous round from the current state. At a fixpoint
  /// this recomputes the round and reports kConverged without mutating
  /// anything — and, with provenance off and memos warm, without
  /// allocating.
  StepOutcome step();

 private:
  void sizeState(State& state) const;
  /// Swaps the per-round provenance graph for the canonical fixpoint
  /// rebuild (see ProvenanceRebuilder), rewriting `state`'s derivation
  /// ids. Keeps the per-round graph untouched when reproduction fails.
  void canonicalizeProvenance(State& state);
  void computeRoundInto(const State& src, State& dst, bool record);
  void selectRoundInto(State& dst);
  [[nodiscard]] std::uint64_t hashOf(const State& state) const;
  [[nodiscard]] bool statesEqual(const State& a, const State& b) const;
  /// Both-directions state diff (the cycle-window flap check).
  void diffStatesBoth(const State& a, const State& b);
  void adoptRib(State&& state);

  const topo::Network& network_;
  SimOptions options_;
  SimResult result_;
  SimTablesPtr tables_;
  std::vector<Flow> flows_storage_;
  std::vector<const Flow*> flows_;
  EnginePlan plan_;
  CandidateBoard board_;
  EntryBetter better_;
  std::vector<int> config_rids_;
  std::vector<std::vector<PackedLocal>> locals_;  // by rid
  std::size_t universe_ = 0;

  State cur_, nxt_, prev_;
  std::vector<std::pair<std::uint64_t, int>> hash_history_;
  std::uint64_t last_hash_ = 0;
  int repeated_round_ = 0;  // set when step() returns kOscillating
};

}  // namespace acr::route::detail
