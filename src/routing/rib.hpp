// Structure-of-arrays RIB storage with copy-on-write pages.
//
// The routing state used to live in `std::map<std::string,
// std::map<net::Prefix, Route>>` — two levels of node allocations, heap
// strings in every entry and a string-building `Route::key()` on the
// convergence hot path. This module replaces it end to end:
//
//   * `RouteEntry` — one packed, trivially copyable 32-byte record per
//     (router, prefix) cell. Names, prefixes and AS paths are dense
//     interned ids (routing/intern.hpp); the decision process, convergence
//     compare and RIB hashing read POD fields only.
//   * `RibPage` — one router's flat entry array indexed by PrefixId.
//   * `Rib` — the per-router page set behind `shared_ptr` copy-on-write:
//     copying a Rib is O(routers) pointer copies, and the delta tree
//     forks candidate states by saving/restoring page pointers instead of
//     keeping per-entry undo maps. A page is cloned at first write only
//     when it is shared.
//
// Names, `net::Prefix` keys and `Route` objects are materialized only at
// API boundaries (routesOf/routeOf/identicalTo and SimResult::lookup), so
// external results stay byte-identical to the old representation while the
// round loops never touch a string.
//
// A masking flag replaces the O(entries) scrub walk the incremental engines
// used to pay when seeding from a baseline: derivation ids are *derived*
// state, so a Rib can carry stale physical values and simply stop showing
// them (`scrubFor`) — readers consult the flag at materialization time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "netcore/ipv4.hpp"
#include "netcore/prefix.hpp"
#include "provenance/provenance.hpp"
#include "routing/intern.hpp"
#include "routing/route.hpp"

namespace acr::route {

/// One packed best-route record. All reference-typed route attributes are
/// interned ids; `present` distinguishes a live entry from an empty cell of
/// the flat page array.
struct RouteEntry {
  std::uint32_t local_pref = 100;
  std::uint32_t med = 0;
  AsPathId as_path_id = 0;      // empty path
  std::uint32_t as_path_len = 0;
  std::uint32_t next_hop = 0;   // net::Ipv4Address::value()
  std::int32_t learned_from_id = 0;  // 0 = locally originated
  prov::DerivationId derivation = prov::kNoDerivation;
  RouteSource source = RouteSource::kBgp;
  std::uint8_t present = 0;
  std::uint8_t pad[2] = {};
};
static_assert(std::is_trivially_copyable_v<RouteEntry>);
static_assert(sizeof(RouteEntry) == 32, "RouteEntry must stay one packed "
                                        "32-byte record");

/// Identity under the convergence semantics — the packed equivalent of the
/// old `Route::key()` compare (prefix identity is the cell address; the
/// derivation is derived state, excluded exactly as key() excluded it).
/// Only meaningful between entries sharing one SimTables lineage: ids
/// compare as values.
[[nodiscard]] inline bool sameEntryState(const RouteEntry& a,
                                         const RouteEntry& b) {
  return a.present == b.present && a.source == b.source &&
         a.local_pref == b.local_pref && a.med == b.med &&
         a.next_hop == b.next_hop &&
         a.learned_from_id == b.learned_from_id &&
         a.as_path_id == b.as_path_id;
}

/// One router's RIB as a flat array indexed by PrefixId. `entries` may be
/// shorter than the prefix table when the universe grew after the page was
/// written — out-of-range ids are simply absent.
struct RibPage {
  std::vector<RouteEntry> entries;
  std::uint32_t live = 0;  // number of present entries
};

using RibPagePtr = std::shared_ptr<RibPage>;

/// 64-bit mix of one present entry's cell address and state fields — the
/// packed replacement for the `router + '\n' + Route::key()` FNV string
/// hash. XOR-combined per RIB, so incremental engines maintain the whole-
/// state hash as H ^= old ^ new. Stable only within one SimTables lineage.
[[nodiscard]] std::uint64_t entryStateHash(int rid, PrefixId pid,
                                           const RouteEntry& entry);

class Rib {
 public:
  Rib() = default;
  /// One empty page per id of `router_ids`; `tables` is the id space every
  /// entry of this Rib speaks.
  Rib(SimTablesPtr tables, const std::vector<int>& router_ids);

  // ---- boundary read API (materializes names/prefixes/paths) -----------
  [[nodiscard]] std::size_t size() const { return page_count_; }
  [[nodiscard]] bool empty() const { return page_count_ == 0; }
  /// Router names in name order (the old map iteration order).
  [[nodiscard]] std::vector<std::string> routers() const;
  [[nodiscard]] bool hasRouter(const std::string& router) const;
  [[nodiscard]] std::size_t routeCountOf(const std::string& router) const;
  [[nodiscard]] std::optional<Route> routeOf(const std::string& router,
                                             const net::Prefix& prefix) const;
  /// All routes of one router keyed by prefix — the old per-router map,
  /// materialized. Debug/test boundary; not for hot paths.
  [[nodiscard]] std::map<net::Prefix, Route> routesOf(
      const std::string& router) const;
  /// Same, as a prefix-sorted vector (cheaper; used by the lookup cache).
  [[nodiscard]] std::vector<std::pair<net::Prefix, Route>> routesListOf(
      const std::string& router) const;
  /// Total present entries across all pages.
  [[nodiscard]] std::size_t totalRoutes() const;
  /// Bytes held by page entry arrays (sim.layout metrics).
  [[nodiscard]] std::size_t pageBytes() const;

  /// Identity under the convergence semantics — what comparing every
  /// `Route::key()` used to check.
  /// Works across Ribs with unrelated tables (compares by name/content).
  [[nodiscard]] bool identicalTo(const Rib& other) const;

  /// Inserts every prefix whose best route differs between `this` and
  /// `old` on any router of `this` (state compare — the old key()-based
  /// diff). Shared pages are skipped wholesale.
  void changedPrefixesInto(const Rib& old, std::set<net::Prefix>& out) const;

  // ---- engine API (id-addressed, allocation-free reads) ----------------
  [[nodiscard]] const SimTablesPtr& tables() const { return tables_; }
  /// Rebinds the id space to `tables` (which must preserve every id this
  /// Rib's entries reference — i.e. be a clone of the current tables).
  void setTables(SimTablesPtr tables) { tables_ = std::move(tables); }
  [[nodiscard]] const RibPage* page(int rid) const {
    const auto i = static_cast<std::size_t>(rid);
    return i < pages_.size() ? pages_[i].get() : nullptr;
  }
  [[nodiscard]] const RouteEntry* entryAt(int rid, PrefixId pid) const {
    const RibPage* p = page(rid);
    if (p == nullptr || pid >= p->entries.size()) return nullptr;
    const RouteEntry& e = p->entries[pid];
    return e.present != 0 ? &e : nullptr;
  }
  /// Writes one entry (clone-on-first-write when the page is shared).
  void set(int rid, PrefixId pid, const RouteEntry& entry);
  /// Removes one entry (no-op when absent).
  void erase(int rid, PrefixId pid);
  /// Replaces a router's page wholesale (full-engine result adoption).
  void installPage(int rid, RibPage&& fresh);
  /// Current page pointer — save before a speculative segment, restore to
  /// roll the segment back exactly (the delta tree's page-level undo).
  [[nodiscard]] RibPagePtr pageRef(int rid) const {
    const auto i = static_cast<std::size_t>(rid);
    return i < pages_.size() ? pages_[i] : nullptr;
  }
  void restorePage(int rid, RibPagePtr saved);
  /// Empties one router's page (copy-on-write). Test hook mirroring the old
  /// `rib[router].clear()`.
  void clearRouter(const std::string& router);

  /// XOR-combined entryStateHash over all present entries.
  [[nodiscard]] std::uint64_t stateHash() const;

  // ---- derived-state mask ----------------------------------------------
  /// Marks derivations stale: readers materialize kNoDerivation instead.
  /// O(1) — replaces the old scrub walk over every entry.
  void scrubFor(bool show_derivations) { show_derivations_ = show_derivations; }
  [[nodiscard]] bool showsDerivations() const { return show_derivations_; }

  /// Materializes one entry as the boundary `Route` (mask applied).
  [[nodiscard]] Route materialize(PrefixId pid, const RouteEntry& entry) const;

 private:
  RibPage& mutablePage(int rid);
  /// Present (prefix, pid) cells of a page, sorted by prefix. Seeded ids
  /// are already prefix-ascending; the sort only reorders appended tails.
  [[nodiscard]] std::vector<std::pair<net::Prefix, PrefixId>> sortedCells(
      const RibPage& p) const;

  SimTablesPtr tables_;
  std::vector<RibPagePtr> pages_;  // indexed by rid; null = no page
  std::size_t page_count_ = 0;
  bool show_derivations_ = true;
};

}  // namespace acr::route
