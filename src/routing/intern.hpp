// Interned simulation tables: dense ids for routers, prefixes and AS paths.
//
// The routing engines used to key every hot-path structure by strings
// (router names) and heap-backed values (`net::Prefix` map keys,
// `std::vector` AS paths). These tables intern each of them once per
// simulation into dense integer ids so the round loop touches only flat
// arrays and PODs (routing/rib.hpp):
//
//   * RouterTable — names -> ids >= 1, with per-id router-id/ASN/name
//     columns (moved here from sim_internal.hpp; id 0 is reserved for
//     "locally originated / unknown").
//   * PrefixTable — `net::Prefix` -> PrefixId. Seeded with the *sorted*
//     prefix universe of a network (every connected and static prefix of
//     every config), so iterating a RIB page in id order IS iterating it
//     in prefix order — which is what keeps provenance recording and every
//     other order-sensitive output byte-identical to the old map walks.
//     Prefixes first seen later (e.g. a candidate edit adds a static
//     route) append past the seeded range.
//   * AsPathTable — AS-path contents -> AsPathId, stored as one shared
//     element arena + offsets (SoA). Id 0 is the empty path. The announce
//     transform's path edits (prepend, overwrite) are memoized id->id, so
//     steady-state rounds never re-hash or re-allocate a path.
//
// Determinism contract: ids are a function of the interning *sequence*
// only. Seeding derives that sequence from the network alone (sorted
// universe, config-map order), and each engine run owns its tables (or a
// clone of its baseline's — clones preserve ids exactly), so ids and every
// downstream verdict are byte-identical however many campaign or acrd
// workers run engines concurrently.
//
// All tables are append-only; ids are never invalidated. Interning past
// kMaxIds throws std::length_error with a clear message — the id width is
// a deliberate packing decision, not a silent truncation point.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "netcore/ipv4.hpp"
#include "netcore/prefix.hpp"

namespace acr::topo {
class Network;
struct Topology;
}  // namespace acr::topo

namespace acr::route {

using PrefixId = std::uint32_t;
using AsPathId = std::uint32_t;

/// Sentinel for "not interned" lookups.
inline constexpr std::uint32_t kNoId = 0xffffffffu;

/// Dense router table: names interned to ids >= 1 (0 is reserved for
/// "locally originated / unknown"), with the per-id router-id, ASN and name
/// in flat arrays. Lets the decision process and the RIB pages key
/// everything by (router id, prefix id) instead of strings.
struct RouterTable {
  std::unordered_map<std::string, int> index;
  std::vector<net::Ipv4Address> router_ids;  // [0] = 0.0.0.0
  std::vector<std::uint32_t> asns;           // [0] = 0
  std::vector<std::string> names;            // [0] = ""
  /// Router ids in name order — the iteration order of the old
  /// string-keyed RIB map, preserved for every order-sensitive boundary.
  std::vector<int> ids_by_name;

  explicit RouterTable(const topo::Topology& topology);

  [[nodiscard]] int idOf(const std::string& name) const {
    const auto it = index.find(name);
    return it == index.end() ? 0 : it->second;
  }
  [[nodiscard]] net::Ipv4Address routerIdOf(int id) const {
    const auto index_ = static_cast<std::size_t>(id);
    return index_ < router_ids.size() ? router_ids[index_] : net::Ipv4Address();
  }
  [[nodiscard]] const std::string& nameOf(int id) const {
    return names[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::size_t size() const { return names.size() - 1; }
};

/// Append-only prefix interner. Ids are assigned in first-intern order;
/// seedTables() interns the sorted universe first so seeded ids sort like
/// their prefixes.
class PrefixTable {
 public:
  static constexpr std::uint32_t kMaxIds = 1u << 24;

  /// Interns (appending when unseen). Throws std::length_error past kMaxIds.
  PrefixId intern(const net::Prefix& prefix);
  /// Lookup without interning; kNoId when unseen.
  [[nodiscard]] PrefixId tryIdOf(const net::Prefix& prefix) const;
  [[nodiscard]] const net::Prefix& prefixOf(PrefixId id) const {
    return prefixes_[id];
  }
  [[nodiscard]] std::size_t size() const { return prefixes_.size(); }
  [[nodiscard]] std::size_t bytes() const;
  /// Lowers the id-space cap below kMaxIds — test seam for the overflow
  /// guard (the real cap is too large to hit in a unit test).
  void capForTest(std::uint32_t cap) { cap_ = cap; }

 private:
  std::vector<net::Prefix> prefixes_;
  /// (address << 8 | length) is a perfect 40-bit key — no collisions.
  std::unordered_map<std::uint64_t, PrefixId> index_;
  std::uint32_t cap_ = kMaxIds;
};

/// Append-only AS-path interner over a shared element arena. Id 0 is the
/// empty path. Prepend/overwrite edits are memoized so the announce
/// transform's steady state allocates nothing.
class AsPathTable {
 public:
  static constexpr std::uint32_t kMaxIds = 1u << 24;

  AsPathTable();

  /// Interns path contents. Throws std::length_error past kMaxIds.
  AsPathId intern(std::span<const std::uint32_t> path);
  [[nodiscard]] std::span<const std::uint32_t> pathOf(AsPathId id) const {
    return {elems_.data() + offsets_[id], offsets_[id + 1] - offsets_[id]};
  }
  [[nodiscard]] std::uint32_t lengthOf(AsPathId id) const {
    return offsets_[id + 1] - offsets_[id];
  }
  /// Id of {asn} + pathOf(id); memoized.
  AsPathId prepended(AsPathId id, std::uint32_t asn);
  /// Id of the one-element path {asn}; memoized (== prepended(0, asn)).
  AsPathId singleton(std::uint32_t asn) { return prepended(0, asn); }
  [[nodiscard]] bool contains(AsPathId id, std::uint32_t asn) const;
  /// First element; only meaningful when lengthOf(id) > 0.
  [[nodiscard]] std::uint32_t frontOf(AsPathId id) const {
    return elems_[offsets_[id]];
  }
  [[nodiscard]] std::size_t size() const { return offsets_.size() - 1; }
  [[nodiscard]] std::size_t bytes() const;
  /// Lowers the id-space cap below kMaxIds — test seam for the overflow
  /// guard (the real cap is too large to hit in a unit test).
  void capForTest(std::uint32_t cap) { cap_ = cap; }

 private:
  std::vector<std::uint32_t> elems_;
  std::vector<std::uint32_t> offsets_;  // size() + 1 entries
  /// Content hash -> candidate ids (hash collisions resolved by compare).
  std::unordered_map<std::uint64_t, std::vector<AsPathId>> index_;
  std::unordered_map<std::uint64_t, AsPathId> prepend_memo_;
  std::uint32_t cap_ = kMaxIds;
};

/// The per-run table bundle every engine (full, delta, tree) seeds once and
/// threads through its RIB pages. Copyable: a clone preserves every id, so
/// incremental engines clone their baseline's tables and extend privately —
/// shared pages stay valid and nothing ever mutates tables across threads.
struct SimTables {
  RouterTable routers;
  PrefixTable prefixes;
  AsPathTable paths;

  explicit SimTables(const topo::Topology& topology) : routers(topology) {}
};

using SimTablesPtr = std::shared_ptr<SimTables>;

/// Seeds tables for `network`: the dense router table plus the sorted
/// prefix universe (every interface's connected prefix and every static
/// route's prefix, resolvable or not). Emits `sim.layout.*` metrics and a
/// `sim.layout.seed` span.
[[nodiscard]] SimTablesPtr seedTables(const topo::Network& network);

}  // namespace acr::route
