// Synchronous-round BGP control-plane simulator with oscillation detection.
//
// Model (documented in DESIGN.md §5):
//   * eBGP everywhere — each router is its own AS, matching the paper's
//     backbone and modern BGP-to-the-ToR DCNs.
//   * Synchronous rounds: every router advertises its current best route for
//     every prefix to every established session each round; a receiver's
//     candidate set from a neighbor is wholly replaced each round (implicit
//     withdrawals).
//   * No sender-side split horizon; loop prevention is the receiver-side
//     AS_PATH check — which `apply as-path overwrite` defeats, reproducing
//     the Figure-2 route flap.
//   * Export prepends the local AS unless it is already the first path
//     element (the overwrite already installed it).
//   * Decision process: admin distance, then highest local-pref, shortest
//     AS_PATH, lowest MED, lowest advertising-neighbor router-id.
//   * Convergence: a round with an unchanged global best-route state.
//     A repeated non-fixpoint state ⇒ persistent oscillation; the prefixes
//     whose best route varies inside the cycle window are reported as
//     *flapping*.
//
// Routing state lives in interned, packed storage (routing/rib.hpp): the
// engines run over dense (router id, prefix id) pages and `SimResult::rib`
// materializes names, prefixes and `Route` objects only at its read API.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "provenance/provenance.hpp"
#include "routing/rib.hpp"
#include "routing/route.hpp"
#include "topo/network.hpp"

namespace acr::route {

struct Session {
  std::string a;
  std::string b;
  net::Ipv4Address a_address;
  net::Ipv4Address b_address;
  bool up = false;
  std::string down_reason;  // empty when up
};

struct SimOptions {
  int max_rounds = 64;
  bool record_provenance = true;
};

struct SimResult {
  bool converged = false;
  int rounds = 0;
  /// Prefixes whose best route oscillates (route flapping).
  std::set<net::Prefix> flapping;
  /// Final best routes (last simulated round — for a flapping network this
  /// is one representative state of the cycle).
  Rib rib;
  prov::ProvenanceGraph provenance;
  std::vector<Session> sessions;
  std::uint64_t announcements = 0;

  SimResult();
  ~SimResult();
  /// Copies re-derive their own longest-prefix-match cache lazily: the
  /// cache materializes routes out of the owner's `rib`, so sharing it
  /// across copies would alias unrelated mutation histories.
  SimResult(const SimResult& other);
  SimResult& operator=(const SimResult& other);
  SimResult(SimResult&& other) noexcept;
  SimResult& operator=(SimResult&& other) noexcept;

  /// Longest-prefix match over `router`'s RIB, backed by a lazily built
  /// per-router PrefixTrie over routes materialized into a stable arena.
  /// Safe to call concurrently; build the RIB fully before the first lookup
  /// (later `rib` mutations are not re-indexed).
  [[nodiscard]] const Route* lookup(const std::string& router,
                                    net::Ipv4Address destination) const;
  /// True when any flapping prefix covers `destination` (trie-backed, same
  /// caveats as lookup()).
  [[nodiscard]] bool isFlapping(net::Ipv4Address destination) const;

  /// Drops the cached per-router FIB pages of exactly `routers`, keeping
  /// every other router's page intact. The copy-on-write escape hatch for
  /// incremental engines (routing/delta_tree.hpp) that mutate a subset of
  /// `rib` in place between lookups: call it after mutating those routers'
  /// entries (and again after rolling them back) so their pages re-derive
  /// while untouched routers keep amortizing their tries. Thread-safe like
  /// lookup().
  void dropLookupPages(const std::set<std::string>& routers) const;

 private:
  struct LookupCache;
  /// Lazily built LPM index over `rib` and `flapping`, guarded by its own
  /// mutex (lookups are logically const, hence mutable).
  mutable std::shared_ptr<LookupCache> cache_;
};

class Simulator {
 public:
  explicit Simulator(const topo::Network& network) : network_(network) {}

  [[nodiscard]] SimResult run(const SimOptions& options = {}) const;

  /// Session establishment alone (configs + topology, no route exchange).
  [[nodiscard]] std::vector<Session> computeSessions() const;

 private:
  const topo::Network& network_;
};

}  // namespace acr::route
