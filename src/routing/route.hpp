// Route representation shared by the control-plane simulator, the data
// plane and the verifier.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netcore/ipv4.hpp"
#include "netcore/prefix.hpp"
#include "provenance/provenance.hpp"

namespace acr::route {

/// Route origin in administrative-distance order (lower wins).
enum class RouteSource : std::uint8_t {
  kConnected = 0,
  kStatic = 1,
  kBgp = 20,
};

[[nodiscard]] std::string routeSourceName(RouteSource source);

struct Route {
  net::Prefix prefix;
  RouteSource source = RouteSource::kBgp;
  std::vector<std::uint32_t> as_path;
  std::uint32_t local_pref = 100;
  std::uint32_t med = 0;
  /// Advertising neighbor's router name; empty for locally originated routes.
  std::string learned_from;
  /// Dense id of `learned_from` in the simulating topology's router table
  /// (0 = locally originated). Lets the decision process read the
  /// advertising neighbor's router-id from a flat array instead of a map.
  /// Derived from `learned_from`, so excluded from key().
  std::int32_t learned_from_id = 0;
  /// BGP: the neighbor's peering address. Static: the configured next hop.
  /// Connected: 0.
  net::Ipv4Address next_hop;
  prov::DerivationId derivation = prov::kNoDerivation;

  /// Debug rendering of the route's identity fields (excludes the
  /// derivation id, which differs every round by construction). The
  /// engines' convergence/oscillation detection no longer builds these
  /// strings — it compares and hashes packed `RouteEntry` fields
  /// (routing/rib.hpp) — so key() survives only for the flight recorder
  /// and human-facing dumps.
  [[nodiscard]] std::string key() const;

  /// Debug rendering of the AS path ("[65001 65002]"); same caveat as
  /// key() — not on any hot path.
  [[nodiscard]] std::string pathStr() const;
};

}  // namespace acr::route
