// Shared internals of the full (`Simulator`) and incremental (`DeltaTree`)
// control-plane engines: session establishment, resolved session flows and
// the structural precondition checks behind the incremental engine's
// fallback rules.
//
// Both engine families must agree *byte for byte* on the per-round transfer
// function; its packed implementation (candidate staging, the announcement
// transform, best-route selection) lives in routing/sim_engine.hpp. This
// header keeps the configuration-time machinery both build on.
//
// Not part of the public API: include only from acr_routing sources and
// white-box tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "routing/policy_eval.hpp"
#include "routing/route.hpp"
#include "routing/simulator.hpp"
#include "topo/network.hpp"

namespace acr::route::detail {

/// One established session direction with everything the round loop needs
/// resolved up front: device configs, peer statements and the effective
/// export/import policy bindings (hoisted out of the round loop — they
/// depend only on configuration, never on routing state).
struct Flow {
  std::string from;
  std::string to;
  int from_id = 0;
  int to_id = 0;
  std::uint32_t from_asn = 0;
  std::uint32_t to_asn = 0;
  net::Ipv4Address from_address;  // next hop the receiver will use
  const cfg::DeviceConfig* exporter = nullptr;
  const cfg::DeviceConfig* importer = nullptr;
  const cfg::PeerConfig* exporter_peer = nullptr;  // on `from`, towards `to`
  const cfg::PeerConfig* importer_peer = nullptr;  // on `to`, towards `from`
  std::vector<cfg::LineId> session_lines;          // peer as-number lines
  PolicyBinding export_binding;
  PolicyBinding import_binding;
};

/// Appends the directed flows of one established session (a->b then b->a)
/// resolved against `network`. The per-session unit of buildFlows(), exposed
/// so incremental engines can re-resolve only the sessions whose endpoint
/// configs changed and reuse every other flow object untouched.
void appendFlowsForSession(const topo::Network& network,
                           const Session& session, const RouterTable& table,
                           std::vector<Flow>& flows);

/// Directed flows for the established sessions, in session order (a->b
/// then b->a per link) — candidate-slot overwrite semantics depend on this
/// order, so both engines must build flows identically.
[[nodiscard]] std::vector<Flow> buildFlows(const topo::Network& network,
                                           const std::vector<Session>& sessions,
                                           const RouterTable& table);

/// Session establishment for a single topology link (configs on both ends,
/// peer statements, AS numbers). The per-link unit of
/// Simulator::computeSessions(), exposed so incremental engines can
/// recompute only the sessions adjacent to an edited device.
[[nodiscard]] Session sessionForLink(const topo::Network& network,
                                     const topo::LinkDecl& link);

// --- incremental-engine precondition checks (docs/architecture.md §12) ----

/// Structural topology equality as the simulator sees it: same routers
/// (name, ASN, router-id — in order, since the dense router table interns
/// by position) and same links. Roles and edge subnets don't feed the
/// control plane.
[[nodiscard]] bool sameTopologyShape(const topo::Topology& a,
                                     const topo::Topology& b);

/// Same session: endpoints, addresses, up/down state and reason.
[[nodiscard]] bool sameSession(const Session& a, const Session& b);

/// Same set of configured devices (map keys, in order).
[[nodiscard]] bool sameDeviceSet(const topo::Network& a,
                                 const topo::Network& b);

}  // namespace acr::route::detail
