#include "routing/rivals.hpp"

#include <algorithm>

#include "routing/policy_eval.hpp"

namespace acr::route {

std::vector<Rival> collectRivals(const topo::Network& network,
                                 const SimResult& sim,
                                 const std::string& router,
                                 const net::Prefix& prefix) {
  std::vector<Rival> rivals;
  const cfg::DeviceConfig* device = network.config(router);
  if (device == nullptr || !device->bgp) return rivals;
  const topo::RouterDecl* own_decl = network.topology.findRouter(router);
  const std::uint32_t own_asn = own_decl != nullptr ? own_decl->asn : 0;

  for (const Session& session : sim.sessions) {
    if (!session.up) continue;
    if (session.a != router && session.b != router) continue;
    const std::string& neighbor = session.a == router ? session.b : session.a;
    const net::Ipv4Address neighbor_address =
        session.a == router ? session.b_address : session.a_address;
    const net::Ipv4Address own_address =
        session.a == router ? session.a_address : session.b_address;

    const cfg::DeviceConfig* supplier = network.config(neighbor);
    if (supplier == nullptr || !supplier->bgp) continue;
    const std::optional<Route> their_route = sim.rib.routeOf(neighbor, prefix);
    if (!their_route) continue;
    const topo::RouterDecl* supplier_decl =
        network.topology.findRouter(neighbor);
    const std::uint32_t supplier_asn =
        supplier_decl != nullptr ? supplier_decl->asn : 0;

    // Redistribution gate for locally originated routes (the simulator also
    // refuses to leak /30+ transfer subnets learned as connected).
    if (their_route->source == RouteSource::kConnected) {
      if (!supplier->bgp->redistributes_source(cfg::RedistSource::kConnected)) {
        continue;
      }
      if (prefix.length() >= 30) continue;
    } else if (their_route->source == RouteSource::kStatic) {
      if (!supplier->bgp->redistributes_source(cfg::RedistSource::kStatic)) {
        continue;
      }
    }

    Rival rival;
    rival.neighbor = neighbor;
    Route announced = *their_route;
    announced.source = RouteSource::kBgp;

    // Export policy at the supplier.
    const cfg::PeerConfig* their_peer = supplier->bgp->findPeer(own_address);
    if (their_peer != nullptr) {
      const PolicyBinding binding =
          resolvePolicyBinding(*supplier, *their_peer, Direction::kExport);
      if (binding.bound) {
        rival.lines.insert(rival.lines.end(), binding.lines.begin(),
                           binding.lines.end());
        const PolicyVerdict verdict =
            applyRoutePolicy(*supplier, binding.policy, announced, supplier_asn);
        rival.lines.insert(rival.lines.end(), verdict.lines.begin(),
                           verdict.lines.end());
        if (!verdict.permitted) continue;
        announced = verdict.route;
      }
    }
    if (announced.as_path.empty() || announced.as_path.front() != supplier_asn) {
      announced.as_path.insert(announced.as_path.begin(), supplier_asn);
    }

    // Receiver-side loop prevention.
    if (std::find(announced.as_path.begin(), announced.as_path.end(),
                  own_asn) != announced.as_path.end()) {
      continue;
    }

    announced.local_pref = 100;  // local-pref is not transitive over eBGP
    announced.learned_from = neighbor;
    announced.next_hop = neighbor_address;

    // Import policy at the receiver.
    const cfg::PeerConfig* peer = device->bgp->findPeer(neighbor_address);
    if (peer != nullptr) {
      const PolicyBinding binding =
          resolvePolicyBinding(*device, *peer, Direction::kImport);
      if (binding.bound) {
        rival.lines.insert(rival.lines.end(), binding.lines.begin(),
                           binding.lines.end());
        const PolicyVerdict verdict =
            applyRoutePolicy(*device, binding.policy, announced, own_asn);
        rival.lines.insert(rival.lines.end(), verdict.lines.begin(),
                           verdict.lines.end());
        if (!verdict.permitted) continue;
        announced = verdict.route;
      }
    }

    rival.route = std::move(announced);
    rivals.push_back(std::move(rival));
  }
  return rivals;
}

}  // namespace acr::route
