#include "routing/sim_internal.hpp"

#include <tuple>
#include <utility>

namespace acr::route::detail {

void appendFlowsForSession(const topo::Network& network,
                           const Session& session, const RouterTable& table,
                           std::vector<Flow>& flows) {
  if (!session.up) return;
  for (const auto& [from, to, from_addr, to_addr] :
       {std::tuple{session.a, session.b, session.a_address,
                   session.b_address},
        std::tuple{session.b, session.a, session.b_address,
                   session.a_address}}) {
    Flow flow;
    flow.from = from;
    flow.to = to;
    flow.from_id = table.idOf(from);
    flow.to_id = table.idOf(to);
    flow.from_asn = table.asns[static_cast<std::size_t>(flow.from_id)];
    flow.to_asn = table.asns[static_cast<std::size_t>(flow.to_id)];
    flow.from_address = from_addr;
    flow.exporter = network.config(from);
    flow.importer = network.config(to);
    flow.exporter_peer = flow.exporter->bgp->findPeer(to_addr);
    flow.importer_peer = flow.importer->bgp->findPeer(from_addr);
    flow.session_lines = {
        cfg::LineId{from, flow.exporter_peer->as_line},
        cfg::LineId{to, flow.importer_peer->as_line},
    };
    flow.export_binding = resolvePolicyBinding(
        *flow.exporter, *flow.exporter_peer, Direction::kExport);
    flow.import_binding = resolvePolicyBinding(
        *flow.importer, *flow.importer_peer, Direction::kImport);
    flows.push_back(std::move(flow));
  }
}

std::vector<Flow> buildFlows(const topo::Network& network,
                             const std::vector<Session>& sessions,
                             const RouterTable& table) {
  std::vector<Flow> flows;
  for (const auto& session : sessions) {
    appendFlowsForSession(network, session, table, flows);
  }
  return flows;
}

Session sessionForLink(const topo::Network& network,
                       const topo::LinkDecl& link) {
  const topo::Topology& topology = network.topology;
  Session session;
  session.a = link.a;
  session.b = link.b;
  session.a_address = link.addressOf(link.a);
  session.b_address = link.addressOf(link.b);
  const cfg::DeviceConfig* ca = network.config(link.a);
  const cfg::DeviceConfig* cb = network.config(link.b);
  const topo::RouterDecl* ra = topology.findRouter(link.a);
  const topo::RouterDecl* rb = topology.findRouter(link.b);
  const auto check = [&](const cfg::DeviceConfig* self,
                         net::Ipv4Address peer_address,
                         const topo::RouterDecl* peer_router,
                         const std::string& self_name) -> std::string {
    if (self == nullptr || !self->bgp) {
      return "no bgp configuration on " + self_name;
    }
    const cfg::PeerConfig* peer = self->bgp->findPeer(peer_address);
    if (peer == nullptr) {
      return "no peer statement for " + peer_address.str() + " on " +
             self_name;
    }
    if (peer->remote_as != peer_router->asn) {
      return "as-number mismatch on " + self_name + ": configured " +
             std::to_string(peer->remote_as) + ", remote is " +
             std::to_string(peer_router->asn);
    }
    return {};
  };
  std::string reason = check(ca, session.b_address, rb, link.a);
  if (reason.empty()) reason = check(cb, session.a_address, ra, link.b);
  session.up = reason.empty();
  session.down_reason = reason;
  return session;
}

bool sameTopologyShape(const topo::Topology& a, const topo::Topology& b) {
  const auto& ra = a.routers();
  const auto& rb = b.routers();
  if (ra.size() != rb.size()) return false;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    if (ra[i].name != rb[i].name || ra[i].asn != rb[i].asn ||
        ra[i].router_id != rb[i].router_id) {
      return false;
    }
  }
  const auto& la = a.links();
  const auto& lb = b.links();
  if (la.size() != lb.size()) return false;
  for (std::size_t i = 0; i < la.size(); ++i) {
    if (la[i].a != lb[i].a || la[i].b != lb[i].b ||
        la[i].subnet != lb[i].subnet) {
      return false;
    }
  }
  return true;
}

bool sameSession(const Session& a, const Session& b) {
  return a.a == b.a && a.b == b.b && a.a_address == b.a_address &&
         a.b_address == b.b_address && a.up == b.up &&
         a.down_reason == b.down_reason;
}

bool sameDeviceSet(const topo::Network& a, const topo::Network& b) {
  if (a.configs.size() != b.configs.size()) return false;
  auto ia = a.configs.begin();
  auto ib = b.configs.begin();
  for (; ia != a.configs.end(); ++ia, ++ib) {
    if (ia->first != ib->first) return false;
  }
  return true;
}

}  // namespace acr::route::detail
