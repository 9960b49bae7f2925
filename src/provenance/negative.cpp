#include "provenance/negative.hpp"

#include <algorithm>
#include <functional>
#include <optional>

#include "routing/policy_eval.hpp"

namespace acr::prov {

std::string absenceKindName(AbsenceReason::Kind kind) {
  switch (kind) {
    case AbsenceReason::Kind::kNoOrigination:
      return "no-origination";
    case AbsenceReason::Kind::kNotRedistributed:
      return "not-redistributed";
    case AbsenceReason::Kind::kSessionDown:
      return "session-down";
    case AbsenceReason::Kind::kExportDenied:
      return "export-denied";
    case AbsenceReason::Kind::kImportDenied:
      return "import-denied";
    case AbsenceReason::Kind::kLoopRejected:
      return "loop-rejected";
    case AbsenceReason::Kind::kNeighborLacksRoute:
      return "neighbor-lacks-route";
  }
  return "?";
}

std::string AbsenceReason::str() const {
  std::string out = absenceKindName(kind) + " at " + router;
  if (!neighbor.empty()) out += " (from " + neighbor + ")";
  if (!detail.empty()) out += ": " + detail;
  return out;
}

std::set<cfg::LineId> AbsenceExplanation::lines() const {
  std::set<cfg::LineId> out;
  for (const auto& reason : reasons) {
    out.insert(reason.lines.begin(), reason.lines.end());
  }
  return out;
}

bool AbsenceExplanation::blames(AbsenceReason::Kind kind) const {
  return std::any_of(reasons.begin(), reasons.end(),
                     [&](const AbsenceReason& reason) {
                       return reason.kind == kind;
                     });
}

std::string AbsenceExplanation::str() const {
  std::string out;
  for (const auto& reason : reasons) {
    out += reason.str();
    out += '\n';
  }
  return out;
}

AbsenceExplanation explainAbsence(const topo::Network& network,
                                  const route::SimResult& sim,
                                  const std::string& router,
                                  const net::Prefix& prefix) {
  AbsenceExplanation out;
  std::set<std::string> visited;

  // The router that is *supposed* to originate the prefix.
  std::string expected_origin;
  for (const auto& subnet : network.topology.subnets()) {
    if (subnet.prefix == prefix ||
        subnet.prefix.contains(prefix.address())) {
      expected_origin = subnet.router;
      break;
    }
  }

  const std::function<void(const std::string&)> explain =
      [&](const std::string& current) {
        if (!visited.insert(current).second) return;
        const cfg::DeviceConfig* device = network.config(current);
        if (device == nullptr) return;

        // Origination check at the expected origin.
        if (current == expected_origin) {
          bool via_connected = false;
          bool via_static = false;
          std::vector<cfg::LineId> origin_lines;
          for (const auto& itf : device->interfaces) {
            if (itf.connectedPrefix().contains(prefix.address())) {
              via_connected = true;
              origin_lines.push_back(cfg::LineId{current, itf.ip_line});
            }
          }
          for (const auto& sr : device->static_routes) {
            if (sr.prefix.contains(prefix.address())) {
              const bool resolvable = std::any_of(
                  device->interfaces.begin(), device->interfaces.end(),
                  [&](const cfg::InterfaceConfig& itf) {
                    return itf.connectedPrefix().contains(sr.next_hop);
                  });
              if (resolvable) {
                via_static = true;
                origin_lines.push_back(cfg::LineId{current, sr.line});
              }
            }
          }
          if (!via_connected && !via_static) {
            AbsenceReason reason;
            reason.kind = AbsenceReason::Kind::kNoOrigination;
            reason.router = current;
            reason.detail = "no interface or resolvable static route covers " +
                            prefix.str();
            if (device->bgp) {
              reason.lines.push_back(cfg::LineId{current, device->bgp->line});
              for (const auto& redist : device->bgp->redistributes) {
                reason.lines.push_back(cfg::LineId{current, redist.line});
              }
            }
            out.reasons.push_back(std::move(reason));
          } else if (device->bgp) {
            const bool redistributed =
                (via_static &&
                 device->bgp->redistributes_source(cfg::RedistSource::kStatic)) ||
                (via_connected && device->bgp->redistributes_source(
                                      cfg::RedistSource::kConnected));
            if (!redistributed) {
              AbsenceReason reason;
              reason.kind = AbsenceReason::Kind::kNotRedistributed;
              reason.router = current;
              reason.detail =
                  std::string("route exists via ") +
                  (via_static ? "static" : "connected") +
                  " but is never injected into BGP";
              reason.lines = origin_lines;
              reason.lines.push_back(cfg::LineId{current, device->bgp->line});
              out.reasons.push_back(std::move(reason));
            }
          }
        }
        if (current == expected_origin) return;  // walked to the root

        const std::uint32_t own_asn =
            network.topology.findRouter(current) != nullptr
                ? network.topology.findRouter(current)->asn
                : 0;

        for (const auto& session : sim.sessions) {
          if (session.a != current && session.b != current) continue;
          const std::string neighbor =
              session.a == current ? session.b : session.a;
          const net::Ipv4Address neighbor_address =
              session.a == current ? session.b_address : session.a_address;
          const net::Ipv4Address own_address =
              session.a == current ? session.a_address : session.b_address;

          if (!session.up) {
            AbsenceReason reason;
            reason.kind = AbsenceReason::Kind::kSessionDown;
            reason.router = current;
            reason.neighbor = neighbor;
            reason.detail = session.down_reason;
            if (device->bgp) {
              const cfg::PeerConfig* peer =
                  device->bgp->findPeer(neighbor_address);
              if (peer != nullptr) {
                reason.lines.push_back(cfg::LineId{current, peer->as_line});
              }
            }
            const cfg::DeviceConfig* other = network.config(neighbor);
            if (other != nullptr && other->bgp) {
              const cfg::PeerConfig* peer = other->bgp->findPeer(own_address);
              if (peer != nullptr) {
                reason.lines.push_back(cfg::LineId{neighbor, peer->as_line});
              }
            }
            out.reasons.push_back(std::move(reason));
            continue;
          }

          const cfg::DeviceConfig* supplier = network.config(neighbor);
          const std::optional<route::Route> their_route =
              sim.rib.routeOf(neighbor, prefix);
          if (!their_route) {
            explain(neighbor);  // the obstacle is further upstream
            continue;
          }
          if (supplier == nullptr || !supplier->bgp || !device->bgp) continue;
          const topo::RouterDecl* supplier_decl =
              network.topology.findRouter(neighbor);
          const std::uint32_t supplier_asn =
              supplier_decl != nullptr ? supplier_decl->asn : 0;

          // Redistribution gate at the supplier.
          if (their_route->source == route::RouteSource::kStatic &&
              !supplier->bgp->redistributes_source(cfg::RedistSource::kStatic)) {
            AbsenceReason reason;
            reason.kind = AbsenceReason::Kind::kNotRedistributed;
            reason.router = neighbor;
            reason.neighbor = current;
            reason.detail = "static route held but 'redistribute static' missing";
            reason.lines.push_back(cfg::LineId{neighbor, supplier->bgp->line});
            out.reasons.push_back(std::move(reason));
            continue;
          }
          if (their_route->source == route::RouteSource::kConnected &&
              !supplier->bgp->redistributes_source(
                  cfg::RedistSource::kConnected)) {
            AbsenceReason reason;
            reason.kind = AbsenceReason::Kind::kNotRedistributed;
            reason.router = neighbor;
            reason.neighbor = current;
            reason.detail =
                "connected route held but 'redistribute connected' missing";
            reason.lines.push_back(cfg::LineId{neighbor, supplier->bgp->line});
            out.reasons.push_back(std::move(reason));
            continue;
          }

          // Export policy at the supplier.
          const cfg::PeerConfig* their_peer =
              supplier->bgp->findPeer(own_address);
          route::Route announced = *their_route;
          if (their_peer != nullptr) {
            const route::PolicyBinding binding = route::resolvePolicyBinding(
                *supplier, *their_peer, route::Direction::kExport);
            if (binding.bound) {
              const route::PolicyVerdict verdict = route::applyRoutePolicy(
                  *supplier, binding.policy, announced, supplier_asn);
              if (!verdict.permitted) {
                AbsenceReason reason;
                reason.kind = AbsenceReason::Kind::kExportDenied;
                reason.router = neighbor;
                reason.neighbor = current;
                reason.detail = "export policy " + binding.policy +
                                " denies " + prefix.str();
                reason.lines = binding.lines;
                reason.lines.insert(reason.lines.end(), verdict.lines.begin(),
                                    verdict.lines.end());
                out.reasons.push_back(std::move(reason));
                continue;
              }
              announced = verdict.route;
            }
          }
          if (announced.as_path.empty() ||
              announced.as_path.front() != supplier_asn) {
            announced.as_path.insert(announced.as_path.begin(), supplier_asn);
          }

          // Receiver-side loop prevention.
          if (std::find(announced.as_path.begin(), announced.as_path.end(),
                        own_asn) != announced.as_path.end()) {
            AbsenceReason reason;
            reason.kind = AbsenceReason::Kind::kLoopRejected;
            reason.router = current;
            reason.neighbor = neighbor;
            reason.detail = "own AS " + std::to_string(own_asn) +
                            " appears in the advertised path " +
                            announced.pathStr();
            const cfg::PeerConfig* peer = device->bgp->findPeer(neighbor_address);
            if (peer != nullptr) {
              reason.lines.push_back(cfg::LineId{current, peer->as_line});
            }
            out.reasons.push_back(std::move(reason));
            continue;
          }

          // Import policy at this router.
          const cfg::PeerConfig* peer = device->bgp->findPeer(neighbor_address);
          if (peer != nullptr) {
            const route::PolicyBinding binding = route::resolvePolicyBinding(
                *device, *peer, route::Direction::kImport);
            if (binding.bound) {
              const route::PolicyVerdict verdict = route::applyRoutePolicy(
                  *device, binding.policy, announced, own_asn);
              if (!verdict.permitted) {
                AbsenceReason reason;
                reason.kind = AbsenceReason::Kind::kImportDenied;
                reason.router = current;
                reason.neighbor = neighbor;
                reason.detail = "import policy " + binding.policy +
                                " denies " + prefix.str();
                reason.lines = binding.lines;
                reason.lines.insert(reason.lines.end(), verdict.lines.begin(),
                                    verdict.lines.end());
                out.reasons.push_back(std::move(reason));
                continue;
              }
            }
          }
        }
      };

  explain(router);
  return out;
}

}  // namespace acr::prov
