#include "dataplane/trace.hpp"

namespace acr::dp {

std::string traceOutcomeName(TraceOutcome outcome) {
  switch (outcome) {
    case TraceOutcome::kDelivered:
      return "delivered";
    case TraceOutcome::kDroppedByPbr:
      return "dropped-by-pbr";
    case TraceOutcome::kBlackhole:
      return "blackhole";
    case TraceOutcome::kLoop:
      return "loop";
    case TraceOutcome::kNoIngress:
      return "no-ingress";
  }
  return "?";
}

std::set<cfg::LineId> TraceResult::coveredLines(
    const prov::ProvenanceGraph& provenance) const {
  std::set<cfg::LineId> lines;
  for (const Hop& hop : hops) {
    lines.insert(hop.lines.begin(), hop.lines.end());
    if (hop.derivation != prov::kNoDerivation) {
      provenance.collectLines(hop.derivation, lines);
    }
  }
  return lines;
}

std::string TraceResult::str() const {
  std::string out = traceOutcomeName(outcome);
  if (destination_flapping) out += " (flapping)";
  out += ": ";
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (i != 0) out += " -> ";
    out += hops[i].router;
  }
  if (!detail.empty()) out += " [" + detail + "]";
  return out;
}

namespace {

/// One forwarding decision at `current`. Either terminal (outcome decided)
/// or the next router.
struct Step {
  Hop hop;
  bool terminal = true;
  TraceOutcome outcome = TraceOutcome::kBlackhole;
  std::string detail;
  std::string next;
};

Step stepAt(const topo::Network& network, const route::SimResult& sim,
            const std::string& current, const net::FiveTuple& packet) {
  Step step;
  step.hop.router = current;

  const cfg::DeviceConfig* device = network.config(current);
  if (device == nullptr) {
    step.outcome = TraceOutcome::kBlackhole;
    step.detail = "unknown router " + current;
    return step;
  }

  // Policy-based routing first: the first matching rule across the device's
  // PBR policies (in configuration order) decides.
  const cfg::PbrRule* pbr_hit = nullptr;
  for (const auto& policy : device->pbr_policies) {
    for (const auto& rule : policy.rules) {
      step.hop.lines.push_back(cfg::LineId{current, rule.line});
      if (rule.matches(packet.src, packet.dst)) {
        pbr_hit = &rule;
        break;
      }
    }
    if (pbr_hit != nullptr) break;
  }
  if (pbr_hit != nullptr && pbr_hit->action == cfg::PbrAction::kDeny) {
    step.outcome = TraceOutcome::kDroppedByPbr;
    step.detail = "pbr deny at " + current;
    return step;
  }
  if (pbr_hit != nullptr && pbr_hit->action == cfg::PbrAction::kRedirect) {
    const net::Ipv4Address target = pbr_hit->redirect_next_hop;
    const auto next_router = network.topology.routerAt(target);
    if (!next_router) {
      // Redirect towards a non-router address: the packet leaves the routed
      // fabric and is lost.
      step.outcome = TraceOutcome::kBlackhole;
      step.detail =
          "pbr redirect at " + current + " to non-router " + target.str();
      return step;
    }
    step.terminal = false;
    step.next = *next_router;
    return step;
  }

  // FIB longest-prefix match.
  const route::Route* route = sim.lookup(current, packet.dst);
  if (route == nullptr) {
    step.outcome = TraceOutcome::kBlackhole;
    step.detail = "no route for " + packet.dst.str() + " at " + current;
    return step;
  }
  step.hop.derivation = route->derivation;

  if (route->source == route::RouteSource::kConnected) {
    step.outcome = TraceOutcome::kDelivered;
    step.detail = "delivered on " + route->prefix.str();
    return step;
  }
  if (route->source == route::RouteSource::kStatic) {
    const auto next_router = network.topology.routerAt(route->next_hop);
    if (!next_router) {
      // Static next hop is a host (e.g. a load balancer) on a connected
      // subnet: the packet is handed off and counts as delivered.
      step.outcome = TraceOutcome::kDelivered;
      step.detail = "handed to host " + route->next_hop.str();
      return step;
    }
    step.terminal = false;
    step.next = *next_router;
    return step;
  }

  // BGP route: forward to the advertising neighbor.
  step.terminal = false;
  step.next = route->learned_from;
  return step;
}

}  // namespace

TraceResult DataPlane::trace(const net::FiveTuple& packet) const {
  const auto ingress = network_.topology.subnetOwner(packet.src);
  if (!ingress) {
    TraceResult result;
    result.outcome = TraceOutcome::kNoIngress;
    result.detail = "no subnet owns source " + packet.src.str();
    return result;
  }
  return traceFrom(*ingress, packet);
}

TraceResult DataPlane::traceFrom(const std::string& ingress,
                                 const net::FiveTuple& packet) const {
  TraceResult result;
  result.destination_flapping = sim_.isFlapping(packet.dst);

  std::set<std::string> visited;
  std::string current = ingress;
  constexpr int kMaxHops = 64;

  for (int hop_count = 0; hop_count < kMaxHops; ++hop_count) {
    if (!visited.insert(current).second) {
      result.outcome = TraceOutcome::kLoop;
      result.detail = "revisited " + current;
      return result;
    }
    Step step = stepAt(network_, sim_, current, packet);
    result.hops.push_back(std::move(step.hop));
    if (step.terminal) {
      result.outcome = step.outcome;
      result.detail = std::move(step.detail);
      return result;
    }
    current = std::move(step.next);
  }

  result.outcome = TraceOutcome::kLoop;
  result.detail = "hop limit exceeded";
  return result;
}

}  // namespace acr::dp
