// Data-plane packet tracing over the simulated FIBs.
//
// A trace starts at the router owning the packet's source subnet and follows
// best-route forwarding hop by hop. At every router the device's PBR
// policies are consulted first (permit → FIB, deny → drop, redirect →
// forward to the redirect next hop); then the longest-prefix FIB match
// decides the next hop. Outcomes distinguish delivery, PBR drops,
// blackholes (no route / unresolvable next hop), and forwarding loops.
//
// Every hop records the config lines it exercised (PBR rules evaluated, the
// derivation of the route used), which is the raw material of SBFL coverage.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "netcore/five_tuple.hpp"
#include "routing/simulator.hpp"
#include "topo/network.hpp"

namespace acr::dp {

enum class TraceOutcome {
  kDelivered,
  kDroppedByPbr,
  kBlackhole,
  kLoop,
  kNoIngress,  // source address is not on any known subnet
};

[[nodiscard]] std::string traceOutcomeName(TraceOutcome outcome);

struct Hop {
  std::string router;
  prov::DerivationId derivation = prov::kNoDerivation;  // route used (if any)
  std::vector<cfg::LineId> lines;  // PBR rules + local attribution
};

struct TraceResult {
  TraceOutcome outcome = TraceOutcome::kBlackhole;
  std::vector<Hop> hops;
  std::string detail;
  /// The destination lies in a prefix the control plane never stabilised
  /// on — the paper's route-flapping symptom. Set independently of the
  /// forwarding outcome (which reflects one representative FIB state).
  bool destination_flapping = false;

  [[nodiscard]] bool delivered() const {
    return outcome == TraceOutcome::kDelivered && !destination_flapping;
  }

  /// All config lines exercised by the trace: per-hop PBR lines plus the
  /// full derivation chains of every route used.
  [[nodiscard]] std::set<cfg::LineId> coveredLines(
      const prov::ProvenanceGraph& provenance) const;

  [[nodiscard]] std::string str() const;
};

class DataPlane {
 public:
  DataPlane(const topo::Network& network, const route::SimResult& sim)
      : network_(network), sim_(sim) {}

  /// Traces from the router owning the packet's source address.
  [[nodiscard]] TraceResult trace(const net::FiveTuple& packet) const;

  /// Traces from an explicit ingress router.
  [[nodiscard]] TraceResult traceFrom(const std::string& ingress,
                                      const net::FiveTuple& packet) const;

 private:
  const topo::Network& network_;
  const route::SimResult& sim_;
};

}  // namespace acr::dp
