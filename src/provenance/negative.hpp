// Negative provenance: explaining the *absence* of a route (Y!, NSDI'14 —
// the paper's citation [26] for provenance-based coverage).
//
// Positive provenance answers "which config lines produced this route";
// SBFL additionally needs "which config lines are responsible for this
// route NOT existing" when a test blackholes. explainAbsence() walks
// backwards from the router that lacked the route, across every neighbor
// that could have supplied it, and blames the first obstacle on each path:
//
//   * kSessionDown       — the BGP session that would carry it is down
//   * kNotRedistributed  — the origin has the route but no redistribute
//   * kExportDenied      — the neighbor's export policy dropped it
//   * kImportDenied      — this router's import policy dropped it
//   * kLoopRejected      — receiver-side AS-path loop prevention fired
//   * kNoOrigination     — the expected origin has no interface/static route
//   * kNeighborLacksRoute— recursion: the neighbor is missing it too
//
// Every reason carries the configuration lines an operator (or SBFL) should
// look at. The union of lines over all frontier reasons is the negative
// coverage of a blackholed test.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "provenance/provenance.hpp"
#include "routing/simulator.hpp"
#include "topo/network.hpp"

namespace acr::prov {

struct AbsenceReason {
  enum class Kind : std::uint8_t {
    kNoOrigination,
    kNotRedistributed,
    kSessionDown,
    kExportDenied,
    kImportDenied,
    kLoopRejected,
    kNeighborLacksRoute,
  };
  Kind kind = Kind::kNeighborLacksRoute;
  std::string router;    // where the obstacle sits
  std::string neighbor;  // the would-be supplier (when applicable)
  std::vector<cfg::LineId> lines;
  std::string detail;

  [[nodiscard]] std::string str() const;
};

[[nodiscard]] std::string absenceKindName(AbsenceReason::Kind kind);

struct AbsenceExplanation {
  std::vector<AbsenceReason> reasons;

  [[nodiscard]] std::set<cfg::LineId> lines() const;
  [[nodiscard]] bool blames(AbsenceReason::Kind kind) const;
  [[nodiscard]] std::string str() const;
};

/// Why does `router` have no route for `prefix`? Requires the simulation the
/// question is about (sessions + RIBs are read from it).
[[nodiscard]] AbsenceExplanation explainAbsence(const topo::Network& network,
                                                const route::SimResult& sim,
                                                const std::string& router,
                                                const net::Prefix& prefix);

}  // namespace acr::prov
