// Selective symbolic simulation (Yang et al., HotNets'24 related work): run
// the repair's FIX step with a *bounded* set of symbolic config fields —
// concrete everywhere except on devices the SBFL ranking marks suspect —
// and solve all of them in one conjunction, so multi-line and multi-device
// faults repair in a single VALIDATE round instead of one template
// iteration per line.
//
// Pipeline (symbolic.cpp orchestrates, vars.cpp and constraints.cpp feed):
//   1. Variable selection: devices scoring above `suspicion_threshold` ×
//      the top suspiciousness become symbolic; on each, the prefix-lists
//      and local-pref/MED policy actions reachable from its suspicious
//      lines become variables (capped at `max_variables`, round-robin
//      across devices so a multi-device fault keeps one variable per
//      device).
//   2. Constraint accumulation: every test whose coverage touches a
//      variable's lines contributes a constraint along its derivation
//      chain — passing tests pin the current behaviour (P), failing tests
//      demand a flip (¬F). Failing tests covered by several variables fork
//      the path condition: the fix may live in any one of them or in all
//      together. Forks are expanded deterministically and capped at
//      `fork_budget`; overflow falls back to the concrete template loop
//      (`fell_back`).
//   3. Each fork is an acr::smt conjunction (cross-variable propagation,
//      minimal-model preference seeded with the original values); each sat
//      model becomes one multi-device `ConfigChange` via
//      fix::buildSymbolicModelChange, scored like every other candidate
//      (a verify::CandidateBatch probe).
//
// Everything here runs on the engine thread before VALIDATE fan-out, so
// recordings and proposals are byte-identical at any --jobs.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "config/ast.hpp"
#include "fixgen/change.hpp"
#include "localize/sbfl.hpp"
#include "smt/solver.hpp"

namespace acr::symb {

struct SymbolicOptions {
  /// A device is symbolized when its best failure-covered line scores at
  /// least this fraction of the global top suspiciousness.
  double suspicion_threshold = 0.5;
  /// Cap on simultaneous symbolic variables (solver conjunction width).
  int max_variables = 4;
  /// Cap on path-condition forks (solver queries) per round; overflow
  /// falls back to the concrete template loop.
  int fork_budget = 8;
};

/// One symbolized config field.
struct SymbolicVar {
  enum class Kind : std::uint8_t { kPrefixList, kLocalPref, kMed };
  Kind kind = Kind::kPrefixList;
  std::string name;    // "pl:<dev>/<list>" | "lp:<dev>/<policy>/<node>" | "med:..."
  std::string device;
  int line = 0;        // representative config line (entry/match/action)
  /// Config lines identified with this variable: list entries plus the
  /// match/node lines referencing the list, or the policy action line.
  std::set<cfg::LineId> lines;
  // Prefix-list variables:
  std::string list;
  std::vector<net::Prefix> original_prefixes;  // current permit entries
  // Int variables:
  std::string policy;
  int node_index = 0;
  std::uint32_t original_value = 0;

  [[nodiscard]] smt::VarKind smtKind() const {
    return kind == Kind::kPrefixList ? smt::VarKind::kPrefixSet
                                     : smt::VarKind::kInt;
  }
};

/// One accumulated constraint, tagged with the polarity that decides
/// whether it is part of the hard base (passing test — preserve behaviour)
/// or a fork choice (failing test — demand a flip somewhere).
struct SymbolicConstraint {
  smt::Constraint constraint;
  bool from_failing = false;
  std::string test;  // intent name, for debugging/recording
};

/// A fork group: the constraints one failing test (or a set of failing
/// tests with the same covered-variable signature) imposes, with one entry
/// per variable that could absorb the flip. The expansion picks either the
/// combined branch (all variables flip) or a single variable's branch.
struct ForkGroup {
  std::vector<std::string> variables;  // covered vars, sorted
  /// Per-variable alternative constraint sets, parallel to `variables`.
  std::vector<std::vector<smt::Constraint>> alternatives;
};

struct SymbolicOutcome {
  std::vector<fix::ProposedChange> proposals;
  int variables = 0;
  int forks = 0;          // solver queries issued
  bool fell_back = false; // no vars, or fork budget exhausted
  /// Anchor for flight-recorder attribution (first variable's site).
  std::string anchor_device;
  int anchor_line = 0;
};

/// Variable selection (vars.cpp).
[[nodiscard]] std::vector<SymbolicVar> collectVariables(
    const fix::RepairContext& context,
    const std::vector<sbfl::LineScore>& ranked,
    const SymbolicOptions& options);

/// Constraint accumulation (constraints.cpp): hard base constraints from
/// passing tests into `base`, fork groups from failing tests into `forks`.
void accumulateConstraints(const fix::RepairContext& context,
                           const std::vector<SymbolicVar>& vars,
                           std::vector<SymbolicConstraint>& base,
                           std::vector<ForkGroup>& forks);

/// The full pipeline: select variables, accumulate constraints, expand
/// forks within budget, solve each conjunction, and render sat models as
/// multi-device proposals. Never throws; an empty outcome with
/// `fell_back == true` means "use the concrete loop".
[[nodiscard]] SymbolicOutcome proposeSymbolic(
    const fix::RepairContext& context,
    const std::vector<sbfl::LineScore>& ranked,
    const SymbolicOptions& options);

}  // namespace acr::symb
