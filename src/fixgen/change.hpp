// Change operators: the building blocks of fix generation (§4.2).
//
// A ChangeTemplate inspects a suspicious configuration line (plus the full
// repair context: network, simulation, test outcomes, coverage) and proposes
// zero or more concrete candidate changes. Templates encode the repair
// patterns distilled from the paper's incident study (Table 1); atomic
// operators (insert / delete / modify / copy-with-symbolization) live inside
// their apply closures. Values that must be "solved rather than copied" are
// produced by acr::smt from P ∧ ¬F constraints collected out of test
// coverage (§5 step 2).
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "config/ast.hpp"
#include "localize/sbfl.hpp"
#include "routing/simulator.hpp"
#include "topo/network.hpp"
#include "verify/verifier.hpp"

namespace acr::fix {

/// Everything a template may consult when proposing changes.
struct RepairContext {
  const topo::Network& network;
  const route::SimResult& sim;
  const std::vector<verify::Intent>& intents;
  const std::vector<verify::TestResult>& results;
  /// Per-test coverage, parallel to `results`.
  const std::vector<std::set<cfg::LineId>>& coverage;

  [[nodiscard]] const verify::Intent& intentOf(
      const verify::TestResult& result) const {
    return intents[static_cast<std::size_t>(result.test.intent_index)];
  }
};

/// One concrete candidate change. `apply` mutates a copy of the network
/// (returning false when the edit no longer applies, e.g. the targeted
/// statement disappeared in an earlier evolution step) and must leave the
/// config renumbered.
struct ProposedChange {
  std::string template_name;
  std::string description;
  std::function<bool(topo::Network&)> apply;
};

class ChangeTemplate {
 public:
  virtual ~ChangeTemplate() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Quick filter: does this template speak to lines of this kind at all?
  [[nodiscard]] virtual bool appliesTo(cfg::LineKind kind) const = 0;

  /// Proposes concrete changes for `suspicious` (already resolved to `info`).
  [[nodiscard]] virtual std::vector<ProposedChange> propose(
      const RepairContext& context, const cfg::LineId& suspicious,
      const cfg::LineInfo& info) const = 0;
};

/// The built-in template library covering the nine Table-1 error types.
[[nodiscard]] const std::vector<std::shared_ptr<const ChangeTemplate>>&
defaultTemplates();

/// Templates applicable to a given line kind.
[[nodiscard]] std::vector<std::shared_ptr<const ChangeTemplate>> templatesFor(
    cfg::LineKind kind);

// ---------------------------------------------------------------------------
// Shared helpers used by template implementations (and tested directly).
// ---------------------------------------------------------------------------

/// The topology subnet containing `address`, or a /32 fallback.
[[nodiscard]] net::Prefix subnetPrefixOf(const topo::Network& network,
                                         net::Ipv4Address address);

/// Collects the P/F prefix constraints for a symbolized prefix-list (§5):
/// destinations of *passing* tests whose coverage touches the list become
/// Member constraints (the rewrite scope must keep covering them) and
/// destinations of *failing* tests become NotMember constraints.
struct PrefixListConstraints {
  std::vector<net::Prefix> required;   // P
  std::vector<net::Prefix> forbidden;  // F
};

[[nodiscard]] PrefixListConstraints collectListConstraints(
    const RepairContext& context, const std::string& device,
    const cfg::PrefixList& list);

/// Solves P ∧ ¬F into a minimal prefix cover; empty optional when unsat.
[[nodiscard]] std::optional<std::vector<net::Prefix>> solveListModel(
    const PrefixListConstraints& constraints);

/// Prefix-lists reachable from a suspicious line: the list itself, or the
/// lists referenced by the policy node / policy / binding the line belongs
/// to. Sorted and deduplicated.
[[nodiscard]] std::vector<std::string> reachableLists(
    const cfg::DeviceConfig& device, const cfg::LineInfo& info);

// ---------------------------------------------------------------------------
// Symbolic model changes (src/symbolic): one satisfying SMT model rendered
// as a single multi-line, multi-device ConfigChange.
// ---------------------------------------------------------------------------

/// One prefix-list rewritten to permit exactly `cover` (entries rebuilt as
/// `permit <piece> ge <len> le 32`, indices 10,20,...).
struct SymbolicListEdit {
  std::string device;
  std::string list;
  std::vector<net::Prefix> cover;
};

/// One policy action's value replaced (local-pref / MED repair).
struct SymbolicActionEdit {
  std::string device;
  std::string policy;
  int node_index = 0;
  cfg::PolicyActionKind kind = cfg::PolicyActionKind::kSetLocalPref;
  std::uint32_t value = 0;
};

/// Builds the "symbolic-model" proposal applying every edit atomically. The
/// apply closure fails (returns false) when any targeted list/policy/action
/// no longer exists — the same disappeared-statement contract as template
/// proposals. Edits are applied in the given order; the description renders
/// them deterministically.
[[nodiscard]] ProposedChange buildSymbolicModelChange(
    std::vector<SymbolicListEdit> list_edits,
    std::vector<SymbolicActionEdit> action_edits);

// Per-file template factories (grouped by the Table-1 category they repair).
[[nodiscard]] std::shared_ptr<const ChangeTemplate> makeNarrowOverrideList();
[[nodiscard]] std::shared_ptr<const ChangeTemplate> makeAddPrefixListEntry();
[[nodiscard]] std::shared_ptr<const ChangeTemplate> makeFixOverrideAsn();
[[nodiscard]] std::shared_ptr<const ChangeTemplate> makeAddStaticRoute();
[[nodiscard]] std::shared_ptr<const ChangeTemplate> makeAddRedistribute();
[[nodiscard]] std::shared_ptr<const ChangeTemplate> makeAddPbrPermit();
[[nodiscard]] std::shared_ptr<const ChangeTemplate> makeRemovePbrRule();
[[nodiscard]] std::shared_ptr<const ChangeTemplate> makeRestorePeerGroup();
[[nodiscard]] std::shared_ptr<const ChangeTemplate> makeRemoveGroupMember();
[[nodiscard]] std::shared_ptr<const ChangeTemplate> makeRemovePolicyBinding();
[[nodiscard]] std::shared_ptr<const ChangeTemplate> makeDenyLeakedPrefix();
[[nodiscard]] std::shared_ptr<const ChangeTemplate> makeRestorePolicy();
[[nodiscard]] std::shared_ptr<const ChangeTemplate> makeFixPeerAs();

}  // namespace acr::fix
