// Incremental ("delta") control-plane simulation as a shared delta tree.
//
// A repair-engine candidate edit touches one or two devices; re-converging
// the whole network from locals-only round 0 to score it repeats work the
// converged anchor already paid for. The DeltaTree restarts the synchronous
// orbit *at* the anchor fixpoint instead: the routers whose configs changed
// (plus their session neighbors, whose imports may now differ) are
// recomputed wholesale, and from there only dirty (router, prefix) work
// items propagate along session flows until no best route changes — work
// proportional to the edit's blast radius, not the network.
//
// The candidates of one VALIDATE batch also share most of their edits
// (the *base* — e.g. the population candidate every proposal forks from),
// so the tree propagates that shared prefix once:
//
//     anchor fixpoint ── setBase(shared edits, propagated once)
//                            ├── leaf(candidate 1)
//                            ├── leaf(candidate 2)
//                            └── ...
//
// A one-shot delta run is a one-leaf tree: run() evaluates a single leaf
// and moves its fixpoint out instead of rolling it back.
//
// Forking is copy-on-write over the anchor's RIB "pages": one working RIB
// is mutated in place, with a first-touch undo log per tree level
// recording the pre-image of every (router, prefix) entry a propagation
// touches. Rolling a leaf back restores exactly the touched entries (and
// the incremental RIB hash from its checkpoint), so evaluating a leaf
// costs its own blast radius twice (apply + undo) — never a full RIB copy
// or a re-propagation of the base segment. The SimResult's lazily built
// longest-prefix-match pages are dropped only for touched routers
// (SimResult::dropLookupPages), so untouched routers keep amortizing their
// tries across every leaf of the batch.
//
// Byte-identity contract: for each leaf the visitor (or run()'s caller)
// observes `rib`, `converged`, `flapping` and `sessions` identical to a
// from-scratch `Simulator(leaf_network).run(options)`. This holds because
// both engines share one transfer function (routing/sim_engine.hpp) and a
// converged anchor is a fixpoint of it: un-dirty entries are already at
// their post-change value. Whenever the premise is not airtight the leaf
// runs the full engine instead — the fallback rules, scoped to the level
// that violates them (docs/architecture.md §12): anchor-level violations
// (provenance anchor missing, anchor not converged) disable the whole
// tree; base-level violations (topology shape / device set / session state
// changed, oscillation, round cap) disable the tree from setBase() on; a
// leaf-level violation (the same conditions, plus provenance divergence)
// falls back to a full simulation for that leaf only, without poisoning its
// siblings. `rounds` reflects only the leaf's own propagation segment and
// `announcements` are not reproduced — neither participates in the
// identity contract.
//
// With `record_provenance` on, propagation itself records nothing; each
// leaf then forks the anchor's canonical provenance graph copy-on-write
// and rebuilds derivations only along chain-dirty cells
// (sim_engine.hpp ProvenanceRebuilder), patched through the leaf undo log
// so they roll back with the leaf. Unchanged cells keep the anchor's
// derivation ids byte-for-byte; rebuilt chains are content-equal to a full
// run's. A leaf whose fixpoint cannot be re-derived from its configs falls
// back alone ("provenance-divergence").
//
// Lifetimes: the anchor network/result must outlive the tree; the base
// network must outlive every subsequent leaf() call (patched session flows
// reference its configs); a leaf network only needs to outlive its own
// leaf() call.
//
// Not thread-safe: one DeltaTree per evaluation thread (the repair engine
// builds one verify::CandidateBatch per VALIDATE round).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "netcore/prefix.hpp"
#include "routing/simulator.hpp"
#include "topo/network.hpp"

namespace acr::route {

/// Observability of one leaf — also mirrored into the process-global
/// `sim.tree.*` (leaf()) or `sim.delta.*` (run()) metrics.
struct TreeLeafStats {
  bool used_delta = false;
  std::string fallback_reason;  // empty when used_delta
  int rounds = 0;               // leaf-segment propagation rounds
  /// (router, prefix) recomputations performed across the leaf's rounds.
  std::size_t work_items = 0;
  /// Distinct prefixes that entered the leaf segment's dirty set.
  std::size_t dirty_prefixes = 0;
  /// RIB entries the leaf touched (size of its undo log).
  std::size_t undo_entries = 0;
  /// Exact RIB diff of the leaf fixpoint vs. the anchor: every
  /// (router, prefix) whose entry differs (changed, added or withdrawn),
  /// in router-id order. Derived from the undo logs, so it costs the blast
  /// radius, not a full RIB sweep. Only populated when `used_delta`.
  std::vector<std::pair<std::string, net::Prefix>> changed_vs_anchor;
  /// Canonicalization outcome (provenance runs only): derivations rebuilt
  /// along dirty chains vs. anchor derivations reused byte-for-byte.
  std::size_t fresh_derivations = 0;
  std::size_t reused_derivations = 0;
};

class DeltaTree {
 public:
  /// `anchor` is the simulation of `anchor_network` under `options`; both
  /// must outlive the tree. A violated anchor-level precondition leaves
  /// the tree constructed but unusable (leaves fall back to full runs).
  DeltaTree(const topo::Network& anchor_network, const SimResult& anchor,
            const SimOptions& options = {});
  ~DeltaTree();
  DeltaTree(const DeltaTree&) = delete;
  DeltaTree& operator=(const DeltaTree&) = delete;

  /// False once a tree- or base-level precondition fired; every leaf then
  /// runs the full engine with disabledReason() as its fallback reason.
  [[nodiscard]] bool usable() const;
  [[nodiscard]] const std::string& disabledReason() const;

  /// Installs the edit prefix shared by every candidate and propagates it
  /// once. `changed_vs_anchor` lists the devices on which `base` differs
  /// from the anchor network. Call at most once, before the first leaf();
  /// without a call (or with no changed devices) leaves fork directly off
  /// the anchor. May disable the tree (see usable()).
  void setBase(const topo::Network& base,
               const std::vector<std::string>& changed_vs_anchor);

  /// Runs `visit` against the candidate's fixpoint state, then rolls the
  /// working state back to the base node. `changed_vs_base` lists the
  /// devices on which `network` differs from the base (the anchor when no
  /// base is set). The SimResult reference is only valid inside `visit`.
  using LeafVisitor =
      std::function<void(const SimResult&, const TreeLeafStats&)>;
  void leaf(const topo::Network& network,
            const std::vector<std::string>& changed_vs_base,
            const LeafVisitor& visit);

  /// One-shot form of leaf(): evaluates one leaf and moves its fixpoint
  /// out instead of rolling it back, consuming the tree. The result owns
  /// its RIB pages and (with provenance) its forked graph.
  [[nodiscard]] SimResult run(const topo::Network& network,
                              const std::vector<std::string>& changed_vs_base,
                              TreeLeafStats* stats = nullptr) &&;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace acr::route
