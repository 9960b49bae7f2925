// Umbrella header: the public API of the ACR library.
//
// Typical use (see examples/quickstart.cpp):
//
//   acr::Scenario scenario = acr::figure2Scenario(/*faulty=*/true);
//   acr::repair::RepairResult result =
//       acr::repairNetwork(scenario.network(), scenario.intents);
//   std::cout << result.summary();
#pragma once

#include "config/ast.hpp"
#include "config/cisco.hpp"
#include "config/diff.hpp"
#include "config/parser.hpp"
#include "core/campaign.hpp"
#include "core/scenarios.hpp"
#include "core/serialization.hpp"
#include "dataplane/trace.hpp"
#include "faultinject/faults.hpp"
#include "fixgen/change.hpp"
#include "fixgen/history.hpp"
#include "localize/coverage.hpp"
#include "localize/sbfl.hpp"
#include "netcore/five_tuple.hpp"
#include "netcore/ipv4.hpp"
#include "netcore/prefix.hpp"
#include "netcore/prefix_trie.hpp"
#include "provenance/negative.hpp"
#include "provenance/provenance.hpp"
#include "repair/baselines.hpp"
#include "repair/engine.hpp"
#include "repair/report.hpp"
#include "repair/searchspace.hpp"
#include "routing/simulator.hpp"
#include "smt/solver.hpp"
#include "topo/generators.hpp"
#include "topo/network.hpp"
#include "verify/failures.hpp"
#include "verify/incremental.hpp"
#include "verify/verifier.hpp"
