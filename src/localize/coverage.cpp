#include "localize/coverage.hpp"

#include "provenance/negative.hpp"

namespace acr::sbfl {

std::set<cfg::LineId> coverageOf(const topo::Network& network,
                                 const route::SimResult& sim,
                                 const verify::TestResult& result) {
  std::set<cfg::LineId> lines = result.trace.coveredLines(sim.provenance);
  const net::Ipv4Address dst = result.test.packet.dst;

  // A flapping destination exercises every derivation in the oscillation
  // cycle, not just the representative final state.
  if (result.trace.destination_flapping) {
    for (const auto& prefix : sim.flapping) {
      if (prefix.contains(dst)) {
        sim.provenance.collectLinesForPrefix(prefix, lines);
      }
    }
  }

  // A blackhole means a route is *missing*: negative provenance (Y!-style)
  // walks back from the router that lacked it and blames the exact obstacle
  // lines (down sessions, denying policies, missing redistribution).
  if (result.trace.outcome == dp::TraceOutcome::kBlackhole &&
      !result.trace.hops.empty()) {
    for (const auto& subnet : network.topology.subnets()) {
      if (!subnet.prefix.contains(dst)) continue;
      const prov::AbsenceExplanation explanation = prov::explainAbsence(
          network, sim, result.trace.hops.back().router, subnet.prefix);
      const auto blamed = explanation.lines();
      lines.insert(blamed.begin(), blamed.end());
      break;
    }
  }

  // Destination-side origination context.
  const auto owner = network.topology.subnetOwner(dst);
  if (owner) {
    const cfg::DeviceConfig* device = network.config(*owner);
    if (device != nullptr) {
      for (const auto& itf : device->interfaces) {
        if (itf.connectedPrefix().contains(dst)) {
          lines.insert(cfg::LineId{*owner, itf.ip_line});
        }
      }
      for (const auto& sr : device->static_routes) {
        if (sr.prefix.contains(dst)) {
          lines.insert(cfg::LineId{*owner, sr.line});
        }
      }
      if (device->bgp) {
        for (const auto& redist : device->bgp->redistributes) {
          lines.insert(cfg::LineId{*owner, redist.line});
        }
      }
    }
  }
  return lines;
}

SuiteRun runSuite(const topo::Network& network, const route::SimResult& sim,
                  const verify::Verifier& verifier,
                  const std::vector<verify::TestCase>& tests) {
  SuiteRun run;
  run.results = verifier.runTests(network, sim, tests);
  run.coverage.reserve(run.results.size());
  for (const verify::TestResult& result : run.results) {
    run.coverage.push_back(coverageOf(network, sim, result));
    run.spectrum.addTest(run.coverage.back(), result.passed);
  }
  return run;
}

}  // namespace acr::sbfl
