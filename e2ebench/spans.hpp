// Self time per span name from an in-memory obs::Tracer collection.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace e2e {

struct SpanTotals {
  std::uint64_t count = 0;
  double total_ms = 0;  // sum of span durations
  double self_ms = 0;   // sum of (duration - time covered by child spans)
};

/// A span's self time is its duration minus the union of its children's
/// intervals clipped to it; children on other threads (VALIDATE fan-out,
/// service workers) count the same as children on the span's own thread.
[[nodiscard]] std::map<std::string, SpanTotals> spanTotals(
    const std::vector<acr::obs::SpanRecord>& spans);

}  // namespace e2e
