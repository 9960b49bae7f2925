#include "spans.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace e2e {

std::map<std::string, SpanTotals> spanTotals(
    const std::vector<acr::obs::SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent_id != 0) children[spans[i].parent_id].push_back(i);
  }

  std::map<std::string, SpanTotals> totals;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
  for (const auto& span : spans) {
    const std::uint64_t begin = span.start_us;
    const std::uint64_t end = span.start_us + span.dur_us;
    std::uint64_t covered = 0;
    if (const auto it = children.find(span.span_id); it != children.end()) {
      intervals.clear();
      for (const std::size_t c : it->second) {
        const std::uint64_t cb = std::max(begin, spans[c].start_us);
        const std::uint64_t ce =
            std::min(end, spans[c].start_us + spans[c].dur_us);
        if (cb < ce) intervals.emplace_back(cb, ce);
      }
      std::sort(intervals.begin(), intervals.end());
      std::uint64_t reach = begin;
      for (const auto& [cb, ce] : intervals) {
        const std::uint64_t from = std::max(cb, reach);
        if (ce > from) {
          covered += ce - from;
          reach = ce;
        }
      }
    }
    SpanTotals& entry = totals[span.name];
    ++entry.count;
    entry.total_ms += static_cast<double>(span.dur_us) / 1000.0;
    entry.self_ms += static_cast<double>(span.dur_us - covered) / 1000.0;
  }
  return totals;
}

}  // namespace e2e
