#include "localize/sbfl.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "obs/trace.hpp"

namespace acr::sbfl {

std::string metricName(Metric metric) {
  switch (metric) {
    case Metric::kTarantula:
      return "tarantula";
    case Metric::kOchiai:
      return "ochiai";
    case Metric::kJaccard:
      return "jaccard";
    case Metric::kDstar2:
      return "dstar2";
    case Metric::kOp2:
      return "op2";
    case Metric::kKulczynski2:
      return "kulczynski2";
    case Metric::kRandom:
      return "random";
  }
  return "?";
}

std::optional<Metric> metricByName(const std::string& name) {
  for (const Metric metric :
       {Metric::kTarantula, Metric::kOchiai, Metric::kJaccard,
        Metric::kDstar2, Metric::kOp2, Metric::kKulczynski2,
        Metric::kRandom}) {
    if (metricName(metric) == name) return metric;
  }
  return std::nullopt;
}

const std::vector<Metric>& allMetrics() {
  static const std::vector<Metric> kMetrics = {
      Metric::kTarantula, Metric::kOchiai,       Metric::kJaccard,
      Metric::kDstar2,    Metric::kOp2,          Metric::kKulczynski2};
  return kMetrics;
}

void Spectrum::addRow(const CoverageBits& row, bool passed) {
  if (passed) {
    ++total_passed_;
  } else {
    ++total_failed_;
  }
  std::vector<int>& bumped = passed ? passed_ : failed_;
  row.forEachSet([&](int id) {
    const auto idx = static_cast<std::size_t>(id);
    if (idx >= bumped.size()) bumped.resize(idx + 1, 0);
    if (++bumped[idx] == 1) {
      const std::vector<int>& other = passed ? failed_ : passed_;
      if (idx >= other.size() || other[idx] == 0) ++covered_;
    }
  });
}

double Spectrum::scoreCounts(const Counts& counts, Metric metric,
                             const cfg::LineId& line,
                             std::uint64_t seed) const {
  const double f = counts.failed;
  const double p = counts.passed;
  const double F = total_failed_;
  const double P = total_passed_;
  switch (metric) {
    case Metric::kTarantula: {
      // Equation 1 of the paper.
      if (F == 0) return 0.0;
      const double fr = f / F;
      const double pr = P == 0 ? 0.0 : p / P;
      if (fr + pr == 0.0) return 0.0;
      return fr / (pr + fr);
    }
    case Metric::kOchiai: {
      const double denom = std::sqrt(F * (f + p));
      return denom == 0.0 ? 0.0 : f / denom;
    }
    case Metric::kJaccard: {
      const double denom = F + p;
      return denom == 0.0 ? 0.0 : f / denom;
    }
    case Metric::kDstar2: {
      const double denom = p + (F - f);
      if (denom == 0.0) return f == 0.0 ? 0.0 : 1e9;
      return (f * f) / denom;
    }
    case Metric::kOp2: {
      // Scores can be negative (p-heavy lines); rank order is what matters.
      return f - p / (P + 1.0);
    }
    case Metric::kKulczynski2: {
      if (F == 0 || f + p == 0) return 0.0;
      return 0.5 * (f / F + f / (f + p));
    }
    case Metric::kRandom: {
      const std::size_t h =
          std::hash<std::string>{}(line.str() + '#' + std::to_string(seed));
      return static_cast<double>(h % 10000) / 10000.0;
    }
  }
  return 0.0;
}

double Spectrum::score(const cfg::LineId& line, Metric metric,
                       std::uint64_t seed) const {
  const int id = lines_.idOf(line);
  if (id < 0) return 0.0;
  const Counts counts = countsOf(id);
  if (counts.failed + counts.passed == 0) return 0.0;
  return scoreCounts(counts, metric, line, seed);
}

std::vector<LineScore> Spectrum::rank(Metric metric, std::uint64_t seed) const {
  obs::Span span("sbfl.rank");
  span.attr("lines", static_cast<std::int64_t>(covered_));
  std::vector<LineScore> scores;
  scores.reserve(covered_);
  const int ids = static_cast<int>(lines_.size());
  for (int id = 0; id < ids; ++id) {
    const Counts counts = countsOf(id);
    if (counts.failed + counts.passed == 0) continue;
    LineScore score;
    score.line = lines_.lineOf(id);
    score.suspiciousness = scoreCounts(counts, metric, score.line, seed);
    score.failed_cover = counts.failed;
    score.passed_cover = counts.passed;
    scores.push_back(score);
  }
  std::sort(scores.begin(), scores.end(),
            [](const LineScore& a, const LineScore& b) {
              if (a.suspiciousness != b.suspiciousness) {
                return a.suspiciousness > b.suspiciousness;
              }
              return a.line < b.line;
            });
  return scores;
}

std::vector<LineScore> Spectrum::mostSuspicious(Metric metric,
                                                std::uint64_t seed) const {
  std::vector<LineScore> ranked = rank(metric, seed);
  if (ranked.empty()) return ranked;
  const double top = ranked.front().suspiciousness;
  std::vector<LineScore> out;
  for (const auto& score : ranked) {
    if (score.suspiciousness < top) break;
    out.push_back(score);
  }
  return out;
}

std::vector<std::string> suspectDevices(const std::vector<LineScore>& ranked,
                                        double threshold) {
  std::vector<std::string> devices;
  double top = 0.0;
  for (const auto& score : ranked) {
    if (score.failed_cover == 0) continue;
    top = score.suspiciousness;
    break;
  }
  if (top <= 0.0) return devices;
  for (const auto& score : ranked) {
    if (score.failed_cover == 0) continue;
    if (score.suspiciousness < threshold * top) continue;
    if (std::find(devices.begin(), devices.end(), score.line.device) ==
        devices.end()) {
      devices.push_back(score.line.device);
    }
  }
  return devices;
}

}  // namespace acr::sbfl
