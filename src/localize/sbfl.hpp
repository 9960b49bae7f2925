// Spectrum-Based Fault Localization over configuration lines.
//
// The spectrum counts, per line, how many passing and failing tests covered
// it; a suspiciousness formula turns the counts into a 0..1 score (§4.1,
// Equation 1). Tarantula is the paper's choice; Ochiai, Jaccard and DStar(2)
// are the §6 alternatives, and Random is the ablation floor.
//
// Storage is dense: config lines are interned into a LineTable and coverage
// is a dynamic bitset over the interned ids, so pass/fail tallies are flat
// int arrays instead of string-keyed maps. Ranking materializes LineIds only
// at the sort boundary, so the ranked output is byte-identical to the old
// map-based implementation regardless of interning order. A Spectrum is not
// thread-safe — LOCALIZE is sequential per candidate, mirroring the engine.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "config/ast.hpp"

namespace acr::sbfl {

enum class Metric : std::uint8_t {
  kTarantula,
  kOchiai,
  kJaccard,
  kDstar2,
  kOp2,          // Naish et al.: f - p/(P+1); optimal for single faults
  kKulczynski2,  // 0.5 * (f/F + f/(f+p))
  kRandom,
};

[[nodiscard]] std::string metricName(Metric metric);

/// Inverse of metricName (includes "random"); nullopt for unknown names.
/// The one metric-flag parser, shared by `acrctl` and the repair service.
[[nodiscard]] std::optional<Metric> metricByName(const std::string& name);

/// All metrics (excluding kRandom) in declaration order, for sweeps.
[[nodiscard]] const std::vector<Metric>& allMetrics();

struct LineScore {
  cfg::LineId line;
  double suspiciousness = 0.0;
  int failed_cover = 0;  // failed(s)
  int passed_cover = 0;  // passed(s)
};

/// One test's coverage as a dynamic bitset over interned line ids.
class CoverageBits {
 public:
  void set(int id) {
    const auto word = static_cast<std::size_t>(id) >> 6;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    words_[word] |= std::uint64_t{1} << (static_cast<std::size_t>(id) & 63);
  }
  [[nodiscard]] bool test(int id) const {
    const auto word = static_cast<std::size_t>(id) >> 6;
    return word < words_.size() &&
           (words_[word] >> (static_cast<std::size_t>(id) & 63) & 1) != 0;
  }
  /// Visits set ids in ascending order.
  template <class Fn>
  void forEachSet(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(static_cast<int>(w * 64) + bit);
        word &= word - 1;
      }
    }
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// Append-only interner of config LineIds; ids never leak into ranked
/// output, which materializes LineIds.
class LineTable {
 public:
  int intern(const cfg::LineId& line) {
    const auto [it, inserted] =
        index_.try_emplace(line, static_cast<int>(lines_.size()));
    if (inserted) lines_.push_back(line);
    return it->second;
  }
  /// -1 when the line was never interned.
  [[nodiscard]] int idOf(const cfg::LineId& line) const {
    const auto it = index_.find(line);
    return it == index_.end() ? -1 : it->second;
  }
  [[nodiscard]] const cfg::LineId& lineOf(int id) const {
    return lines_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::size_t size() const { return lines_.size(); }

  /// Interns every line of a coverage set into one dense row.
  [[nodiscard]] CoverageBits internRow(const std::set<cfg::LineId>& lines) {
    CoverageBits row;
    for (const auto& line : lines) row.set(intern(line));
    return row;
  }

 private:
  std::vector<cfg::LineId> lines_;
  std::map<cfg::LineId, int> index_;
};

class Spectrum {
 public:
  /// Records one test's coverage and verdict.
  void addTest(const std::set<cfg::LineId>& covered, bool passed) {
    addRow(lines_.internRow(covered), passed);
  }

  [[nodiscard]] int totalPassed() const { return total_passed_; }
  [[nodiscard]] int totalFailed() const { return total_failed_; }

  /// Suspiciousness of one line under `metric`.
  [[nodiscard]] double score(const cfg::LineId& line, Metric metric,
                             std::uint64_t seed = 0) const;

  /// Every covered line ranked by descending suspiciousness (ties broken by
  /// line id for determinism). Single pass over the dense id space.
  [[nodiscard]] std::vector<LineScore> rank(Metric metric,
                                            std::uint64_t seed = 0) const;

  /// The top-scoring lines only (all lines sharing the maximum score).
  [[nodiscard]] std::vector<LineScore> mostSuspicious(
      Metric metric, std::uint64_t seed = 0) const;

  [[nodiscard]] std::size_t coveredLineCount() const { return covered_; }

 private:
  struct Counts {
    int failed = 0;
    int passed = 0;
  };
  [[nodiscard]] Counts countsOf(int id) const {
    const auto idx = static_cast<std::size_t>(id);
    return Counts{idx < failed_.size() ? failed_[idx] : 0,
                  idx < passed_.size() ? passed_[idx] : 0};
  }
  [[nodiscard]] double scoreCounts(const Counts& counts, Metric metric,
                                   const cfg::LineId& line,
                                   std::uint64_t seed) const;
  void addRow(const CoverageBits& row, bool passed);

  LineTable lines_;
  std::vector<int> failed_;  // by interned line id
  std::vector<int> passed_;
  std::size_t covered_ = 0;  // ids with failed + passed > 0
  int total_passed_ = 0;
  int total_failed_ = 0;
};

/// Devices hot enough to symbolize (the selective-symbolic layer's device
/// gate): a device qualifies when its best failure-covered line scores at
/// least `threshold` × the global best score. Returned in rank order (first
/// qualifying line decides a device's position); empty when nothing in
/// `ranked` covers a failure.
[[nodiscard]] std::vector<std::string> suspectDevices(
    const std::vector<LineScore>& ranked, double threshold);

}  // namespace acr::sbfl
