// Shared table/report helpers for the benchmark harnesses.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "tools/cli.hpp"

namespace acr::bench {

/// Positional argument `index` parsed as a T, or `fallback` when it is
/// absent. A malformed value, or one below `least`, is a usage error
/// naming `name` (exit 2). The bench defines acr::cli::usage.
template <typename T>
T positional(int argc, char** argv, int index, const std::string& name,
             T fallback, T least = T{}) {
  if (index >= argc) return fallback;
  const T value = cli::parseNumber<T>(argv[index], name);
  if (value < least) {
    cli::usage((name + " must be at least " + std::to_string(least)).c_str());
  }
  return value;
}

/// Fixed-width text table, printed as the harness accumulates rows.
class Table {
 public:
  explicit Table(std::vector<std::string> headers,
                 std::vector<int> widths = {})
      : headers_(std::move(headers)), widths_(std::move(widths)) {
    if (widths_.empty()) {
      for (const auto& header : headers_) {
        widths_.push_back(static_cast<int>(header.size()) + 4);
      }
    }
  }

  void printHeader() const {
    printRule();
    printRow(headers_);
    printRule();
  }

  void printRow(const std::vector<std::string>& cells) const {
    std::string line = "|";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const int width = i < widths_.size() ? widths_[i] : 12;
      char buffer[256];
      std::snprintf(buffer, sizeof(buffer), " %-*s|", width - 1,
                    cells[i].c_str());
      line += buffer;
    }
    std::puts(line.c_str());
  }

  void printRule() const {
    std::string line = "+";
    for (const int width : widths_) {
      line += std::string(static_cast<std::size_t>(width), '-');
      line += '+';
    }
    std::puts(line.c_str());
  }

 private:
  std::vector<std::string> headers_;
  std::vector<int> widths_;
};

inline std::string fmt(double value, int decimals = 1) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

inline std::string pct(double ratio, int decimals = 1) {
  return fmt(ratio * 100.0, decimals) + "%";
}

inline void section(const std::string& title) {
  std::puts("");
  std::puts(("== " + title + " ==").c_str());
}

}  // namespace acr::bench
