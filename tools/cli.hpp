// Command-line helpers shared by acrctl, acrd and the timed benches.
#pragma once

#include <charconv>
#include <string>
#include <system_error>

namespace acr::cli {

/// Prints the tool's usage, preceded by `why` when given, and exits 2.
/// Each tool defines its own.
[[noreturn]] void usage(const char* why = nullptr);

/// Parses all of `text` as a T; anything else (trailing junk, a sign T
/// cannot hold, out of range) is a usage error naming `what`.
template <typename T>
T parseNumber(const std::string& text, const std::string& what) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) {
    const char* const problem = error == std::errc::result_out_of_range
                                    ? " is out of range"
                                    : " needs a number";
    usage((what + problem + ", got '" + text + "'").c_str());
  }
  return value;
}

}  // namespace acr::cli
