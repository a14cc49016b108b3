// Strict command-line flags shared by the sweep benches
// (bench_noc_loadsweep, bench_noc_faultsweep).  A numeric flag must be a
// whole decimal number in range ("--vcs=4x" is an error, not 4), and an
// unrecognised "--" option is an error rather than the report path.  Each
// helper prints its own message; the caller exits nonzero.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstring>
#include <system_error>

namespace rasoc::bench {

// The value part of `arg` when it starts with `prefix` ("--vcs="), else
// nullptr.
inline const char* flagValue(const char* arg, const char* prefix) {
  const std::size_t n = std::strlen(prefix);
  return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
}

// Parses all of `value` (the part of `arg` after '=') as a decimal number.
template <typename T>
bool parseNumberFlag(const char* arg, const char* value, T& out) {
  const char* end = value + std::strlen(value);
  T parsed{};
  const auto [ptr, ec] = std::from_chars(value, end, parsed);
  if (ec != std::errc{} || ptr != end) {
    std::printf("malformed %s: expected a decimal number\n", arg);
    return false;
  }
  out = parsed;
  return true;
}

// True, after printing a message, when `arg` is an option ("--...") that
// no flag matched.
inline bool unknownOption(const char* arg) {
  if (std::strncmp(arg, "--", 2) != 0) return false;
  std::printf("unknown option %s\n", arg);
  return true;
}

}  // namespace rasoc::bench
