// Strict command-line flags shared by the sweep benches
// (bench_noc_loadsweep, bench_noc_faultsweep).  A numeric flag must be a
// whole decimal number in range ("--vcs=4x" is an error, not 4), a kernel
// must be one of naive|event|compiled, and an unrecognised "--" option is
// an error rather than the report path.  Each helper prints its own
// message; the caller exits nonzero.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstring>
#include <system_error>

#include "sim/simulator.hpp"

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

// The --kernel= spelling of a settle kernel (also the RunReport's
// `run.kernel` value).
inline const char* kernelName(sim::Simulator::Kernel kernel) {
  switch (kernel) {
    case sim::Simulator::Kernel::Naive:
      return "naive";
    case sim::Simulator::Kernel::EventDriven:
      return "event";
    case sim::Simulator::Kernel::Compiled:
      return "compiled";
  }
  return "?";
}

// Parses `value` (the part of `arg` after '=') as naive|event|compiled.
inline bool parseKernelFlag(const char* arg, const char* value,
                            sim::Simulator::Kernel& out) {
  for (const auto kernel :
       {sim::Simulator::Kernel::Naive, sim::Simulator::Kernel::EventDriven,
        sim::Simulator::Kernel::Compiled}) {
    if (std::strcmp(value, kernelName(kernel)) == 0) {
      out = kernel;
      return true;
    }
  }
  std::printf("unknown %s (naive|event|compiled)\n", arg);
  return false;
}

// True, after printing a message, when `arg` is an option ("--...") that
// no flag matched.
inline bool unknownOption(const char* arg) {
  if (std::strncmp(arg, "--", 2) != 0) return false;
  std::printf("unknown option %s\n", arg);
  return true;
}

}  // namespace rasoc::bench
