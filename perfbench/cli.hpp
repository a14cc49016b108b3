// Strict command line of the benchmark binary:
//
//   perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//             [--trace-dir <dir>] [--git-sha <sha>]
//
// Every value is validated: numbers are plain decimal digits that fit
// their type ("17x", "-1", "" and "0x10" are rejected), the workload must
// be one of workloadNames(), and unknown or repeated flags are errors.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string traceDir;  // empty: the span trace is not written
  std::string gitSha = "unknown";
};

// Parses argv[1..].  Throws std::invalid_argument naming the bad argument.
Args parseArgs(const std::vector<std::string_view>& argv);

// Decimal digits only, no sign, no whitespace, must fit in 64 bits.
std::uint64_t parseUnsigned(std::string_view text, std::string_view what);

}  // namespace perfbench
