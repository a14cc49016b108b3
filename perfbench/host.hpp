// What every result records about the machine and the build, and the
// process memory probes (Linux /proc).
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct HostInfo {
  unsigned nproc = 0;
  std::string compiler;
  std::string buildType;
  bool ndebug = false;
  bool optimized = false;  // compiled with optimisation (__OPTIMIZE__)
  std::string gitSha;
};

HostInfo hostInfo(std::string gitSha);

// {"host": {...}} on one line.
std::string hostJson(const HostInfo& host);

// Resident set size now, in bytes.
std::int64_t currentRssBytes();

// Peak resident set size of the process so far (VmHWM), in bytes.
std::int64_t peakRssBytes();

// Returns freed heap pages to the kernel, so RSS growth measured from here
// counts the pages a stretch of simulation newly touches.
void releaseFreeHeap();

}  // namespace perfbench
