#include "host.hpp"

#include <malloc.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <thread>

#include "telemetry/report.hpp"

namespace perfbench {

HostInfo hostInfo(std::string gitSha) {
  HostInfo host;
  host.nproc = std::thread::hardware_concurrency();
#if defined(__clang__)
  host.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  host.compiler = "gcc " __VERSION__;
#else
  host.compiler = "unknown";
#endif
  host.buildType = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  host.ndebug = true;
#endif
#ifdef __OPTIMIZE__
  host.optimized = true;
#endif
  host.gitSha = std::move(gitSha);
  return host;
}

std::string hostJson(const HostInfo& host) {
  using rasoc::telemetry::RunReport;
  std::ostringstream os;
  os << "{\"host\": {\"nproc\": " << host.nproc << ", \"compiler\": \""
     << RunReport::escape(host.compiler) << "\", \"build_type\": \""
     << RunReport::escape(host.buildType)
     << "\", \"ndebug\": " << (host.ndebug ? "true" : "false")
     << ", \"optimized\": " << (host.optimized ? "true" : "false")
     << ", \"git_sha\": \"" << RunReport::escape(host.gitSha) << "\"}}";
  return os.str();
}

std::int64_t currentRssBytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t sizePages = 0;
  std::int64_t residentPages = 0;
  if (!(statm >> sizePages >> residentPages)) return 0;
  return residentPages * static_cast<std::int64_t>(sysconf(_SC_PAGESIZE));
}

std::int64_t peakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::int64_t kb = 0;
      fields >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

void releaseFreeHeap() { malloc_trim(0); }

}  // namespace perfbench
