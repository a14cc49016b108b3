// The benchmark's workloads and one repetition of a workload.
//
// A workload is a network configuration plus open-loop Bernoulli traffic
// (default 4-packet source-queue cap), run as a fixed batch of simulated
// cycles: warm-up, a measured window cut into fixed-size chunks, then a
// drain and the workload's exports.  Only the public noc::Network API is
// used, with the NetworkConfig default kernel and thread count; the seed
// feeds the traffic and fault-plan seeds and nothing else.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "noc/network.hpp"
#include "noc/reliable.hpp"
#include "spans.hpp"

namespace perfbench {

struct Workload {
  std::string_view name;
  std::string_view topology;  // makeTopology kind
  int extent = 0;             // extent x extent nodes
  int numVCs = 1;
  bool qos = false;     // Control probe + Bulk flood over qosClasses
  bool faults = false;  // HLP parity, reliable transport, fault campaign,
                        // telemetry and FlowTracer, RunReport + Perfetto
  double load = 0.0;    // offered flits/node/cycle (Bulk flow under qos)
  // Digest of the short check run (checkCycles) at kReferenceSeed under
  // the default kernel; a run whose check digest differs is incorrect.
  std::string_view referenceDigest;
};

inline constexpr std::uint64_t kReferenceSeed = 1;

// Cycle budget of a measured repetition: warm-up, then a window of
// kWindow / kChunk timed chunks.
inline constexpr std::uint64_t kWarmup = 500;
inline constexpr std::uint64_t kWindow = 3000;
inline constexpr std::uint64_t kChunk = 50;

// Cycle budget of the short check run every invocation starts with (and
// that the tests repeat under Kernel::EventDriven).
inline constexpr std::uint64_t kCheckWarmup = 100;
inline constexpr std::uint64_t kCheckWindow = 400;
inline constexpr std::uint64_t kCheckChunk = 100;

const std::vector<Workload>& workloads();
const Workload* findWorkload(std::string_view name);

// Everything Network needs for one repetition.  The kernel and thread
// count stay at their NetworkConfig defaults.
struct NetworkSetup {
  std::string name;
  // Telemetry + FlowTracer attached, RunReport and Perfetto exported.
  bool observed = false;
  std::shared_ptr<const rasoc::noc::Topology> topology;
  rasoc::noc::NetworkConfig config;
  std::vector<rasoc::noc::FlowSpec> flows;
  std::uint64_t warmup = 0;
  std::uint64_t window = 0;
  std::uint64_t chunk = 0;
};

// Full-size setup, or the short check-run setup when `check` is set.
// Replica r of a seed draws its traffic and fault plan from streams of the
// seed that no other replica uses.
NetworkSetup makeSetup(const Workload& w, std::uint64_t seed,
                       unsigned replica, bool check);

// Simulated results of a repetition.  Everything here except the fields
// marked kernel-dependent or traced-only repeats exactly for a given
// workload and seed, under every kernel; digest() covers exactly those.
struct SimOutcome {
  std::uint64_t queued = 0;
  std::uint64_t delivered = 0;
  std::uint64_t flitsDelivered = 0;
  std::uint64_t windowPackets = 0;  // delivered inside the window
  std::uint64_t windowFlits = 0;
  std::uint64_t drainCycles = 0;
  bool drained = false;
  bool healthy = false;
  std::uint64_t unattributed = 0;
  std::size_t latencyCount = 0;
  double latencyP50 = 0, latencyP90 = 0, latencyP99 = 0;
  std::size_t networkLatencyCount = 0;
  double networkLatencyP50 = 0, networkLatencyP99 = 0;
  // p99 of the highest-priority class carried: Control under qos, the
  // single untagged class otherwise.
  double topClassP99 = 0;
  std::vector<std::uint64_t> classDelivered;  // qos only
  double acceptedFlitsPerNodeCycle = 0;
  double linkUtilMean = 0, linkUtilMax = 0;   // at the end of the window
  rasoc::noc::ReliabilityStats reliability;
  std::uint64_t flitsCorrupted = 0, flitsDropped = 0, faultStallCycles = 0;
  std::uint64_t parityErrors = 0;
  bool exportValid = true;  // Perfetto export passed validatePerfettoJson

  // Kernel-dependent (not in the digest).
  std::uint64_t windowEvaluateCalls = 0;
  std::size_t programOps = 0, programThunks = 0, programIterateSegments = 0;
  std::size_t programWords = 0;
  // Traced repetitions only (not in the digest).
  double vcOccupancyMean = 0;

  // Packets not delivered exactly once, plus abandoned and unattributable
  // ones; every packet when the network reports a misroute, overflow or
  // misdelivery, or the export is malformed.
  std::uint64_t failedPackets() const;
  std::string canonical() const;
  std::string digest() const;  // 16 hex digits (FNV-1a of canonical())
};

// Host-time results of a repetition, in nanoseconds.
struct RepTimes {
  std::int64_t setup = 0, construct = 0, attach = 0, compile = 0;
  std::vector<std::int64_t> chunks;  // one per window chunk
  std::int64_t window = 0, drain = 0, ledgerQuery = 0;
  std::int64_t flowTraceExport = 0, telemetryReport = 0, wall = 0;
  std::size_t flowTraceBytes = 0, telemetryReportBytes = 0;
  std::int64_t rssGrowthBytes = 0;  // RepOptions::measureRss only
};

struct RepResult {
  SimOutcome sim;
  RepTimes times;
};

struct RepOptions {
  // Record a span around every call into the simulator, and register the
  // bench tick listener before any other listener.
  SpanTrace* spans = nullptr;
  // Stop after the first settle (times.setup and its parts only).
  bool setupOnly = false;
  // Return freed heap pages to the kernel before the window, so
  // times.rssGrowthBytes counts the pages the window newly touches.  Off,
  // the window reuses earlier repetitions' freed memory and the growth
  // reads near zero.
  bool measureRss = false;
};

// Runs one repetition; without spans, times only the phases and the
// window chunks.
RepResult runRep(const NetworkSetup& setup, const RepOptions& options = {});

}  // namespace perfbench
