// What the sweep benches (bench_noc_loadsweep, bench_noc_faultsweep)
// share: strict command-line flags, the 16-node bench topology, table-cell
// formatting, the QoS experiments' flow shape, and the instrumented run
// behind every RunReport artifact.
//
// Flags parse strictly; the examples parse their positional numbers with
// parseNumberFlag too.  A numeric flag must be a whole decimal number in
// range ("--vcs=4x" is an error, not 4), a kernel must be one of
// naive|event|compiled, and an unrecognised "--" option is an error rather
// than the report path.  Each helper prints its own message; the caller
// exits nonzero.
//
// Each bench keeps its own flag loop (only the fault sweep has --quick)
// and fills a SweepFlags; validSweepFlags() then runs the checks that need
// every flag parsed, and writeTrace() writes the --trace artifacts.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <system_error>
#include <utility>

#include "noc/network.hpp"
#include "noc/observe.hpp"
#include "noc/watchdog.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"
#include "telemetry/trace_event.hpp"

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

// The flags both sweep benches take.
struct SweepFlags {
  std::string topology = "mesh";
  sim::Simulator::Kernel kernel = noc::NetworkConfig{}.kernel;
  int vcs = 1;
  bool qos = false;
  std::string tracePath;  // empty = flit tracing off
  std::uint64_t traceSample = 1;
};

// The checks that need every flag parsed.  Prints the first failure and
// returns false.
inline bool validSweepFlags(const SweepFlags& flags) {
  if (flags.traceSample < 1) {
    std::printf("--trace-sample=%llu must be >= 1\n",
                static_cast<unsigned long long>(flags.traceSample));
    return false;
  }
  if (flags.topology != "mesh" && flags.topology != "torus" &&
      flags.topology != "ring") {
    std::printf("unknown --topology=%s (mesh|torus|ring)\n",
                flags.topology.c_str());
    return false;
  }
  if (flags.vcs != 1 && flags.vcs != 2 && flags.vcs != 4) {
    std::printf("--vcs=%d must be 1, 2 or 4\n", flags.vcs);
    return false;
  }
  if (flags.vcs > 1 && !flags.tracePath.empty()) {
    std::printf("--trace is incompatible with --vcs>1 (flit tracing does "
                "not support virtual channels)\n");
    return false;
  }
  if (flags.qos) {
    if (flags.vcs != 1 && flags.vcs != 4) {
      std::printf("--qos needs 4 VCs (escape layer + per-class adaptive "
                  "lanes); drop --vcs or pass --vcs=4\n");
      return false;
    }
    if (!flags.tracePath.empty()) {
      std::printf("--trace is incompatible with --qos (QoS runs at 4 "
                  "VCs)\n");
      return false;
    }
  }
  return true;
}

// Schema-validates `json` as Perfetto trace JSON and writes it to `path`.
inline bool writeValidatedTrace(const std::string& path,
                                const std::string& json, const char* what) {
  std::string error;
  if (!telemetry::validatePerfettoJson(json, &error)) {
    std::printf("!! %s failed schema validation: %s\n", what, error.c_str());
    return false;
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) {
    std::printf("!! cannot write %s\n", path.c_str());
    return false;
  }
  std::fputs(json.c_str(), out);
  std::fclose(out);
  return true;
}

// The Perfetto flow trace of a traced instrumented run, and its
// kernel-profile counters.
struct TraceArtifacts {
  std::string trace;
  std::string kernel;
};

// Writes the --trace artifacts: the Perfetto flow trace at
// flags.tracePath and the kernel-profile counters beside it as
// <path>.kernel.json.  The counters depend on the settle kernel, so they
// ship as a sidecar and the flow trace stays byte-identical across
// kernels.
inline bool writeTrace(const SweepFlags& flags,
                       const TraceArtifacts& artifacts) {
  if (!writeValidatedTrace(flags.tracePath, artifacts.trace,
                           "Perfetto trace"))
    return false;
  std::printf("Perfetto trace written to %s (%zu bytes, sample=%llu)\n",
              flags.tracePath.c_str(), artifacts.trace.size(),
              static_cast<unsigned long long>(flags.traceSample));
  const std::string kernelPath = flags.tracePath + ".kernel.json";
  if (!writeValidatedTrace(kernelPath, artifacts.kernel,
                           "kernel-profile sidecar"))
    return false;
  std::printf("Kernel-profile sidecar written to %s (%zu bytes)\n",
              kernelPath.c_str(), artifacts.kernel.size());
  return true;
}

// --- sweep scaffolding --------------------------------------------------

// The sweeps' 16 nodes: a 4x4 grid for mesh/torus, a 16-node ring.
inline std::shared_ptr<const noc::Topology> makeBenchTopology(
    const SweepFlags& flags) {
  return noc::makeTopology(flags.topology, 4, 4);
}

// One table cell, printf-formatted.
inline std::string fmt(double v, const char* format = "%.2f") {
  char buf[32];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

// A uniform-random flow of class `cls` (the --qos experiments).
inline noc::FlowSpec qosFlow(router::TrafficClass cls, double load,
                             int payload, std::uint64_t seed) {
  noc::FlowSpec flow;
  flow.trafficClass = cls;
  flow.traffic.pattern = noc::TrafficPattern::UniformRandom;
  flow.traffic.offeredLoad = load;
  flow.traffic.payloadFlits = payload;
  flow.traffic.seed = seed;
  return flow;
}

// One instrumented run, serialized as RunReport JSON `name`: telemetry on
// every router and NI, a stall watchdog with the blocked-link diagnostics,
// and, when `trace` is set, the flow tracer, whose export and
// kernel-profile counters land there.  `drive(net)` attaches traffic and
// runs; `annotate(report)` adds the bench's own `run` keys, after which
// run.kernel and run.seed are set.  RunReport keeps a key's first
// position when it is set again, so an annotation that sets run.seed
// first keeps it ahead of run.kernel.
template <typename Drive, typename Annotate>
std::string instrumentedReport(const SweepFlags& flags,
                               noc::NetworkConfig config,
                               const std::string& name, std::uint64_t seed,
                               Drive&& drive, Annotate&& annotate,
                               TraceArtifacts* trace = nullptr) {
  noc::Network net(makeBenchTopology(flags), std::move(config));
  telemetry::MetricsRegistry registry;
  net.enableTelemetry(registry);
  noc::FlowTracer* tracer = nullptr;
  if (trace) {
    noc::TraceConfig traceConfig;
    traceConfig.sampleEvery = flags.traceSample;
    tracer = &net.enableTracing(traceConfig);
  }
  noc::Watchdog watchdog("dog", net.ledger(), 500,
                         [&net] { return net.blockedLinkNames(); },
                         [&net] { return net.blockedLinkTraceDump(); });
  net.simulator().add(watchdog);
  drive(net);
  if (tracer) {
    trace->trace = tracer->perfettoJson();
    trace->kernel = tracer->kernelProfileJson();
  }
  telemetry::RunReport report = noc::buildRunReport(name, net, &watchdog);
  annotate(report);
  report.set("run", "kernel", kernelName(flags.kernel));
  report.set("run", "seed", seed);
  return report.toJson();
}

}  // namespace rasoc::bench
