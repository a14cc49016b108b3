// The metrics a run prints, computed from its repetitions.  Names and
// units match BENCHMARK.json at the repository root; README.md here says
// what each one measures and which workload it is expected to move.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

// Traffic/fault draws per seed; every run measures each at least once.
inline constexpr std::size_t kReplicas = 8;

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

double median(std::vector<double> v);
// Nearest rank, as the ledger computes its percentiles.
double percentile(std::vector<double> v, double q);

// Shortest decimal that round-trips `v`.
std::string number(double v);
std::string jsonString(const std::string& s);
// {"<name>": {"value": <v>, "unit": "<unit>"}, ...}
std::string metricsJson(const std::vector<Metric>& metrics);

// Host microseconds per simulated cycle of every window chunk of `reps`.
std::vector<double> chunkUs(const NetworkSetup& setup,
                            const std::vector<RepResult>& reps);

// Host microseconds per simulated cycle over a repetition's window.
double usPerCycle(const RepResult& r, std::uint64_t windowCycles);

// --trace 0: `reps` are the untraced repetitions, the first kReplicas of
// them replicas 0..kReplicas-1; `setupSeconds` the setup-only samples.
std::vector<Metric> endToEnd(const NetworkSetup& setup,
                             const std::vector<RepResult>& reps,
                             std::vector<double> setupSeconds);

// --trace 1: plain[i] and traced[i] ran back to back on the same replica;
// traced[i]'s spans are trace.spans()[starts[i], starts[i + 1]).
std::vector<Metric> perLayer(const NetworkSetup& setup,
                             const std::vector<RepResult>& plain,
                             const std::vector<RepResult>& traced,
                             const SpanTrace& trace,
                             const std::vector<std::size_t>& starts);

}  // namespace perfbench
