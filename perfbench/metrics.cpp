#include "metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "host.hpp"
#include "telemetry/report.hpp"

namespace perfbench {

namespace {

template <typename F>
double medianOf(const std::vector<RepResult>& reps, F f) {
  std::vector<double> v;
  for (const RepResult& r : reps) v.push_back(f(r));
  return median(v);
}

// Simulated metrics are medians over the replicas (one repetition each),
// so they repeat exactly for a seed yet smooth out single traffic draws.
double replicaMedian(const std::vector<RepResult>& reps,
                     double SimOutcome::*field) {
  std::vector<double> v;
  for (std::size_t r = 0; r < kReplicas; ++r) v.push_back(reps[r].sim.*field);
  return median(v);
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest rank, as the ledger computes its percentiles.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  out += rasoc::telemetry::RunReport::escape(s);
  out += '"';
  return out;
}

std::string metricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i) out += ", ";
    out += jsonString(m.name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + jsonString(m.unit) + "}";
  }
  return out + "}";
}

std::vector<double> chunkUs(const NetworkSetup& setup,
                            const std::vector<RepResult>& reps) {
  std::vector<double> us;
  for (const RepResult& r : reps)
    for (std::int64_t c : r.times.chunks)
      us.push_back(static_cast<double>(c) / 1e3 /
                   static_cast<double>(setup.chunk));
  return us;
}

double usPerCycle(const RepResult& r, std::uint64_t cycles) {
  return static_cast<double>(r.times.window) / 1e3 /
         static_cast<double>(cycles);
}

std::vector<Metric> endToEnd(const NetworkSetup& setup,
                             const std::vector<RepResult>& reps,
                             std::vector<double> setupSeconds) {
  // Host noise here comes in fast and slow phases lasting seconds, so the
  // rates are totals over the whole run: a median would flip between the
  // phases, a total weighs them by the time they lasted.
  std::int64_t windowNs = 0;
  std::int64_t wallNs = 0;
  for (const RepResult& r : reps) {
    setupSeconds.push_back(static_cast<double>(r.times.setup) / 1e9);
    windowNs += r.times.window;
    wallNs += r.times.wall;
  }
  const auto n = static_cast<double>(reps.size());
  return {
      {"sim_cycles_per_s", "1/s",
       static_cast<double>(setup.window) * n * 1e9 /
           static_cast<double>(windowNs)},
      {"host_us_per_cycle_p95", "us", percentile(chunkUs(setup, reps), 0.95)},
      {"wall_s", "s", static_cast<double>(wallNs) / 1e9 / n},
      {"setup_s", "s", median(setupSeconds)},
      {"peak_rss_mb", "MB",
       static_cast<double>(peakRssBytes()) / (1024.0 * 1024.0)},
      {"rss_growth_b_per_packet", "B",
       static_cast<double>(reps.front().times.rssGrowthBytes) /
           static_cast<double>(
               std::max<std::uint64_t>(reps.front().sim.windowPackets, 1))},
      {"sim_latency_p50_cycles", "cycles",
       replicaMedian(reps, &SimOutcome::latencyP50)},
      {"sim_latency_p99_cycles", "cycles",
       replicaMedian(reps, &SimOutcome::latencyP99)},
      {"sim_accepted_flits_per_node_cycle", "flit/node/cycle",
       replicaMedian(reps, &SimOutcome::acceptedFlitsPerNodeCycle)},
      {"sim_control_latency_p99_cycles", "cycles",
       replicaMedian(reps, &SimOutcome::topClassP99)},
  };
}

std::vector<Metric> perLayer(const NetworkSetup& setup,
                             const std::vector<RepResult>& plain,
                             const std::vector<RepResult>& traced,
                             const SpanTrace& trace,
                             const std::vector<std::size_t>& starts) {
  const std::vector<std::int64_t> self = selfTimes(trace.spans());
  const auto window = static_cast<double>(setup.window);
  // A window layer's self time per cycle in traced repetition i.
  const auto layerUs = [&](std::size_t i, SpanName name) {
    const std::size_t last =
        i + 1 < starts.size() ? starts[i + 1] : trace.spans().size();
    return static_cast<double>(selfTimeUnder(trace.spans(), self, starts[i],
                                             last, name, SpanName::Window)) /
           1e3 / window;
  };
  std::vector<double> settle, edge, listeners, overhead, unaccounted;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    settle.push_back(layerUs(i, SpanName::Settle));
    edge.push_back(layerUs(i, SpanName::Edge));
    listeners.push_back(layerUs(i, SpanName::Listeners));
    const double untracedUs = usPerCycle(plain[i], setup.window);
    overhead.push_back(
        (usPerCycle(traced[i], setup.window) / untracedUs - 1.0) * 100.0);
    unaccounted.push_back(
        (untracedUs - settle.back() - edge.back() - listeners.back()) /
        untracedUs * 100.0);
  }
  const auto ms = [&](std::int64_t RepTimes::*field) {
    return medianOf(traced, [field](const RepResult& r) {
      return static_cast<double>(r.times.*field) / 1e6;
    });
  };
  const auto bytes = [&](std::size_t RepTimes::*field) {
    return static_cast<double>(traced.front().times.*field);
  };
  // Simulated counts of replica 0, which every run traces.
  const SimOutcome& sim = traced.front().sim;
  const auto& rel = sim.reliability;
  const double sends =
      static_cast<double>(rel.dataFramesSent + rel.retransmissions);
  return {
      {"sim.settle_us_per_cycle", "us", median(settle)},
      {"sim.edge_us_per_cycle", "us", median(edge)},
      {"sim.listeners_us_per_cycle", "us", median(listeners)},
      {"sim.compile_ms", "ms", ms(&RepTimes::compile)},
      {"sim.units_per_cycle", "count",
       static_cast<double>(sim.windowEvaluateCalls) / window},
      {"sim.program_ops", "count", static_cast<double>(sim.programOps)},
      {"sim.program_thunks", "count", static_cast<double>(sim.programThunks)},
      {"sim.program_iterate_segments", "count",
       static_cast<double>(sim.programIterateSegments)},
      {"sim.program_words", "count", static_cast<double>(sim.programWords)},
      {"noc.construct_ms", "ms", ms(&RepTimes::construct)},
      {"noc.attach_ms", "ms", ms(&RepTimes::attach)},
      {"noc.drain_ms", "ms", ms(&RepTimes::drain)},
      {"noc.drain_cycles", "cycles", static_cast<double>(sim.drainCycles)},
      {"noc.ledger_query_ms", "ms", ms(&RepTimes::ledgerQuery)},
      {"noc.packets_delivered", "count", static_cast<double>(sim.delivered)},
      {"noc.flits_delivered", "count",
       static_cast<double>(sim.flitsDelivered)},
      {"noc.network_latency_p99_cycles", "cycles", sim.networkLatencyP99},
      {"router.link_util_mean", "ratio", sim.linkUtilMean},
      {"router.link_util_max", "ratio", sim.linkUtilMax},
      {"router.vc_occupancy_mean", "flits", sim.vcOccupancyMean},
      {"reliable.frames_sent", "count",
       static_cast<double>(rel.dataFramesSent + rel.retransmissions +
                           rel.acksSent + rel.nacksSent)},
      {"reliable.retransmissions", "count",
       static_cast<double>(rel.retransmissions)},
      {"reliable.timeouts", "count", static_cast<double>(rel.timeouts)},
      {"reliable.goodput_ratio", "ratio",
       sends > 0 ? static_cast<double>(rel.payloadsDelivered) / sends : 0.0},
      {"fault.flits_corrupted", "count",
       static_cast<double>(sim.flitsCorrupted)},
      {"fault.flits_dropped", "count", static_cast<double>(sim.flitsDropped)},
      {"fault.stall_cycles", "cycles",
       static_cast<double>(sim.faultStallCycles)},
      {"flow_trace.export_ms", "ms", ms(&RepTimes::flowTraceExport)},
      {"flow_trace.export_bytes", "B", bytes(&RepTimes::flowTraceBytes)},
      {"telemetry.report_ms", "ms", ms(&RepTimes::telemetryReport)},
      {"telemetry.report_bytes", "B", bytes(&RepTimes::telemetryReportBytes)},
      {"host_us_per_cycle_p50", "us", percentile(chunkUs(setup, plain), 0.50)},
      {"bench.untraced_us_per_cycle", "us",
       medianOf(plain,
                [&](const RepResult& r) {
                  return usPerCycle(r, setup.window);
                })},
      {"bench.traced_us_per_cycle", "us",
       medianOf(traced,
                [&](const RepResult& r) {
                  return usPerCycle(r, setup.window);
                })},
      {"bench.trace_overhead_pct", "%", median(overhead)},
      {"bench.layer_sum_us_per_cycle", "us",
       median(settle) + median(edge) + median(listeners)},
      {"bench.unaccounted_pct", "%", median(unaccounted)},
  };
}

}  // namespace perfbench
