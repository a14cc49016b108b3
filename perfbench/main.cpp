// perfbench: the repository benchmark.  See README.md in this directory for
// the workloads, the metrics and what each layer metric predicts.
//
// One invocation runs one workload for about --seconds of measured time:
//   1. a short check run at kReferenceSeed whose digest must match the one
//      recorded for the workload (a kernel or lowering bug moves it);
//   2. with --trace 0, a few setup-only repetitions (setup_s is a median),
//      then full repetitions, cycling through kReplicas traffic/fault draws
//      of --seed, until the time is used; with --trace 1, each replica runs
//      untraced and then span-traced, so the tracing overhead is measured
//      pairwise inside the same run.
// Every repetition of a replica must reproduce that replica's first
// digest.  The last line of standard output is the result object; the
// exit code is 0 only when every check passed and no packet failed.
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli.hpp"
#include "host.hpp"
#include "metrics.hpp"
#include "spans.hpp"
#include "telemetry/trace_event.hpp"
#include "workload.hpp"

using namespace perfbench;

namespace {

constexpr int kSetupOnlyReps = 8;
constexpr std::size_t kMinTracedPairs = 2;  // --trace 1

int run(const Args& args) {
  const HostInfo host = hostInfo(args.gitSha);
  std::printf("%s\n", hostJson(host).c_str());
  if (!host.optimized) {
    std::fprintf(stderr,
                 "perfbench: built without optimisation (build type '%s'); "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 host.buildType.c_str());
    return 2;
  }
  const Workload& w = *findWorkload(args.workload);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  // A repetition whose digest is wrong counts every one of its packets as
  // failed; otherwise only its packets not delivered exactly once do.
  const auto account = [&](const SimOutcome& sim, bool digestOk) {
    attempted += sim.queued;
    const std::uint64_t bad = digestOk ? sim.failedPackets() : sim.queued;
    failed += bad;
    if (!digestOk || bad) correct = false;
  };

  const RepResult check =
      runRep(makeSetup(w, kReferenceSeed, 0, true));
  const std::string checkDigest = check.sim.digest();
  account(check.sim, checkDigest == w.referenceDigest);

  std::vector<NetworkSetup> setups;
  for (unsigned r = 0; r < kReplicas; ++r)
    setups.push_back(makeSetup(w, args.seed, r, false));
  std::vector<double> setupSeconds;
  if (!args.trace)
    for (int i = 0; i < kSetupOnlyReps; ++i)
      setupSeconds.push_back(
          static_cast<double>(
              runRep(setups[i % kReplicas], {.setupOnly = true}).times.setup) /
          1e9);

  // --trace 0: replicas round-robin, untraced.  --trace 1: each replica
  // runs untraced then traced, back to back.
  std::vector<RepResult> plain;
  std::vector<RepResult> traced;
  SpanTrace trace;
  std::vector<std::size_t> traceStarts;
  std::vector<std::string> digests(kReplicas);
  const std::int64_t start = nowNs();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(args.seconds) * 1000000000;
  for (std::size_t i = 0;; ++i) {
    const bool spanned = args.trace && i % 2 == 1;
    const std::size_t rep = args.trace ? i / 2 : i;
    const bool enough =
        args.trace ? traced.size() >= kMinTracedPairs : rep >= kReplicas;
    if (!spanned && enough && nowNs() >= deadline) break;
    if (spanned) traceStarts.push_back(trace.spans().size());
    // The first repetition of --trace 0 also measures RSS growth
    // (returning freed heap costs page faults, so one repetition pays it).
    RepResult r = runRep(setups[rep % kReplicas],
                         {.spans = spanned ? &trace : nullptr,
                          .measureRss = !args.trace && i == 0});
    std::string& digest = digests[rep % kReplicas];
    const std::string d = r.sim.digest();
    if (digest.empty()) digest = d;
    account(r.sim, d == digest);
    (spanned ? traced : plain).push_back(std::move(r));
  }
  const double measured = static_cast<double>(nowNs() - start) / 1e9;

  std::string traceFile;
  if (args.trace && !args.traceDir.empty()) {
    // The first traced repetition only: later ones repeat its structure.
    const std::size_t last =
        traceStarts.size() > 1 ? traceStarts[1] : trace.spans().size();
    const std::string json = perfettoJson(
        trace.spans(), traceStarts[0], last, trace.spans()[0].startNs);
    std::string error;
    if (!rasoc::telemetry::validatePerfettoJson(json, &error)) {
      std::fprintf(stderr, "perfbench: span trace invalid: %s\n",
                   error.c_str());
      correct = false;
    }
    traceFile = args.traceDir + "/" + args.workload + "-seed" +
                std::to_string(args.seed) + ".json";
    std::ofstream(traceFile) << json;
  }

  const NetworkSetup& setup = setups.front();
  std::size_t chunks = 0;
  std::string repUs;
  for (const RepResult& r : plain) {
    chunks += r.times.chunks.size();
    repUs += (repUs.empty() ? "" : ", ") +
             number(usPerCycle(r, setup.window));
  }
  std::string replicaDigests;
  for (const std::string& d : digests)
    replicaDigests += (replicaDigests.empty() ? "" : ", ") + jsonString(d);
  std::printf(
      "{\"run\": {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"measured_s\": %s, \"reps\": %zu, \"traced_reps\": %zu, "
      "\"replicas\": %zu, \"setup_only_reps\": %zu, "
      "\"warmup_cycles\": %llu, \"window_cycles\": %llu, "
      "\"chunk_cycles\": %llu, \"untraced_chunks\": %zu, "
      "\"rep_us_per_cycle\": [%s], \"digests\": [%s], "
      "\"check_digest\": %s, \"check_expected\": %s, \"spans\": %zu, "
      "\"span_trace\": %s}}\n",
      jsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
      number(measured).c_str(), plain.size(), traced.size(), kReplicas,
      setupSeconds.size(), static_cast<unsigned long long>(setup.warmup),
      static_cast<unsigned long long>(setup.window),
      static_cast<unsigned long long>(setup.chunk), chunks, repUs.c_str(),
      replicaDigests.c_str(), jsonString(checkDigest).c_str(),
      jsonString(std::string(w.referenceDigest)).c_str(),
      trace.spans().size(), jsonString(traceFile).c_str());

  const std::vector<Metric> metrics =
      args.trace ? perLayer(setup, plain, traced, trace, traceStarts)
                 : endToEnd(setup, plain, setupSeconds);
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metricsJson(metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parseArgs(std::vector<std::string_view>(argv + 1, argv + argc));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed "
                 "<n> --seconds <n> --trace <0|1> [--trace-dir <dir>] "
                 "[--git-sha <sha>]\n",
                 e.what());
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
