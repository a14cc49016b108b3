// The benchmark's own tests: strict command line, the recorded check
// digests (and their independence from the settle kernel), the span
// arithmetic behind the per-layer metrics, and agreement between the
// metrics the binary prints and the ones BENCHMARK.json declares.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "cli.hpp"
#include "metrics.hpp"
#include "spans.hpp"
#include "telemetry/trace_event.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using Kernel = rasoc::sim::Simulator::Kernel;

Args parse(std::vector<std::string_view> argv) { return parseArgs(argv); }

TEST(Cli, AcceptsTheDriverCommandLine) {
  const Args args = parse({"--workload", "mesh8_vc4_qos", "--seed", "17",
                           "--seconds", "10", "--trace", "1"});
  EXPECT_EQ(args.workload, "mesh8_vc4_qos");
  EXPECT_EQ(args.seed, 17u);
  EXPECT_EQ(args.seconds, 10);
  EXPECT_TRUE(args.trace);
}

TEST(Cli, RejectsMalformedSeeds) {
  for (std::string_view seed :
       {"17x", "x17", "", "-1", "+1", " 1", "0x10", "1.0",
        "18446744073709551616"})
    EXPECT_THROW(parse({"--workload", "mesh16_uniform", "--seed", seed,
                        "--seconds", "1", "--trace", "0"}),
                 std::invalid_argument)
        << "seed '" << seed << "'";
}

TEST(Cli, RejectsUnknownWorkloadsFlagsAndRepeats) {
  EXPECT_THROW(parse({"--workload", "mesh16", "--seed", "1", "--seconds",
                      "1", "--trace", "0"}),
               std::invalid_argument);
  EXPECT_THROW(parse({"--workload", "mesh16_uniform", "--seed", "1",
                      "--seconds", "1", "--trace", "2"}),
               std::invalid_argument);
  EXPECT_THROW(parse({"--workload", "mesh16_uniform", "--seed", "1",
                      "--seconds", "0", "--trace", "0"}),
               std::invalid_argument);
  EXPECT_THROW(parse({"--workload", "mesh16_uniform", "--seed", "1",
                      "--seed", "2", "--seconds", "1", "--trace", "0"}),
               std::invalid_argument);
  EXPECT_THROW(parse({"--workload", "mesh16_uniform", "--seed", "1",
                      "--seconds", "1", "--trace", "0", "--fast", "1"}),
               std::invalid_argument);
  EXPECT_THROW(parse({"--workload", "mesh16_uniform", "--seed", "1",
                      "--seconds", "1", "--trace"}),
               std::invalid_argument);
  EXPECT_THROW(parse({"--workload", "mesh16_uniform", "--seed", "1",
                      "--seconds", "1"}),
               std::invalid_argument);
}

class WorkloadDigest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadDigest, CheckRunMatchesTheRecordedDigest) {
  const Workload& w = *findWorkload(GetParam());
  const RepResult r = runRep(makeSetup(w, kReferenceSeed, 0, true));
  EXPECT_EQ(r.sim.digest(), w.referenceDigest) << r.sim.canonical();
  EXPECT_EQ(r.sim.failedPackets(), 0u);
  EXPECT_GT(r.sim.delivered, 0u);
}

// The digest covers simulated results only, so a correct kernel change
// keeps it and a lowering bug moves it.
TEST_P(WorkloadDigest, EventDrivenKernelGivesTheDefaultKernelsDigest) {
  const Workload& w = *findWorkload(GetParam());
  NetworkSetup setup = makeSetup(w, kReferenceSeed, 0, true);
  const RepResult byDefault = runRep(setup);
  setup.config.kernel = Kernel::EventDriven;
  const RepResult eventDriven = runRep(setup);
  EXPECT_EQ(eventDriven.sim.canonical(), byDefault.sim.canonical());
}

TEST_P(WorkloadDigest, SeedsAndReplicasDrawDistinctRepeatableInputs) {
  const Workload& w = *findWorkload(GetParam());
  const std::string a = runRep(makeSetup(w, 7, 0, true)).sim.digest();
  EXPECT_EQ(runRep(makeSetup(w, 7, 0, true)).sim.digest(), a);
  EXPECT_NE(runRep(makeSetup(w, 7, 1, true)).sim.digest(), a);
  EXPECT_NE(runRep(makeSetup(w, 8, 0, true)).sim.digest(), a);
}

// Spans of one traced repetition: children lie inside their parent and do
// not overlap, so self time plus child time is exactly the parent's span.
void expectSpansPartitionTheirParents(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = selfTimes(spans);
  std::vector<std::int64_t> childSum(spans.size(), 0);
  std::vector<std::int64_t> lastChildEnd(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    ASSERT_LE(s.startNs, s.endNs) << spanName(s.name);
    if (s.parent == kNoParent) continue;
    ASSERT_LT(s.parent, i);
    const Span& p = spans[s.parent];
    ASSERT_GE(s.startNs, p.startNs) << spanName(s.name);
    ASSERT_LE(s.endNs, p.endNs) << spanName(s.name);
    ASSERT_GE(s.startNs, lastChildEnd[s.parent]) << spanName(s.name);
    lastChildEnd[s.parent] = s.endNs;
    childSum[s.parent] += s.endNs - s.startNs;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_GE(self[i], 0) << spanName(spans[i].name);
    EXPECT_EQ(self[i] + childSum[i], spans[i].endNs - spans[i].startNs);
  }
}

TEST(Spans, SelfTimeIsDurationLessChildren) {
  SpanTrace trace;
  const auto root = trace.add(SpanName::Window, kNoParent, 0, 100);
  const auto chunk = trace.add(SpanName::Chunk, root, 10, 90);
  trace.add(SpanName::Settle, chunk, 10, 40);
  const auto tick = trace.add(SpanName::Tick, chunk, 40, 85);
  trace.add(SpanName::Edge, tick, 40, 70);
  trace.add(SpanName::Listeners, tick, 70, 85);
  const std::vector<std::int64_t> self = selfTimes(trace.spans());
  EXPECT_EQ(self, (std::vector<std::int64_t>{20, 5, 30, 0, 30, 15}));
  expectSpansPartitionTheirParents(trace.spans());
  EXPECT_EQ(selfTimeUnder(trace.spans(), self, 0, trace.spans().size(),
                          SpanName::Edge, SpanName::Window),
            30);
  EXPECT_THROW(trace.close(root), std::logic_error);
}

TEST_P(WorkloadDigest, TracedRunKeepsTheDigestAndItsSpansNest) {
  const Workload& w = *findWorkload(GetParam());
  const NetworkSetup setup = makeSetup(w, kReferenceSeed, 0, true);
  SpanTrace trace;
  const RepResult traced = runRep(setup, {.spans = &trace});
  EXPECT_EQ(traced.sim.digest(), w.referenceDigest);
  const std::vector<Span>& spans = trace.spans();
  expectSpansPartitionTheirParents(spans);
  const std::vector<std::int64_t> self = selfTimes(spans);
  std::size_t settles = 0;
  for (const Span& s : spans)
    if (s.name == SpanName::Settle && spans[s.parent].name == SpanName::Chunk)
      ++settles;
  EXPECT_EQ(settles, setup.window);
  // The window's layers account for all of its time except the loop's
  // own bookkeeping (chunk and tick self time).
  std::int64_t windowNs = 0;
  for (const Span& s : spans)
    if (s.name == SpanName::Window) windowNs = s.endNs - s.startNs;
  const auto under = [&](SpanName name) {
    return selfTimeUnder(spans, self, 0, spans.size(), name,
                         SpanName::Window);
  };
  std::int64_t windowSelf = 0;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name == SpanName::Window) windowSelf = self[i];
  EXPECT_EQ(under(SpanName::Settle) + under(SpanName::Edge) +
                under(SpanName::Listeners) + under(SpanName::Chunk) +
                under(SpanName::Tick) + windowSelf,
            windowNs);
  EXPECT_TRUE(rasoc::telemetry::validatePerfettoJson(
      perfettoJson(spans, 0, spans.size(), spans.front().startNs)));
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadDigest,
    ::testing::Values("mesh16_uniform", "mesh8_vc4_qos",
                      "torus8_faults_traced"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

std::string readBenchmarkJson() {
  std::ifstream in(PERFBENCH_REPO_DIR "/BENCHMARK.json");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool declares(const std::string& json, const std::string& name) {
  return json.find("\"name\": \"" + name + "\"") != std::string::npos;
}

// Every metric and workload the binary knows is declared in BENCHMARK.json.
TEST(BenchmarkJson, DeclaresEveryWorkloadAndMetric) {
  const std::string json = readBenchmarkJson();
  ASSERT_FALSE(json.empty());
  for (const Workload& w : workloads())
    EXPECT_TRUE(declares(json, std::string(w.name))) << w.name;

  const Workload& w = *findWorkload("mesh8_vc4_qos");
  const NetworkSetup setup = makeSetup(w, kReferenceSeed, 0, true);
  std::vector<RepResult> plain;
  for (unsigned r = 0; r < kReplicas; ++r)
    plain.push_back(runRep(makeSetup(w, kReferenceSeed, r, true)));
  SpanTrace trace;
  const std::vector<std::size_t> starts = {0};
  const std::vector<RepResult> traced = {runRep(setup, {.spans = &trace})};
  for (const Metric& m : endToEnd(setup, plain, {}))
    EXPECT_TRUE(declares(json, m.name)) << m.name;
  for (const Metric& m : perLayer(setup, plain, traced, trace, starts))
    EXPECT_TRUE(declares(json, m.name)) << m.name;
}

}  // namespace
}  // namespace perfbench
