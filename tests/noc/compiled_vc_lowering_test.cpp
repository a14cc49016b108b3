// Compiled-kernel program shape for virtual-channel networks (DESIGN.md
// §11.2, §12.3).
//
//  1. Program-shape gate — a fault-free network levelizes to one linear
//     op tape at every VC count, QoS setting and flow-control mode: no
//     iterated segment and no thunk.  Credit flow control is the trap
//     case: a unit that drove both vcFree and vcAck would close a cycle
//     through the neighbouring router or the NI.  The edge tape falls back
//     to behavioural clockEdge() calls only for the documented residue
//     (the NIs and traffic generators; no router channel).  Each
//     configuration also runs against an event-driven twin, so a lowering
//     that levelizes but computes the wrong function fails here too.
//     The gate extends to the fault workload: an 8x8 torus with HLP
//     parity, reliable transport, a fault campaign, telemetry and the flow
//     tracer lowers to the same shape, every faulted link included.
//  2. Telemetry after the first settle — attaching VC channel metrics must
//     invalidate the compiled program (Module::noteDescribeChanged), and
//     the counters of a run whose telemetry was enabled after cycle 0 must
//     match an event-driven twin's.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "noc/fault.hpp"
#include "noc/flow_trace.hpp"
#include "noc/network.hpp"
#include "noc/topology.hpp"
#include "router/params.hpp"
#include "router/rasoc.hpp"
#include "sim/compile.hpp"
#include "telemetry/metrics.hpp"

namespace rasoc::noc {
namespace {

using router::FlowControl;
using router::TrafficClass;
using sim::Simulator;

struct Shape {
  std::string topology;
  int numVCs;
  bool qos;
  FlowControl flowControl;
};

std::string label(const Shape& s) {
  return s.topology + " vc" + std::to_string(s.numVCs) +
         (s.qos ? " qos" : "") +
         (s.flowControl == FlowControl::CreditBased ? " credit"
                                                     : " handshake");
}

std::unique_ptr<Network> build(const Shape& s, Simulator::Kernel kernel) {
  NetworkConfig cfg;
  cfg.params.n = 16;
  cfg.params.p = 4;
  cfg.params.numVCs = s.numVCs;
  cfg.params.qosClasses = s.qos;
  cfg.params.flowControl = s.flowControl;
  cfg.kernel = kernel;
  auto net = std::make_unique<Network>(
      makeTopology(s.topology, s.topology == "ring" ? 8 : 4,
                   s.topology == "ring" ? 1 : 4),
      cfg);
  if (s.qos) {
    FlowSpec control;
    control.trafficClass = TrafficClass::Control;
    control.traffic.offeredLoad = 0.05;
    control.traffic.payloadFlits = 2;
    control.traffic.seed = 71;
    FlowSpec bulk;
    bulk.trafficClass = TrafficClass::Bulk;
    bulk.traffic.offeredLoad = 0.40;
    bulk.traffic.payloadFlits = 4;
    bulk.traffic.seed = 72;
    net->attachTraffic(std::vector<FlowSpec>{control, bulk});
  } else {
    TrafficConfig traffic;
    traffic.offeredLoad = 0.30;
    traffic.payloadFlits = 3;
    traffic.seed = 73;
    net->attachTraffic(traffic);
  }
  return net;
}

// Every supported shape: QoS needs two adaptive VCs above the escape layer
// (one escape VC on a mesh, two on wrapping topologies), so it only pairs
// with numVCs == 4 here.
std::vector<Shape> allShapes() {
  std::vector<Shape> shapes;
  for (const char* topo : {"mesh", "torus", "ring"})
    for (FlowControl fc : {FlowControl::Handshake, FlowControl::CreditBased}) {
      for (int vcs : {1, 2, 4}) shapes.push_back({topo, vcs, false, fc});
      shapes.push_back({topo, 4, true, fc});
    }
  return shapes;
}

TEST(CompiledVcLoweringTest, FaultFreeNetworksLevelizeToOneLinearTape) {
  for (const Shape& shape : allShapes()) {
    SCOPED_TRACE(label(shape));
    auto compiled = build(shape, Simulator::Kernel::Compiled);
    auto reference = build(shape, Simulator::Kernel::EventDriven);
    compiled->run(300);
    reference->run(300);

    const sim::CompiledProgram* prog =
        compiled->simulator().compiledProgram();
    ASSERT_NE(prog, nullptr);
    EXPECT_EQ(prog->iterateSegmentCount(), 0u);
    // Every module's settle half lowers to ops, the single-VC NI included.
    EXPECT_EQ(prog->thunkCount(), 0u);
    EXPECT_EQ(prog->opCount(), prog->unitCount());
    // The documented edge residue: one clockEdge() call per NI and per
    // traffic generator (one generator per flow and node); every channel
    // edge is an edge op.
    const auto nodes = static_cast<std::size_t>(compiled->topology().nodes());
    const std::size_t flows = shape.qos ? 2 : 1;
    EXPECT_EQ(prog->edgeCallCount(), nodes + flows * nodes);

    EXPECT_TRUE(compiled->healthy());
    EXPECT_GT(compiled->ledger().delivered(), 0u);
    EXPECT_EQ(compiled->ledger().queued(), reference->ledger().queued());
    EXPECT_EQ(compiled->ledger().delivered(), reference->ledger().delivered());
    EXPECT_EQ(compiled->ledger().flitsDelivered(),
              reference->ledger().flitsDelivered());
    EXPECT_DOUBLE_EQ(compiled->meanLinkUtilization(),
                     reference->meanLinkUtilization());
  }
}

// The traced fault workload: 8x8 torus, HLP parity, reliable transport, a
// campaign of corruption, stall and outage windows on every link, telemetry
// and the flow tracer.
std::unique_ptr<Network> buildFaultTorus(
    Simulator::Kernel kernel, telemetry::MetricsRegistry& registry) {
  const auto topo = makeTopology("torus", 8, 8);
  NetworkConfig cfg;
  cfg.params.n = 16;
  cfg.params.p = 4;
  cfg.kernel = kernel;
  cfg.hlpParity = true;
  cfg.reliability.enabled = true;
  cfg.reliability.seqBits = 6;
  cfg.reliability.window = 8;
  cfg.reliability.rtoInitial = 128;
  cfg.reliability.rtoMax = 2048;
  cfg.reliability.nackMinInterval = 16;
  CampaignConfig campaign;
  campaign.horizon = 600;
  campaign.corruptRate = 0.005;
  campaign.corruptLinkFraction = 1.0;
  campaign.stallEvents = 24;
  campaign.dropEvents = 6;
  campaign.minDuration = 8;
  campaign.maxDuration = 32;
  campaign.seed = 0x7075;
  cfg.faultPlan = makeFaultPlan(*topo, campaign);
  auto net = std::make_unique<Network>(topo, cfg);
  TrafficConfig traffic;
  traffic.offeredLoad = 0.06;
  traffic.payloadFlits = 6;
  traffic.seed = 74;
  net->attachTraffic(traffic);
  net->enableTelemetry(registry);
  net->enableTracing();
  return net;
}

TEST(CompiledVcLoweringTest, TracedFaultTorusLowersWithoutThunks) {
  telemetry::MetricsRegistry compiledMetrics;
  telemetry::MetricsRegistry referenceMetrics;
  auto compiled = buildFaultTorus(Simulator::Kernel::Compiled,
                                  compiledMetrics);
  auto reference = buildFaultTorus(Simulator::Kernel::EventDriven,
                                   referenceMetrics);
  compiled->run(600);
  reference->run(600);

  const sim::CompiledProgram* prog = compiled->simulator().compiledProgram();
  ASSERT_NE(prog, nullptr);
  EXPECT_EQ(prog->thunkCount(), 0u);
  EXPECT_EQ(prog->iterateSegmentCount(), 0u);
  EXPECT_EQ(prog->opCount(), prog->unitCount());
  // Channel and fault-link edges are edge ops with telemetry attached; one
  // clockEdge() call per NI and per generator (one flow) remains.
  const auto nodes = static_cast<std::size_t>(compiled->topology().nodes());
  const std::size_t flows = 1;
  EXPECT_EQ(prog->edgeCallCount(), nodes + flows * nodes);

  EXPECT_GT(reference->flitsCorrupted(), 0u);
  EXPECT_GT(reference->faultStallCycles(), 0u);
  EXPECT_EQ(compiled->flitsCorrupted(), reference->flitsCorrupted());
  EXPECT_EQ(compiled->flitsDropped(), reference->flitsDropped());
  EXPECT_EQ(compiled->faultStallCycles(), reference->faultStallCycles());
  EXPECT_EQ(compiled->ledger().delivered(), reference->ledger().delivered());
  EXPECT_EQ(compiled->reliabilityStats().retransmissions,
            reference->reliabilityStats().retransmissions);
  ASSERT_EQ(compiledMetrics.counters().size(),
            referenceMetrics.counters().size());
  for (const auto& [name, counter] : referenceMetrics.counters())
    EXPECT_EQ(compiledMetrics.counterValue(name, ~0ull), counter.value())
        << name;
  EXPECT_GT(reference->tracer()->packetsCompleted(), 0u);
  EXPECT_EQ(compiled->tracer()->perfettoJson(),
            reference->tracer()->perfettoJson());
}

// Counts describeChanged() notifications from modules bound to it.
class DescribeSpy : public sim::EvalScheduler {
 public:
  void enqueueDirty(sim::Module*) override {}
  void describeChanged() override { ++changes; }
  int changes = 0;
};

void bindTree(sim::Module& m, sim::EvalScheduler* scheduler) {
  m.bindScheduler(scheduler);
  for (sim::Module* child : m.children()) bindTree(*child, scheduler);
}

TEST(CompiledVcLoweringTest, AttachingChannelMetricsInvalidatesTheProgram) {
  for (int vcs : {1, 2, 4}) {
    SCOPED_TRACE("vc" + std::to_string(vcs));
    router::RouterParams params;
    params.numVCs = vcs;
    router::Rasoc r("r", params);
    DescribeSpy spy;
    bindTree(r, &spy);
    telemetry::MetricsRegistry registry;
    r.attachMetrics(registry, "r");
    // One notification per input and per output channel.
    EXPECT_EQ(spy.changes, 2 * router::kNumPorts);
  }
}

TEST(CompiledVcLoweringTest, TelemetryEnabledAfterFirstSettleMatchesTwin) {
  const Shape shape{"mesh", 4, false, FlowControl::Handshake};
  auto compiled = build(shape, Simulator::Kernel::Compiled);
  auto reference = build(shape, Simulator::Kernel::EventDriven);
  compiled->simulator().step();
  reference->simulator().step();
  ASSERT_NE(compiled->simulator().compiledProgram(), nullptr);

  telemetry::MetricsRegistry compiledMetrics;
  telemetry::MetricsRegistry referenceMetrics;
  compiled->enableTelemetry(compiledMetrics);
  reference->enableTelemetry(referenceMetrics);
  compiled->run(400);
  reference->run(400);

  ASSERT_EQ(compiledMetrics.counters().size(),
            referenceMetrics.counters().size());
  std::uint64_t routed = 0;
  for (const auto& [name, counter] : referenceMetrics.counters()) {
    EXPECT_EQ(compiledMetrics.counterValue(name, ~0ull), counter.value())
        << name;
    if (name.ends_with(".flits_routed")) routed += counter.value();
  }
  EXPECT_GT(routed, 0u) << "the router counters must actually have counted";
  ASSERT_EQ(compiledMetrics.histograms().size(),
            referenceMetrics.histograms().size());
  for (const auto& [name, histogram] : referenceMetrics.histograms()) {
    const telemetry::Histogram* h = compiledMetrics.findHistogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->bucketCounts(), histogram.bucketCounts()) << name;
  }
}

}  // namespace
}  // namespace rasoc::noc
