// Edge-state lockstep for the virtual-channel router (DESIGN.md §11.2).
//
// The VC channels' clock edges run one commit body under every kernel:
// clockEdge() samples the settled wires, the compiled edge op samples the
// arena.  A compiled network therefore has to agree with an event-driven
// twin on every registered value the edge writes, every cycle, not just
// on end-of-run delivery counts.  This test compares, after each cycle and
// for every channel of every router:
//   - input side:  occupancy(v), occupancySum(v), flitsAccepted();
//   - output side: the connection table (connActive / connInPort /
//     connInVc), starvation(v), flitsSent(v) and, under credit flow
//     control, the credit pool;
// over mesh, torus and ring at VC ∈ {2, 4}, with and without QoS, under
// both flow controls.  Telemetry is attached mid-run, so the metrics hooks
// inside the shared body must count exactly what the twin counts.
//
// The starvation guard is also checked against its own contract, which a
// shared body cannot get wrong in both twins unnoticed: a VC served at an
// edge restarts from zero, and no counter passes the window by more than
// one edge.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "noc/network.hpp"
#include "noc/topology.hpp"
#include "router/params.hpp"
#include "router/rasoc.hpp"
#include "telemetry/metrics.hpp"

namespace rasoc::noc {
namespace {

using router::FlowControl;
using router::Port;
using router::TrafficClass;
using router::VcOutputChannel;
using sim::Simulator;

constexpr std::uint64_t kCycles = 400;
constexpr std::uint64_t kTelemetryAt = 150;

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

std::vector<Shape> allShapes() {
  std::vector<Shape> shapes;
  for (const char* topo : {"mesh", "torus", "ring"})
    for (FlowControl fc : {FlowControl::Handshake, FlowControl::CreditBased}) {
      shapes.push_back({topo, 2, false, fc});
      shapes.push_back({topo, 4, false, fc});
      shapes.push_back({topo, 4, true, fc});
    }
  return shapes;
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
    // A Bulk flood beside a Control trickle keeps the strict-priority
    // scheduler busy, so the starvation guard ages and fires.
    FlowSpec control;
    control.trafficClass = TrafficClass::Control;
    control.traffic.offeredLoad = 0.10;
    control.traffic.payloadFlits = 3;
    control.traffic.seed = 91;
    FlowSpec bulk;
    bulk.trafficClass = TrafficClass::Bulk;
    bulk.traffic.offeredLoad = 0.50;
    bulk.traffic.payloadFlits = 5;
    bulk.traffic.seed = 92;
    net->attachTraffic(std::vector<FlowSpec>{control, bulk});
  } else {
    TrafficConfig traffic;
    traffic.offeredLoad = 0.35;
    traffic.payloadFlits = 4;
    traffic.seed = 93;
    net->attachTraffic(traffic);
  }
  return net;
}

// The first difference in edge-written channel state, or "" when the two
// networks agree.
std::string edgeStateDiff(Network& a, Network& b) {
  std::ostringstream diff;
  auto check = [&](const std::string& what, auto x, auto y) {
    if (diff.tellp() == 0 && x != y)
      diff << what << ": " << x << " vs " << y;
  };
  for (int i = 0; i < a.topology().nodes() && diff.tellp() == 0; ++i) {
    const NodeId n = a.topology().nodeAt(i);
    const router::Rasoc& ra = a.router(n);
    const router::Rasoc& rb = b.router(n);
    for (Port p : router::kAllPorts) {
      if (!ra.params().hasPort(p)) continue;
      const std::string at = "node " + std::to_string(i) + " port " +
                             std::string(router::name(p)) + " ";
      const auto& ia = ra.vcInputChannel(p);
      const auto& ib = rb.vcInputChannel(p);
      check(at + "flitsAccepted", ia.flitsAccepted(), ib.flitsAccepted());
      const auto& oa = ra.vcOutputChannel(p);
      const auto& ob = rb.vcOutputChannel(p);
      for (int v = 0; v < ra.params().numVCs; ++v) {
        const std::string vc = at + "vc " + std::to_string(v) + " ";
        check(vc + "occupancy", ia.occupancy(v), ib.occupancy(v));
        check(vc + "occupancySum", ia.occupancySum(v), ib.occupancySum(v));
        check(vc + "connActive", oa.connActive(v), ob.connActive(v));
        check(vc + "connInPort", oa.connInPort(v), ob.connInPort(v));
        check(vc + "connInVc", oa.connInVc(v), ob.connInVc(v));
        check(vc + "starvation", oa.starvation(v), ob.starvation(v));
        check(vc + "flitsSent", oa.flitsSent(v), ob.flitsSent(v));
        check(vc + "credits", oa.credits().credits(v),
              ob.credits().credits(v));
      }
    }
  }
  return diff.str();
}

// Calls fn(label, channel, v) for every output VC of every router, in a
// fixed order.
template <typename Fn>
void forEachOutputVc(Network& net, Fn fn) {
  for (int i = 0; i < net.topology().nodes(); ++i) {
    const router::Rasoc& r = net.router(net.topology().nodeAt(i));
    for (Port p : router::kAllPorts) {
      if (!r.params().hasPort(p)) continue;
      for (int v = 0; v < r.params().numVCs; ++v)
        fn([=] {
          return "node " + std::to_string(i) + " port " +
                 std::string(router::name(p)) + " vc " + std::to_string(v);
        }, r.vcOutputChannel(p), v);
    }
  }
}

std::vector<std::uint64_t> sentCounts(Network& net) {
  std::vector<std::uint64_t> sent;
  forEachOutputVc(net, [&](auto, const VcOutputChannel& out, int v) {
    sent.push_back(out.flitsSent(v));
  });
  return sent;
}

// The starvation guard's contract over one edge: a served VC restarts
// from zero, every counter stays within one edge of the window, and the
// guard is idle without QoS.  Returns the first breach, or "".
std::string starvationBreach(Network& net, bool qos,
                             const std::vector<std::uint64_t>& sentBefore) {
  constexpr int kBound = VcOutputChannel::kQosStarvationWindow + 1;
  std::string breach;
  std::size_t k = 0;
  forEachOutputVc(net, [&](auto where, const VcOutputChannel& out, int v) {
    const int age = out.starvation(v);
    const bool served = out.flitsSent(v) != sentBefore[k++];
    const bool ok = qos ? age <= kBound && (!served || age == 0) : age == 0;
    if (!ok && breach.empty())
      breach = where() + " starvation " + std::to_string(age) +
               (served ? " after a send" : "");
  });
  return breach;
}

int maxStarvation(Network& net) {
  int age = 0;
  forEachOutputVc(net, [&](auto, const VcOutputChannel& out, int v) {
    age = std::max(age, out.starvation(v));
  });
  return age;
}

TEST(VcEdgeLockstepTest, CompiledEdgesMatchEventDrivenEveryCycle) {
  for (const Shape& shape : allShapes()) {
    SCOPED_TRACE(label(shape));
    auto compiled = build(shape, Simulator::Kernel::Compiled);
    auto reference = build(shape, Simulator::Kernel::EventDriven);
    telemetry::MetricsRegistry compiledMetrics;
    telemetry::MetricsRegistry referenceMetrics;

    int maxAge = 0;
    for (std::uint64_t cycle = 0; cycle < kCycles; ++cycle) {
      if (cycle == kTelemetryAt) {
        compiled->enableTelemetry(compiledMetrics);
        reference->enableTelemetry(referenceMetrics);
      }
      const std::vector<std::uint64_t> sentBefore = sentCounts(*compiled);
      compiled->simulator().step();
      reference->simulator().step();
      ASSERT_EQ(edgeStateDiff(*compiled, *reference), "")
          << "after cycle " << cycle;
      ASSERT_EQ(starvationBreach(*compiled, shape.qos, sentBefore), "")
          << "after cycle " << cycle;
      maxAge = std::max(maxAge, maxStarvation(*compiled));
    }
    ASSERT_NE(compiled->simulator().compiledProgram(), nullptr);
    EXPECT_TRUE(compiled->healthy());
    EXPECT_GT(compiled->ledger().delivered(), 0u);
    if (shape.qos) {
      EXPECT_GE(maxAge, VcOutputChannel::kQosStarvationWindow)
          << "the starvation guard never fired";
    }

    // The metrics hooks ride inside the shared edge body: every counter
    // and histogram attached mid-run matches the twin's.
    ASSERT_EQ(compiledMetrics.counters().size(),
              referenceMetrics.counters().size());
    std::uint64_t grants = 0;
    for (const auto& [name, counter] : referenceMetrics.counters()) {
      EXPECT_EQ(compiledMetrics.counterValue(name, ~0ull), counter.value())
          << name;
      if (name.ends_with(".grants")) grants += counter.value();
    }
    EXPECT_GT(grants, 0u) << "the VC allocator must have counted grants";
    ASSERT_EQ(compiledMetrics.histograms().size(),
              referenceMetrics.histograms().size());
    for (const auto& [name, histogram] : referenceMetrics.histograms()) {
      const telemetry::Histogram* h = compiledMetrics.findHistogram(name);
      ASSERT_NE(h, nullptr) << name;
      EXPECT_EQ(h->bucketCounts(), histogram.bucketCounts()) << name;
    }
  }
}

}  // namespace
}  // namespace rasoc::noc
