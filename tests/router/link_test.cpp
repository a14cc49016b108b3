// Link unit tests over bare channel wires, with and without a fault model.
#include "router/link.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <optional>
#include <vector>

#include "sim/compile.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace rasoc::router {
namespace {

struct LinkRig {
  explicit LinkRig(double faultRate = -1.0, int dataBits = 16)
      : link(std::make_unique<Link>(faultRate < 0.0 ? "link" : "flink", src,
                                    dst)) {
    if (faultRate >= 0.0) link->enableFaults(dataBits, faultRate, 77);
    sim.add(*link);
    sim.reset();
  }

  // Presents one flit upstream with the sink always ready, steps a cycle.
  void transfer(std::uint32_t data, bool bop, bool eop) {
    src.flit.data.force(data);
    src.flit.bop.force(bop);
    src.flit.eop.force(eop);
    src.val.force(true);
    dst.ack.force(true);
    sim.settle();
    sim.step();
  }

  ChannelWires src, dst;
  std::unique_ptr<Link> link;
  sim::Simulator sim;
};

TEST(LinkTest, ForwardsDataAndFraming) {
  LinkRig rig;
  rig.src.flit.data.force(0xbeef);
  rig.src.flit.bop.force(true);
  rig.src.flit.eop.force(false);
  rig.src.val.force(true);
  rig.sim.settle();
  EXPECT_EQ(rig.dst.flit.data.get(), 0xbeefu);
  EXPECT_TRUE(rig.dst.flit.bop.get());
  EXPECT_FALSE(rig.dst.flit.eop.get());
  EXPECT_TRUE(rig.dst.val.get());
}

TEST(LinkTest, AckTravelsUpstream) {
  LinkRig rig;
  rig.dst.ack.force(true);
  rig.sim.settle();
  EXPECT_TRUE(rig.src.ack.get());
  rig.dst.ack.force(false);
  rig.sim.settle();
  EXPECT_FALSE(rig.src.ack.get());
}

TEST(LinkTest, CountsOnlyAcknowledgedTransfers) {
  LinkRig rig;
  rig.src.val.force(true);
  rig.dst.ack.force(false);  // stalled
  rig.sim.settle();
  rig.sim.step();
  EXPECT_EQ(rig.link->flitsTransferred(), 0u);
  rig.dst.ack.force(true);
  rig.sim.settle();
  rig.sim.step();
  EXPECT_EQ(rig.link->flitsTransferred(), 1u);
  EXPECT_DOUBLE_EQ(rig.link->utilization(2), 0.5);
}

TEST(FaultyLinkUnitTest, AlwaysFlipCorruptsEveryPayloadFlit) {
  LinkRig rig(/*faultRate=*/1.0);
  for (int i = 0; i < 20; ++i) rig.transfer(0x0, /*bop=*/false, false);
  auto* faulty = rig.link.get();
  ASSERT_NE(faulty, nullptr);
  EXPECT_EQ(faulty->flitsCorrupted(), 20u);
}

TEST(FaultyLinkUnitTest, CorruptionIsExactlyOneBit) {
  LinkRig rig(1.0);
  for (int i = 0; i < 50; ++i) {
    rig.src.flit.data.force(0x0);
    rig.src.flit.bop.force(false);
    rig.src.flit.eop.force(false);
    rig.src.val.force(true);
    rig.dst.ack.force(true);
    rig.sim.settle();
    const std::uint32_t received = rig.dst.flit.data.get();
    EXPECT_EQ(std::popcount(received), 1) << "flit " << i;
    EXPECT_LT(received, 1u << 16) << "flip stays inside the data bits";
    rig.sim.step();
  }
}

TEST(FaultyLinkUnitTest, HeadersPassClean) {
  LinkRig rig(1.0);
  rig.src.flit.data.force(0x1234);
  rig.src.flit.bop.force(true);
  rig.src.val.force(true);
  rig.dst.ack.force(true);
  rig.sim.settle();
  EXPECT_EQ(rig.dst.flit.data.get(), 0x1234u);
  rig.sim.step();
  auto* faulty = rig.link.get();
  EXPECT_EQ(faulty->flitsCorrupted(), 0u);
}

TEST(FaultyLinkUnitTest, EvaluateIsIdempotentWithinACycle) {
  // The fixpoint loop re-runs evaluate(); the injected mask must not
  // change between passes of the same cycle.
  LinkRig rig(1.0);
  rig.src.flit.data.force(0x0);
  rig.src.flit.bop.force(false);
  rig.src.val.force(true);
  rig.dst.ack.force(true);
  rig.sim.settle();
  const std::uint32_t first = rig.dst.flit.data.get();
  rig.sim.settle();
  rig.sim.settle();
  EXPECT_EQ(rig.dst.flit.data.get(), first);
}

TEST(FaultyLinkUnitTest, ResetRestoresDeterministicSequence) {
  auto corrupt = [](LinkRig& rig, int flits) {
    std::vector<std::uint32_t> seen;
    for (int i = 0; i < flits; ++i) {
      rig.src.flit.data.force(0);
      rig.src.flit.bop.force(false);
      rig.src.val.force(true);
      rig.dst.ack.force(true);
      rig.sim.settle();
      seen.push_back(rig.dst.flit.data.get());
      rig.sim.step();
    }
    return seen;
  };
  LinkRig rig(0.5);
  const auto first = corrupt(rig, 30);
  rig.sim.reset();
  const auto second = corrupt(rig, 30);
  EXPECT_EQ(first, second);
}

// One bare link per settle kernel, its input wires driven at random.
// With `windows` the link has a fault model whose windows cover every kind
// (and a StuckAck inside a LinkDown), so every branch of the lowered ops
// meets the behavioural evaluate() and clockEdge() on the same inputs;
// without, it is an ideal link, which pins the plain copy ops and the
// shared edge body.
struct KernelTwin {
  KernelTwin(sim::Simulator::Kernel kernel, FlowControl flowControl,
             int numVCs, const std::optional<std::vector<FaultWindow>>& windows)
      : link("flink", src, dst, flowControl, numVCs) {
    if (windows) link.enableFaults(16, 0.05, 91, *windows);
    sim.setKernel(kernel);
    sim.add(link);
    sim.reset();
  }

  ChannelWires src, dst;
  Link link;
  sim::Simulator sim;
};

void expectCompiledMatchesNaive(
    FlowControl flowControl, int numVCs,
    const std::optional<std::vector<FaultWindow>>& windows) {
  KernelTwin naive(sim::Simulator::Kernel::Naive, flowControl, numVCs,
                   windows);
  KernelTwin compiled(sim::Simulator::Kernel::Compiled, flowControl, numVCs,
                      windows);
  sim::Xoshiro256 rng(5);
  for (int cycle = 0; cycle < 400; ++cycle) {
    const auto data = static_cast<std::uint32_t>(rng.below(1u << 16));
    const bool bop = rng.chance(0.25);
    const bool eop = !bop && rng.chance(0.25);
    const bool val = rng.chance(0.7);
    const bool ack = rng.chance(0.6);
    const int vc = static_cast<int>(rng.below(2));
    std::array<bool, 2> free{rng.chance(0.7), rng.chance(0.7)};
    std::array<bool, 2> credit{rng.chance(0.3), rng.chance(0.3)};
    for (KernelTwin* t : {&naive, &compiled}) {
      t->src.flit.data.force(data);
      t->src.flit.bop.force(bop);
      t->src.flit.eop.force(eop);
      t->src.val.force(val);
      if (numVCs == 1) {
        t->dst.ack.force(ack);
      } else {
        t->src.vc.force(vc);
        for (std::size_t v = 0; v < 2; ++v) {
          t->dst.vcFree[v].force(free[v]);
          t->dst.vcAck[v].force(credit[v]);
        }
      }
      t->sim.settle();
    }
    ASSERT_EQ(naive.dst.flit.data.get(), compiled.dst.flit.data.get())
        << "cycle " << cycle;
    ASSERT_EQ(naive.dst.flit.bop.get(), compiled.dst.flit.bop.get());
    ASSERT_EQ(naive.dst.flit.eop.get(), compiled.dst.flit.eop.get());
    ASSERT_EQ(naive.dst.val.get(), compiled.dst.val.get()) << cycle;
    if (numVCs == 1) {
      ASSERT_EQ(naive.src.ack.get(), compiled.src.ack.get()) << cycle;
    } else {
      ASSERT_EQ(naive.dst.vc.get(), compiled.dst.vc.get()) << cycle;
      for (std::size_t v = 0; v < 2; ++v) {
        ASSERT_EQ(naive.src.vcFree[v].get(), compiled.src.vcFree[v].get())
            << cycle;
        if (flowControl == FlowControl::CreditBased) {
          ASSERT_EQ(naive.src.vcAck[v].get(), compiled.src.vcAck[v].get())
              << cycle;
        }
      }
    }
    naive.sim.step();
    compiled.sim.step();
    ASSERT_EQ(naive.link.flitsTransferred(), compiled.link.flitsTransferred())
        << cycle;
    ASSERT_EQ(naive.link.flitsCorrupted(), compiled.link.flitsCorrupted());
    ASSERT_EQ(naive.link.flitsDropped(), compiled.link.flitsDropped());
    ASSERT_EQ(naive.link.stallCycles(), compiled.link.stallCycles());
  }
  EXPECT_GT(compiled.link.flitsTransferred(), 0u);
  if (!windows) {
    EXPECT_EQ(compiled.link.flitsCorrupted(), 0u);
    EXPECT_EQ(compiled.link.flitsDropped(), 0u);
    EXPECT_EQ(compiled.link.stallCycles(), 0u);
  } else {
    EXPECT_GT(compiled.link.flitsCorrupted(), 0u);
    if (windows->size() > 1) {
      EXPECT_GT(compiled.link.stallCycles(), 0u);
      // Only a single-VC LinkDown window consumes body flits.
      if (numVCs == 1) {
        EXPECT_GT(compiled.link.flitsDropped(), 0u);
      }
    }
  }
  const sim::CompiledProgram* prog = compiled.sim.compiledProgram();
  ASSERT_NE(prog, nullptr);
  EXPECT_EQ(prog->thunkCount(), 0u);
  EXPECT_EQ(prog->edgeCallCount(), 0u);
}

std::vector<FaultWindow> everyWindowKind() {
  using Kind = FaultWindow::Kind;
  return {{Kind::Corrupt, 0, 400, 0.3},
          {Kind::StuckAck, 20, 40, 1.0},
          {Kind::LinkDown, 100, 80, 1.0},
          {Kind::StuckAck, 140, 20, 1.0}};
}

TEST(FaultyLinkUnitTest, CompiledOpsMatchTheBehaviouralLink) {
  {
    SCOPED_TRACE("handshake vc1");
    expectCompiledMatchesNaive(FlowControl::Handshake, 1, everyWindowKind());
  }
  {
    SCOPED_TRACE("credit vc1, corruption only");
    expectCompiledMatchesNaive(FlowControl::CreditBased, 1,
                               std::vector{everyWindowKind().front()});
  }
  for (FlowControl fc : {FlowControl::Handshake, FlowControl::CreditBased}) {
    SCOPED_TRACE("vc2");
    expectCompiledMatchesNaive(fc, 2, everyWindowKind());
  }
  // Ideal links: the plain copy ops and edge op against evaluate() and
  // clockEdge(), with every fault counter at zero.
  {
    SCOPED_TRACE("ideal handshake vc1");
    expectCompiledMatchesNaive(FlowControl::Handshake, 1, std::nullopt);
  }
  {
    SCOPED_TRACE("ideal credit vc1");
    expectCompiledMatchesNaive(FlowControl::CreditBased, 1, std::nullopt);
  }
  for (FlowControl fc : {FlowControl::Handshake, FlowControl::CreditBased}) {
    SCOPED_TRACE("ideal vc2");
    expectCompiledMatchesNaive(fc, 2, std::nullopt);
  }
}

}  // namespace
}  // namespace rasoc::router
