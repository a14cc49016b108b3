#include "noc/stats.hpp"

#include <gtest/gtest.h>

namespace rasoc::noc {
namespace {

TEST(DeliveryLedgerTest, MatchesInjectionsToDeliveriesPerFlow) {
  DeliveryLedger ledger;
  const NodeId a{0, 0}, b{1, 0};
  PacketRecord r;
  r.src = a;
  r.dst = b;
  r.createdCycle = 10;
  r.flits = 4;
  ledger.onQueued(r);
  ledger.onHeaderInjected(a, b, 12);
  const PacketRecord closed = ledger.onDelivered(a, b, 20);
  EXPECT_EQ(closed.createdCycle, 10u);
  EXPECT_EQ(closed.injectedCycle, 12u);
  EXPECT_EQ(ledger.delivered(), 1u);
  EXPECT_EQ(ledger.flitsDelivered(), 4u);
  EXPECT_EQ(ledger.inFlight(), 0u);
  ASSERT_EQ(ledger.packetLatency().count(), 1u);
  EXPECT_DOUBLE_EQ(ledger.packetLatency().mean(), 10.0);
  EXPECT_DOUBLE_EQ(ledger.networkLatency().mean(), 8.0);
}

TEST(DeliveryLedgerTest, FifoOrderWithinAFlow) {
  DeliveryLedger ledger;
  const NodeId a{0, 0}, b{1, 1};
  for (int i = 0; i < 3; ++i) {
    PacketRecord r;
    r.src = a;
    r.dst = b;
    r.createdCycle = static_cast<std::uint64_t>(i);
    r.flits = 1;
    ledger.onQueued(r);
  }
  ledger.onHeaderInjected(a, b, 5);
  ledger.onHeaderInjected(a, b, 6);
  EXPECT_EQ(ledger.onDelivered(a, b, 9).createdCycle, 0u);
  EXPECT_EQ(ledger.onDelivered(a, b, 10).createdCycle, 1u);
}

TEST(DeliveryLedgerTest, WarmupExcludesEarlyPackets) {
  DeliveryLedger ledger;
  ledger.setWarmupCycles(100);
  const NodeId a{0, 0}, b{1, 0};
  PacketRecord early;
  early.src = a;
  early.dst = b;
  early.createdCycle = 50;
  early.flits = 2;
  ledger.onQueued(early);
  ledger.onHeaderInjected(a, b, 51);
  ledger.onDelivered(a, b, 60);
  EXPECT_EQ(ledger.packetLatency().count(), 0u);
  EXPECT_EQ(ledger.delivered(), 1u);

  PacketRecord late = early;
  late.createdCycle = 200;
  ledger.onQueued(late);
  ledger.onHeaderInjected(a, b, 201);
  ledger.onDelivered(a, b, 215);
  EXPECT_EQ(ledger.packetLatency().count(), 1u);
}

TEST(DeliveryLedgerTest, ErrorsOnProtocolViolations) {
  DeliveryLedger ledger;
  const NodeId a{0, 0}, b{1, 0};
  EXPECT_THROW(ledger.onDelivered(a, b, 1), std::logic_error);
  EXPECT_THROW(ledger.onHeaderInjected(a, b, 1), std::logic_error);
  PacketRecord r;
  r.src = a;
  r.dst = b;
  r.flits = 1;
  ledger.onQueued(r);
  // Delivered before its header was ever injected.
  EXPECT_THROW(ledger.onDelivered(a, b, 2), std::logic_error);
}

TEST(DeliveryLedgerTest, DiscardOpenDropsOpenPacketsFromTheCounts) {
  DeliveryLedger ledger;
  const NodeId a{0, 0}, b{1, 0};
  for (int cls : {-1, 2, 2}) {
    PacketRecord r;
    r.src = a;
    r.dst = b;
    r.createdCycle = 90;
    r.flits = 2;
    r.trafficClass = cls;
    ledger.onQueued(r);
  }
  ledger.onHeaderInjected(a, b, 91);
  ledger.onDelivered(a, b, 95);  // the untagged packet
  ledger.onHeaderInjected(a, b, 92, 2);  // one class-2 packet in flight
  ledger.discardOpen();
  EXPECT_EQ(ledger.queued(), 1u);
  EXPECT_EQ(ledger.delivered(), 1u);
  EXPECT_EQ(ledger.inFlight(), 0u);
  EXPECT_EQ(ledger.queued(router::TrafficClass::Latency), 0u);
  EXPECT_FALSE(ledger.tryDeliver(a, b, 3, 2)) << "no stale record is left";
  // A packet queued after the discard closes its own record.
  PacketRecord fresh;
  fresh.src = a;
  fresh.dst = b;
  fresh.createdCycle = 1;
  fresh.flits = 2;
  ledger.onQueued(fresh);
  ledger.onHeaderInjected(a, b, 2);
  ledger.onDelivered(a, b, 7);
  EXPECT_DOUBLE_EQ(ledger.packetLatency().max(), 6.0);
}

TEST(DeliveryLedgerTest, ClosedFlowsLeaveNoEntryBehind) {
  // Uniform traffic opens a new (src, dst, class) flow with almost every
  // packet; a flow whose packets all closed must not keep its entry.
  DeliveryLedger ledger;
  for (int x = 0; x < 16; ++x) {
    for (int y = 0; y < 16; ++y) {
      for (int cls : {-1, 1}) {
        const NodeId src{x, 0}, dst{y, 1};
        for (int k = 0; k < 2; ++k) {
          PacketRecord r;
          r.src = src;
          r.dst = dst;
          r.flits = 3;
          r.trafficClass = cls;
          ledger.onQueued(r);
        }
        ledger.onHeaderInjected(src, dst, 1, cls);
        ledger.onDelivered(src, dst, 5, cls);
        EXPECT_EQ(ledger.openFlows(), 1u) << "one packet is still open";
        ledger.onHeaderInjected(src, dst, 2, cls);
        EXPECT_TRUE(ledger.tryDeliver(src, dst, 6, cls));
        EXPECT_EQ(ledger.openFlows(), 0u);
      }
    }
  }
  EXPECT_EQ(ledger.delivered(), 2u * 16 * 16 * 2);
  EXPECT_EQ(ledger.inFlight(), 0u);
  EXPECT_EQ(ledger.openFlows(), 0u);
  // A closed flow reopens cleanly.
  PacketRecord again;
  again.src = NodeId{3, 0};
  again.dst = NodeId{4, 1};
  again.flits = 1;
  ledger.onQueued(again);
  EXPECT_EQ(ledger.openFlows(), 1u);
  ledger.onHeaderInjected(again.src, again.dst, 10);
  ledger.onDelivered(again.src, again.dst, 12);
  EXPECT_EQ(ledger.openFlows(), 0u);
}

TEST(DeliveryLedgerTest, ThroughputAccounting) {
  DeliveryLedger ledger;
  const NodeId a{0, 0}, b{1, 0};
  for (int i = 0; i < 10; ++i) {
    PacketRecord r;
    r.src = a;
    r.dst = b;
    r.createdCycle = static_cast<std::uint64_t>(i);
    r.flits = 8;
    ledger.onQueued(r);
    ledger.onHeaderInjected(a, b, static_cast<std::uint64_t>(i));
    ledger.onDelivered(a, b, static_cast<std::uint64_t>(i + 20));
  }
  // 80 flits over 100 cycles across 2 nodes = 0.4 flits/cycle/node.
  EXPECT_DOUBLE_EQ(ledger.throughputFlitsPerCyclePerNode(100, 2), 0.4);
  EXPECT_EQ(ledger.throughputFlitsPerCyclePerNode(0, 2), 0.0);
}

}  // namespace
}  // namespace rasoc::noc
