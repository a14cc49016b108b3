// Robustness and scale: progress watchdog, 8x8 meshes (the largest the
// 8-bit RIB addresses).
#include <gtest/gtest.h>

#include "noc/network.hpp"
#include "noc/observe.hpp"
#include "noc/watchdog.hpp"

namespace rasoc::noc {
namespace {

TEST(WatchdogTest, QuietNetworkNeverTrips) {
  const MeshShape shape{2, 2};
  NetworkConfig cfg;
  Network mesh(std::make_shared<MeshTopology>(shape), cfg);
  Watchdog dog("dog", mesh.ledger(), 50);
  mesh.simulator().add(dog);
  mesh.run(500);  // nothing in flight: idle is not a stall
  EXPECT_FALSE(dog.stallDetected());
}

TEST(WatchdogTest, DetectsAnArtificialStall) {
  // Queue a packet into the ledger that nobody will ever deliver.
  DeliveryLedger ledger;
  PacketRecord r;
  r.src = NodeId{0, 0};
  r.dst = NodeId{1, 0};
  r.flits = 2;
  ledger.onQueued(r);
  Watchdog dog("dog", ledger, 20);
  sim::Simulator sim;
  sim.add(dog);
  sim.reset();
  sim.run(100);
  EXPECT_TRUE(dog.stallDetected());
  EXPECT_GE(dog.longestStall(), 20u);
}

TEST(WatchdogTest, SnapshotCapturesStallForensics) {
  // One delivery at a known watchdog cycle, then a packet that never
  // completes: the snapshot must pin down when progress stopped and how
  // much was stuck.
  DeliveryLedger ledger;
  const NodeId a{0, 0}, b{1, 0};
  PacketRecord r;
  r.src = a;
  r.dst = b;
  r.flits = 1;
  ledger.onQueued(r);
  ledger.onHeaderInjected(a, b, 0);
  Watchdog dog("dog", ledger, 20);
  sim::Simulator sim;
  sim.add(dog);
  sim.reset();
  sim.run(5);
  ledger.onDelivered(a, b, 5);  // observed on watchdog cycle 6
  ledger.onQueued(r);           // and this one is stuck forever
  sim.run(100);
  const WatchdogSnapshot& snapshot = dog.snapshot();
  EXPECT_TRUE(snapshot.stalled);
  EXPECT_EQ(snapshot.lastDeliveryCycle, 6u);
  EXPECT_EQ(snapshot.stallCycle, 26u);  // last delivery + timeout
  EXPECT_EQ(snapshot.inFlightAtStall, 1u);
  EXPECT_GE(snapshot.longestStall, 20u);
}

TEST(WatchdogTest, ForcedStallSnapshotReachesTheRunReport) {
  const MeshShape shape{2, 2};
  NetworkConfig cfg;
  Network mesh(std::make_shared<MeshTopology>(shape), cfg);
  Watchdog dog("dog", mesh.ledger(), 30);
  mesh.simulator().add(dog);
  mesh.ni(NodeId{0, 0}).send(NodeId{1, 1}, {0x1});
  ASSERT_TRUE(mesh.drain(500));
  // Force a stall: ledger sees a packet that no NI will ever deliver.
  PacketRecord phantom;
  phantom.src = NodeId{0, 0};
  phantom.dst = NodeId{1, 1};
  phantom.flits = 1;
  mesh.ledger().onQueued(phantom);
  mesh.run(200);
  ASSERT_TRUE(dog.stallDetected());
  const std::string json = buildRunReport("stall", mesh, &dog).toJson();
  EXPECT_NE(json.find("\"stalled\": true"), std::string::npos);
  EXPECT_NE(json.find("\"in_flight_at_stall\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"stall_cycle\": "), std::string::npos);
  EXPECT_NE(json.find("\"last_delivery_cycle\": "), std::string::npos);
  EXPECT_NE(json.find("\"longest_stall\": "), std::string::npos);
}

TEST(WatchdogTest, DeliveriesKeepResettingTheTimer) {
  const MeshShape shape{3, 3};
  NetworkConfig cfg;
  cfg.params.n = 16;
  Network mesh(std::make_shared<MeshTopology>(shape), cfg);
  Watchdog dog("dog", mesh.ledger(), 200);
  mesh.simulator().add(dog);
  TrafficConfig traffic;
  traffic.offeredLoad = 0.2;
  traffic.seed = 21;
  mesh.attachTraffic(traffic);
  mesh.run(3000);
  EXPECT_FALSE(dog.stallDetected());
  EXPECT_LT(dog.longestStall(), 100u);
}

TEST(ScaleTest, EightByEightSaturatedMeshStaysDeadlockFree) {
  // 8x8 is the largest mesh an 8-bit RIB can address (offsets up to 7).
  const MeshShape shape{8, 8};
  NetworkConfig cfg;
  cfg.params.n = 16;
  cfg.params.p = 2;
  Network mesh(std::make_shared<MeshTopology>(shape), cfg);
  Watchdog dog("dog", mesh.ledger(), 500);
  mesh.simulator().add(dog);
  TrafficConfig traffic;
  traffic.offeredLoad = 1.0;  // saturating
  traffic.payloadFlits = 4;
  traffic.seed = 8;
  mesh.attachTraffic(traffic);
  mesh.run(1200);
  EXPECT_TRUE(mesh.healthy());
  EXPECT_FALSE(dog.stallDetected()) << "longest stall "
                                    << dog.longestStall();
  EXPECT_GT(mesh.ledger().delivered(), 200u);
}

TEST(ResetTest, LedgerForgetsThePacketsTheResetWiped) {
  // reset() clears every NI queue and in-flight flit, so the ledger must
  // drop their open records: left in place, the first post-reset packets
  // of each flow closed a stale record created late in the first leg, and
  // the latency wrapped around to ~2^64 while drain() never saw the
  // network empty again.
  NetworkConfig cfg;
  cfg.params.n = 16;
  Network mesh(std::make_shared<MeshTopology>(MeshShape{3, 3}), cfg);
  TrafficConfig traffic;
  traffic.offeredLoad = 0.3;
  traffic.payloadFlits = 4;
  traffic.seed = 5;
  mesh.attachTraffic(traffic);
  mesh.run(400);
  ASSERT_GT(mesh.ledger().inFlight(), 0u);
  const std::uint64_t delivered = mesh.ledger().delivered();

  mesh.reset();
  EXPECT_EQ(mesh.ledger().inFlight(), 0u);
  EXPECT_EQ(mesh.ledger().queued(), delivered);
  EXPECT_EQ(mesh.ledger().delivered(), delivered) << "totals accumulate";

  mesh.run(400);
  mesh.pauseTraffic(true);
  ASSERT_TRUE(mesh.drain(5000));
  EXPECT_GT(mesh.ledger().delivered(), delivered);
  EXPECT_LE(mesh.ledger().packetLatency().max(),
            static_cast<double>(mesh.simulator().cycle()));
}

TEST(ScaleTest, AsymmetricMeshesWork) {
  for (auto [w, h] : {std::pair{8, 1}, std::pair{1, 8}, std::pair{5, 2}}) {
    NetworkConfig cfg;
    cfg.params.n = 16;
    Network mesh(std::make_shared<MeshTopology>(MeshShape{w, h}), cfg);
    mesh.ni(NodeId{0, 0}).send(NodeId{w - 1, h - 1}, {0xab});
    ASSERT_TRUE(mesh.drain(1000)) << w << "x" << h;
    EXPECT_TRUE(mesh.healthy());
    EXPECT_EQ(mesh.ni(NodeId{w - 1, h - 1}).received().size(), 1u);
  }
}

}  // namespace
}  // namespace rasoc::noc
