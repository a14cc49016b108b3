// Statistical behaviour of the traffic machinery: offered load accuracy,
// per-node seeding independence, and link-utilization accessors.
#include <gtest/gtest.h>

#include <algorithm>

#include "noc/network.hpp"

namespace rasoc::noc {
namespace {

TEST(RatesTest, InjectedLoadTracksOfferedLoadWhenUncongested) {
  const MeshShape shape{4, 4};
  NetworkConfig cfg;
  cfg.params.n = 16;
  Network mesh(std::make_shared<MeshTopology>(shape), cfg);
  TrafficConfig traffic;
  traffic.offeredLoad = 0.08;
  traffic.payloadFlits = 6;
  traffic.seed = 51;
  mesh.attachTraffic(traffic);
  const std::uint64_t cycles = 12000;
  mesh.run(cycles);
  // Queued flits per cycle per node across the run.
  std::uint64_t queuedFlits = 0;
  for (int i = 0; i < shape.nodes(); ++i) {
    // Every queued packet is packetFlits() flits.
    queuedFlits += mesh.generator(shape.nodeAt(i)).packetsGenerated() *
                   static_cast<std::uint64_t>(traffic.packetFlits());
  }
  const double measured = static_cast<double>(queuedFlits) /
                          static_cast<double>(cycles) / 16.0;
  EXPECT_NEAR(measured, traffic.offeredLoad, 0.01);
}

TEST(RatesTest, NodesGenerateIndependently) {
  const MeshShape shape{3, 3};
  NetworkConfig cfg;
  cfg.params.n = 16;
  Network mesh(std::make_shared<MeshTopology>(shape), cfg);
  TrafficConfig traffic;
  traffic.offeredLoad = 0.2;
  traffic.seed = 5;
  mesh.attachTraffic(traffic);
  mesh.run(4000);
  // All nodes active, with sane spread (same Bernoulli process, different
  // streams).
  std::uint64_t lo = ~0ull, hi = 0;
  for (int i = 0; i < shape.nodes(); ++i) {
    const std::uint64_t n =
        mesh.generator(shape.nodeAt(i)).packetsGenerated();
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  EXPECT_GT(lo, 0u);
  EXPECT_LT(hi, lo * 2);
}

TEST(RatesTest, LinkUtilizationAccessorMatchesTopology) {
  const MeshShape shape{2, 2};
  NetworkConfig cfg;
  Network mesh(std::make_shared<MeshTopology>(shape), cfg);
  mesh.ni(NodeId{0, 0}).send(NodeId{1, 0}, {1, 2});
  ASSERT_TRUE(mesh.drain(200));
  EXPECT_GT(mesh.linkUtilization(NodeId{0, 0}, router::Port::East), 0.0);
  EXPECT_EQ(mesh.linkUtilization(NodeId{1, 0}, router::Port::West), 0.0);
  // Dangling edge links do not exist.
  EXPECT_THROW(mesh.linkUtilization(NodeId{1, 0}, router::Port::East),
               std::out_of_range);
  EXPECT_THROW(mesh.linkUtilization(NodeId{0, 0}, router::Port::South),
               std::out_of_range);
  // Local "links" are NI connections, not Link modules.
  EXPECT_THROW(mesh.linkUtilization(NodeId{0, 0}, router::Port::Local),
               std::out_of_range);
}

TEST(RatesTest, GeneratorBackpressureSkipsWhenQueueIsFull) {
  const MeshShape shape{2, 1};
  NetworkConfig cfg;
  cfg.params.p = 1;
  Network mesh(std::make_shared<MeshTopology>(shape), cfg);
  TrafficConfig traffic;
  traffic.pattern = TrafficPattern::NearestNeighbor;
  traffic.offeredLoad = 1.0;
  traffic.payloadFlits = 8;
  traffic.maxQueuedPackets = 2;
  traffic.seed = 3;
  mesh.attachTraffic(traffic);
  mesh.run(2000);
  std::uint64_t skipped = 0;
  for (int i = 0; i < 2; ++i)
    skipped += mesh.generator(shape.nodeAt(i)).injectionsSkipped();
  EXPECT_GT(skipped, 0u);
  // And queues stayed bounded.
  for (int i = 0; i < 2; ++i)
    EXPECT_LE(mesh.ni(shape.nodeAt(i)).sendQueuePackets(),
              traffic.maxQueuedPackets);
}

}  // namespace
}  // namespace rasoc::noc
