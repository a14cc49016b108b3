// A 4x4 RASoC mesh under synthetic traffic - the "building of
// networks-on-chip" use of the soft-core the paper describes.  Prints
// per-pattern latency/throughput and the busiest links.
//
//   $ ./mesh_traffic [load]            (default 0.15 flits/cycle/node)
#include <cstdio>

#include "../bench/sweep_flags.hpp"
#include "noc/network.hpp"

using namespace rasoc;

int main(int argc, char** argv) {
  double load = 0.15;
  if (argc > 1 && !bench::parseNumberFlag(argv[1], argv[1], load)) return 1;
  constexpr int kWarmup = 500;
  constexpr int kMeasure = 4000;

  for (noc::TrafficPattern pattern :
       {noc::TrafficPattern::UniformRandom, noc::TrafficPattern::Transpose,
        noc::TrafficPattern::BitComplement, noc::TrafficPattern::HotSpot}) {
    const noc::MeshShape shape{4, 4};
    noc::NetworkConfig cfg;
    cfg.params.n = 16;
    cfg.params.m = 8;
    cfg.params.p = 4;
    noc::Network mesh(std::make_shared<noc::MeshTopology>(shape), cfg);
    mesh.ledger().setWarmupCycles(kWarmup);

    noc::TrafficConfig traffic;
    traffic.pattern = pattern;
    traffic.offeredLoad = load;
    traffic.payloadFlits = 6;
    traffic.seed = 2026;
    traffic.hotspot = noc::NodeId{2, 2};
    traffic.hotspotFraction = 0.4;
    mesh.attachTraffic(traffic);
    mesh.run(kWarmup + kMeasure);

    std::printf("pattern %-10s  load %.2f  ",
                std::string(noc::name(pattern)).c_str(), load);
    std::printf(
        "delivered %-6llu  lat mean %6.1f  p99 %6.1f  thru %.4f fl/cy/node  "
        "links mean %.3f max %.3f  %s\n",
        static_cast<unsigned long long>(mesh.ledger().delivered()),
        mesh.ledger().packetLatency().mean(),
        mesh.ledger().packetLatency().percentile(0.99),
        mesh.ledger().throughputFlitsPerCyclePerNode(kMeasure, 16),
        mesh.meanLinkUtilization(), mesh.maxLinkUtilization(),
        mesh.healthy() ? "healthy" : "UNHEALTHY");
  }
  return 0;
}
