// Simulator performance microbenchmarks (google-benchmark): cycles/second
// for a single router and for full meshes - the practical limit on how much
// NoC evaluation the harnesses above can afford.
#include <benchmark/benchmark.h>

#include <vector>

#include "noc/network.hpp"
#include "router/rasoc.hpp"
#include "sim/simulator.hpp"
#include "softcore/elaborate.hpp"
#include "tech/mapper.hpp"

using namespace rasoc;

namespace {

void BM_SingleRouterIdle(benchmark::State& state) {
  router::RouterParams params;
  router::Rasoc dut("dut", params);
  sim::Simulator sim;
  sim.add(dut);
  sim.reset();
  for (auto _ : state) sim.step();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SingleRouterIdle);

// Shared body of the under-load benches.  Args: (side, kernel, vcs, qos)
// with kernel 0 = naive fixpoint, 1 = event-driven, 4 = compiled
// (word-packed arena + levelized op tape; ids 2/3 belonged to a deleted
// kernel and stay unused so existing filters keep their meaning);
// vcs = RouterParams::numVCs; qos = 1 turns on traffic classes and adds a
// Control probe beside the load, which then rides the Bulk class (the
// bench_noc_loadsweep --qos mix).  Compare BM_MeshUnderLoad/side:8/kernel:0
// against kernel:1 for the scheduler speedup and kernel:1 against kernel:4
// at each vcs/qos for the lowering speedup; `evals_per_cycle` counts
// evaluate() calls and shows where it comes from (near zero under the
// compiled kernel: only fallback thunks evaluate).  Rates are wall clock
// (UseRealTime).
void runUnderLoad(benchmark::State& state, const char* topology) {
  const int side = static_cast<int>(state.range(0));
  noc::NetworkConfig cfg;
  cfg.params.n = 16;
  cfg.params.p = 4;
  if (side > 8) cfg.params.m = 12;  // 16x16 offsets exceed the m=8 RIB range
  cfg.params.numVCs = static_cast<int>(state.range(2));
  cfg.params.qosClasses = state.range(3) != 0;
  switch (state.range(1)) {
    case 0: cfg.kernel = sim::Simulator::Kernel::Naive; break;
    case 1: cfg.kernel = sim::Simulator::Kernel::EventDriven; break;
    case 4: cfg.kernel = sim::Simulator::Kernel::Compiled; break;
    default: state.SkipWithError("unknown kernel id"); return;
  }
  noc::Network net(noc::makeTopology(topology, side, side), cfg);
  noc::FlowSpec load;
  load.traffic.offeredLoad = 0.2;
  load.traffic.payloadFlits = 6;
  load.traffic.seed = 17;
  std::vector<noc::FlowSpec> flows = {load};
  if (cfg.params.qosClasses) {
    flows[0].trafficClass = router::TrafficClass::Bulk;
    noc::FlowSpec probe;
    probe.trafficClass = router::TrafficClass::Control;
    probe.traffic.offeredLoad = 0.02;
    probe.traffic.payloadFlits = 2;
    probe.traffic.seed = 18;
    flows.push_back(probe);
  }
  net.attachTraffic(flows);
  const std::uint64_t evalsBefore = net.simulator().evaluateCalls();
  for (auto _ : state) net.run(1);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["routers"] = side * side;
  state.counters["evals_per_cycle"] = benchmark::Counter(
      static_cast<double>(net.simulator().evaluateCalls() - evalsBefore),
      benchmark::Counter::kAvgIterations);
}

void BM_MeshUnderLoad(benchmark::State& state) { runUnderLoad(state, "mesh"); }
BENCHMARK(BM_MeshUnderLoad)
    ->ArgNames({"side", "kernel", "vcs", "qos"})
    ->ArgsProduct({{2, 4, 6, 8}, {0, 1}, {1}, {0}})
    ->Args({16, 1, 1, 0})
    ->ArgsProduct({{8, 16, 32}, {4}, {1}, {0}})
    // The VC axis: event-driven vs compiled at 2 and 4 VCs, and with QoS.
    ->ArgsProduct({{8, 16}, {1, 4}, {2, 4}, {0}})
    ->ArgsProduct({{8, 16}, {1, 4}, {4}, {1}})
    ->UseRealTime();

// Torus counterpart of BM_MeshUnderLoad (same arg encoding): the wrap
// links double the long-haul paths and add a second escape VC per port at
// numVCs > 1.
void BM_TorusUnderLoad(benchmark::State& state) {
  runUnderLoad(state, "torus");
}
BENCHMARK(BM_TorusUnderLoad)
    ->ArgNames({"side", "kernel", "vcs", "qos"})
    ->ArgsProduct({{8, 16}, {1, 4}, {1}, {0}})
    ->ArgsProduct({{8, 16}, {1, 4}, {2, 4}, {0}})
    ->ArgsProduct({{8, 16}, {1, 4}, {4}, {1}})
    ->UseRealTime();

// Same mesh with the telemetry subsystem attached: the delta against
// BM_MeshUnderLoad is the full cost of leaving instrumentation enabled
// (null-sink runs pay only a per-channel branch and are covered above).
void BM_MeshUnderLoadTelemetry(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  noc::NetworkConfig cfg;
  cfg.params.n = 16;
  cfg.params.p = 4;
  noc::Network mesh(std::make_shared<noc::MeshTopology>(side, side), cfg);
  telemetry::MetricsRegistry registry;
  mesh.enableTelemetry(registry);
  noc::TrafficConfig traffic;
  traffic.offeredLoad = 0.2;
  traffic.payloadFlits = 6;
  traffic.seed = 17;
  mesh.attachTraffic(traffic);
  for (auto _ : state) mesh.run(1);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["routers"] = side * side;
}
BENCHMARK(BM_MeshUnderLoadTelemetry)->Arg(4);

void BM_ElaborateAndMap(benchmark::State& state) {
  // Elaboration + technology mapping cost (the "synthesis" analogue).
  const tech::Flex10keMapper mapper;
  router::RouterParams params;
  params.n = 32;
  params.p = 4;
  for (auto _ : state) {
    const softcore::Entity router = softcore::elaborateRouter(params);
    benchmark::DoNotOptimize(router.totalCost(mapper));
  }
}
BENCHMARK(BM_ElaborateAndMap);

}  // namespace

BENCHMARK_MAIN();
