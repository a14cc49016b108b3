#include "workload.hpp"

#include <cstdio>
#include <sstream>

#include "host.hpp"
#include "noc/fault.hpp"
#include "noc/observe.hpp"
#include "sim/compile.hpp"
#include "telemetry/trace_event.hpp"

namespace perfbench {

namespace noc = rasoc::noc;
using rasoc::router::TrafficClass;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"mesh16_uniform", "mesh", 16, 1, false, false, 0.2,
       "f2819e188c2b5de3"},
      {"mesh8_vc4_qos", "mesh", 8, 4, true, false, 0.5, "4f75618cbc353fb4"},
      {"torus8_faults_traced", "torus", 8, 1, false, true, 0.06,
       "51c8c3be57c0550d"},
  };
  return all;
}

const Workload* findWorkload(std::string_view name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

namespace {

// splitmix64: independent, well-mixed seeds per (run seed, stream).
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

noc::FlowSpec flow(TrafficClass cls, double load, int payload,
                   std::uint64_t seed) {
  noc::FlowSpec f;
  f.trafficClass = cls;
  f.traffic.pattern = noc::TrafficPattern::UniformRandom;
  f.traffic.offeredLoad = load;
  f.traffic.payloadFlits = payload;
  f.traffic.seed = seed;
  return f;
}

// Smallest even RIB width whose signed-magnitude axis field holds every
// offset of an extent-wide grid.
int ribWidthFor(int extent) {
  int m = 8;
  while ((1 << (m / 2 - 1)) - 1 < extent - 1) m += 2;
  return m;
}

}  // namespace

NetworkSetup makeSetup(const Workload& w, std::uint64_t seed,
                       unsigned replica, bool check) {
  const std::uint64_t stream = 8 * std::uint64_t{replica};
  NetworkSetup s;
  s.name = std::string(w.name);
  s.observed = w.faults;
  s.topology = noc::makeTopology(w.topology, w.extent, w.extent);
  s.warmup = check ? kCheckWarmup : kWarmup;
  s.window = check ? kCheckWindow : kWindow;
  s.chunk = check ? kCheckChunk : kChunk;

  noc::NetworkConfig& cfg = s.config;
  cfg.params.n = 16;
  cfg.params.m = ribWidthFor(w.extent);
  cfg.params.p = 4;
  cfg.params.numVCs = w.numVCs;
  cfg.params.qosClasses = w.qos;
  if (w.qos) {
    // The --qos isolation experiment: a low-rate Control probe of short
    // packets beside a Bulk flood.
    s.flows = {
        flow(TrafficClass::Control, 0.02, 2, mixSeed(seed, stream + 1)),
        flow(TrafficClass::Bulk, w.load, 6, mixSeed(seed, stream + 2))};
  } else {
    s.flows = {
        flow(TrafficClass::BestEffort, w.load, 6, mixSeed(seed, stream + 1))};
  }
  if (w.faults) {
    cfg.hlpParity = true;
    cfg.reliability.enabled = true;
    cfg.reliability.seqBits = 6;
    cfg.reliability.window = 8;
    cfg.reliability.rtoInitial = 256;
    cfg.reliability.rtoMax = 4096;
    cfg.reliability.nackMinInterval = 16;
    noc::CampaignConfig campaign;
    campaign.horizon = s.warmup + s.window;
    // Many short windows spread over every link, so each draw of the plan
    // sees about the same fault exposure.
    campaign.corruptRate = 0.0006;
    campaign.corruptLinkFraction = 1.0;
    campaign.stallEvents = static_cast<int>(campaign.horizon / 25);
    campaign.dropEvents = static_cast<int>(campaign.horizon / 100);
    campaign.minDuration = 8;
    campaign.maxDuration = 32;
    campaign.seed = mixSeed(seed, stream + 3);
    cfg.faultPlan = noc::makeFaultPlan(*s.topology, campaign);
  }
  return s;
}

std::uint64_t SimOutcome::failedPackets() const {
  if (!healthy || !exportValid) return queued;
  // The ledger closes at most one delivery per queued packet.
  return queued - delivered + reliability.abandoned + unattributed;
}

std::string SimOutcome::canonical() const {
  std::ostringstream os;
  os.precision(17);
  const auto& r = reliability;
  os << "perfbench-digest-v1"
     << " queued=" << queued << " delivered=" << delivered
     << " flits=" << flitsDelivered << " window_packets=" << windowPackets
     << " window_flits=" << windowFlits << " drain_cycles=" << drainCycles
     << " drained=" << drained << " healthy=" << healthy
     << " unattributed=" << unattributed << " lat_n=" << latencyCount
     << " lat=" << latencyP50 << "," << latencyP90 << "," << latencyP99
     << " net_n=" << networkLatencyCount << " net=" << networkLatencyP50
     << "," << networkLatencyP99 << " top_p99=" << topClassP99
     << " classes=";
  for (std::uint64_t c : classDelivered) os << c << ",";
  os << " link_util=" << linkUtilMean << "," << linkUtilMax
     << " rel=" << r.dataFramesSent << "," << r.retransmissions << ","
     << r.timeouts << "," << r.acksSent << "," << r.nacksSent << ","
     << r.acksReceived << "," << r.nacksReceived << ","
     << r.duplicatesDropped << "," << r.outOfOrderBuffered << ","
     << r.malformedFrames << "," << r.payloadsDelivered << "," << r.abandoned
     << " fault=" << flitsCorrupted << "," << flitsDropped << ","
     << faultStallCycles << "," << parityErrors
     << " export_valid=" << exportValid;
  return os.str();
}

std::string SimOutcome::digest() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : canonical()) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

RepResult runRep(const NetworkSetup& setup, const RepOptions& options) {
  SpanTrace* const spans = options.spans;
  RepResult result;
  RepTimes& t = result.times;
  SimOutcome& out = result.sim;
  const std::int64_t repStart = nowNs();
  ScopedSpan repSpan(spans, SpanName::Rep);

  // Set by the bench tick listener, which runs right after the clock edge
  // and before every other listener.
  std::int64_t edgeDoneNs = 0;
  // The registry must outlive the network that samples into it.
  rasoc::telemetry::MetricsRegistry registry;
  std::unique_ptr<noc::Network> net;
  noc::FlowTracer* tracer = nullptr;
  {
    ScopedSpan setupSpan(spans, SpanName::Setup);
    const std::int64_t t0 = nowNs();
    {
      ScopedSpan s(spans, SpanName::Construct);
      net = std::make_unique<noc::Network>(setup.topology, setup.config);
    }
    const std::int64_t t1 = nowNs();
    if (spans)
      net->simulator().addTickListener([&edgeDoneNs] { edgeDoneNs = nowNs(); });
    {
      ScopedSpan s(spans, SpanName::Attach);
      net->ledger().setWarmupCycles(setup.warmup);
      net->attachTraffic(setup.flows);
      if (setup.observed) {
        net->enableTelemetry(registry);
        tracer = &net->enableTracing();
      }
    }
    const std::int64_t t2 = nowNs();
    {
      ScopedSpan s(spans, SpanName::Compile);
      net->simulator().settle();
    }
    const std::int64_t t3 = nowNs();
    t.construct = t1 - t0;
    t.attach = t2 - t1;
    t.compile = t3 - t2;
    t.setup = t3 - t0;
  }
  if (options.setupOnly) return result;

  rasoc::sim::Simulator& sim = net->simulator();
  // The traced tick() splits at the bench listener into edge and listeners.
  const auto tracedTick = [&](std::uint32_t parent, std::int64_t start) {
    sim.tick();
    const std::int64_t end = nowNs();
    const std::uint32_t tick = spans->add(SpanName::Tick, parent, start, end);
    spans->add(SpanName::Edge, tick, start, edgeDoneNs);
    spans->add(SpanName::Listeners, tick, edgeDoneNs, end);
  };
  // One cycle = settle() + tick(), exactly Simulator::step().
  const auto cycle = [&](std::uint32_t parent) {
    if (!spans) {
      sim.settle();
      sim.tick();
      return;
    }
    const std::int64_t start = nowNs();
    sim.settle();
    const std::int64_t settled = nowNs();
    spans->add(SpanName::Settle, parent, start, settled);
    tracedTick(parent, settled);
  };

  {
    ScopedSpan warmupSpan(spans, SpanName::Warmup);
    const std::uint32_t parent = spans ? spans->current() : kNoParent;
    // Cycle 0 was settled by the setup; commit its edge.
    if (spans)
      tracedTick(parent, nowNs());
    else
      sim.tick();
    for (std::uint64_t i = 1; i < setup.warmup; ++i) cycle(parent);
  }

  const int vcs = setup.config.params.numVCs;
  const auto nodes = static_cast<double>(setup.topology->nodes());
  const std::uint64_t delivered0 = net->ledger().delivered();
  const std::uint64_t flits0 = net->ledger().flitsDelivered();
  const std::uint64_t evals0 = sim.evaluateCalls();
  double vcSum = 0;
  std::uint64_t vcSamples = 0;
  if (options.measureRss) releaseFreeHeap();
  const std::int64_t rss0 = currentRssBytes();
  {
    ScopedSpan windowSpan(spans, SpanName::Window);
    t.chunks.reserve(setup.window / setup.chunk);
    for (std::uint64_t done = 0; done < setup.window; done += setup.chunk) {
      const std::int64_t c0 = nowNs();
      {
        ScopedSpan chunkSpan(spans, SpanName::Chunk);
        const std::uint32_t parent = spans ? spans->current() : kNoParent;
        for (std::uint64_t i = 0; i < setup.chunk; ++i) {
          cycle(parent);
          // Buffered flits per (node, VC), sampled between cycles; traced
          // repetitions only, so untimed runs pay nothing for it.
          if (spans && vcs > 1 && (i & 7) == 0) {
            for (int v = 0; v < vcs; ++v)
              for (int f : net->vcOccupancy(v)) vcSum += f;
            ++vcSamples;
          }
        }
      }
      t.chunks.push_back(nowNs() - c0);
    }
  }
  for (std::int64_t c : t.chunks) t.window += c;
  if (options.measureRss) t.rssGrowthBytes = currentRssBytes() - rss0;
  out.windowPackets = net->ledger().delivered() - delivered0;
  out.windowFlits = net->ledger().flitsDelivered() - flits0;
  out.windowEvaluateCalls = sim.evaluateCalls() - evals0;
  out.acceptedFlitsPerNodeCycle = static_cast<double>(out.windowFlits) /
                                  (static_cast<double>(setup.window) * nodes);
  out.linkUtilMean = net->meanLinkUtilization();
  out.linkUtilMax = net->maxLinkUtilization();
  if (vcSamples)
    out.vcOccupancyMean = vcSum / (static_cast<double>(vcSamples) * nodes *
                                   static_cast<double>(vcs));
  if (const rasoc::sim::CompiledProgram* p = sim.compiledProgram()) {
    out.programOps = p->opCount();
    out.programThunks = p->thunkCount();
    out.programIterateSegments = p->iterateSegmentCount();
    out.programWords = p->wordCount();
  }

  net->pauseTraffic(true);
  {
    ScopedSpan s(spans, SpanName::Drain);
    const std::uint64_t before = sim.cycle();
    const std::int64_t d0 = nowNs();
    // Generous cap: the reliable transport drains at RTO pace.
    out.drained = net->drain(setup.warmup + setup.window + 20000);
    t.drain = nowNs() - d0;
    out.drainCycles = sim.cycle() - before;
  }
  {
    ScopedSpan s(spans, SpanName::LedgerQuery);
    const std::int64_t q0 = nowNs();
    const noc::DeliveryLedger& ledger = net->ledger();
    out.queued = ledger.queued();
    out.delivered = ledger.delivered();
    out.flitsDelivered = ledger.flitsDelivered();
    out.latencyCount = ledger.packetLatency().count();
    out.latencyP50 = ledger.packetLatency().percentile(0.50);
    out.latencyP90 = ledger.packetLatency().percentile(0.90);
    out.latencyP99 = ledger.packetLatency().percentile(0.99);
    out.networkLatencyCount = ledger.networkLatency().count();
    out.networkLatencyP50 = ledger.networkLatency().percentile(0.50);
    out.networkLatencyP99 = ledger.networkLatency().percentile(0.99);
    if (setup.config.params.qosClasses) {
      out.topClassP99 =
          ledger.packetLatency(TrafficClass::Control).percentile(0.99);
      for (int c = 0; c < rasoc::router::kNumTrafficClasses; ++c)
        out.classDelivered.push_back(
            ledger.delivered(static_cast<TrafficClass>(c)));
    } else {
      out.topClassP99 = out.latencyP99;
    }
    t.ledgerQuery = nowNs() - q0;
  }
  out.healthy = net->healthy();
  out.unattributed = net->unattributedPackets();
  out.reliability = net->reliabilityStats();
  out.flitsCorrupted = net->flitsCorrupted();
  out.flitsDropped = net->flitsDropped();
  out.faultStallCycles = net->faultStallCycles();
  out.parityErrors = net->parityErrorsDetected();

  if (setup.observed) {
    std::string trace;
    {
      ScopedSpan s(spans, SpanName::FlowTraceExport);
      const std::int64_t e0 = nowNs();
      trace = tracer->perfettoJson();
      t.flowTraceExport = nowNs() - e0;
    }
    t.flowTraceBytes = trace.size();
    out.exportValid = rasoc::telemetry::validatePerfettoJson(trace);
    std::string report;
    {
      ScopedSpan s(spans, SpanName::TelemetryReport);
      const std::int64_t r0 = nowNs();
      report = noc::buildRunReport("perfbench." + setup.name, *net).toJson();
      t.telemetryReport = nowNs() - r0;
    }
    t.telemetryReportBytes = report.size();
  }
  t.wall = nowNs() - repStart;
  return result;
}

}  // namespace perfbench
