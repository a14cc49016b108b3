#include "noc/stats.hpp"

#include <stdexcept>

namespace rasoc::noc {

void DeliveryLedger::onQueued(PacketRecord record) {
  const FlowKey key = flowKey(record.src, record.dst, record.trafficClass);
  flows_[key].push_back(record);
  ++queuedCount_;
  if (record.trafficClass >= 0)
    ++classQueued_[static_cast<std::size_t>(record.trafficClass)];
}

void DeliveryLedger::onHeaderInjected(NodeId src, NodeId dst,
                                      std::uint64_t cycle,
                                      int trafficClass) {
  const FlowKey key = flowKey(src, dst, trafficClass);
  auto it = flows_.find(key);
  if (it == flows_.end() || it->second.empty())
    throw std::logic_error("header injected for an unknown flow");
  for (PacketRecord& record : it->second) {
    if (!record.injected) {
      record.injected = true;
      record.injectedCycle = cycle;
      return;
    }
  }
  throw std::logic_error("header injected but every packet already in flight");
}

PacketRecord DeliveryLedger::onDelivered(NodeId src, NodeId dst,
                                         std::uint64_t cycle,
                                         int trafficClass) {
  const FlowKey key = flowKey(src, dst, trafficClass);
  auto it = flows_.find(key);
  if (it == flows_.end() || it->second.empty())
    throw std::logic_error("delivery for a flow with no open packets");
  PacketRecord record = it->second.front();
  it->second.pop_front();
  // An empty deque still owns its block: keep only flows with open packets.
  if (it->second.empty()) flows_.erase(it);
  if (!record.injected)
    throw std::logic_error("packet delivered before its header was injected");
  ++deliveredCount_;
  flitsDelivered_ += static_cast<std::uint64_t>(record.flits);
  if (record.trafficClass >= 0)
    ++classDelivered_[static_cast<std::size_t>(record.trafficClass)];
  if (record.createdCycle >= warmup_) {
    const std::uint64_t packetLat = cycle - record.createdCycle;
    const std::uint64_t networkLat = cycle - record.injectedCycle;
    packetLatency_.observe(packetLat);
    networkLatency_.observe(networkLat);
    if (record.trafficClass >= 0) {
      const auto cls = static_cast<std::size_t>(record.trafficClass);
      classPacketLatency_[cls].observe(packetLat);
      classNetworkLatency_[cls].observe(networkLat);
    }
    flitsDeliveredAfterWarmup_ += static_cast<std::uint64_t>(record.flits);
  }
  return record;
}

bool DeliveryLedger::tryDeliver(NodeId src, NodeId dst, std::uint64_t cycle,
                                int trafficClass) {
  const FlowKey key = flowKey(src, dst, trafficClass);
  auto it = flows_.find(key);
  if (it == flows_.end() || it->second.empty() ||
      !it->second.front().injected)
    return false;
  onDelivered(src, dst, cycle, trafficClass);
  return true;
}

void DeliveryLedger::discardOpen() {
  for (const auto& [key, flow] : flows_) {
    queuedCount_ -= flow.size();
    for (const PacketRecord& record : flow)
      if (record.trafficClass >= 0)
        --classQueued_[static_cast<std::size_t>(record.trafficClass)];
  }
  flows_.clear();
}

double DeliveryLedger::throughputFlitsPerCyclePerNode(std::uint64_t cycles,
                                                      int nodes) const {
  if (cycles == 0 || nodes == 0) return 0.0;
  return static_cast<double>(flitsDeliveredAfterWarmup_) /
         static_cast<double>(cycles) / static_cast<double>(nodes);
}

}  // namespace rasoc::noc
