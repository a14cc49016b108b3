#include "soc/transaction.hpp"

#include <algorithm>
#include <stdexcept>

namespace rasoc::soc {

std::vector<std::uint32_t> TxnPacket::encode() const {
  return {txnId, static_cast<std::uint32_t>(kind), replyTo, addr, data};
}

TxnPacket TxnPacket::decode(const std::vector<std::uint32_t>& payload) {
  if (payload.size() != 5)
    throw std::invalid_argument("transaction payload must be 5 words");
  TxnPacket packet;
  packet.txnId = payload[0];
  packet.kind = static_cast<TxnKind>(payload[1]);
  packet.replyTo = payload[2];
  packet.addr = payload[3];
  packet.data = payload[4];
  return packet;
}

// --- MemoryTarget -----------------------------------------------------------

MemoryTarget::MemoryTarget(std::string name, noc::NetworkInterface& ni,
                           noc::MeshShape shape, int accessLatency,
                           std::size_t words)
    : Module(std::move(name)),
      ni_(&ni),
      shape_(shape),
      accessLatency_(accessLatency),
      mem_(words, 0) {
  if (accessLatency_ < 0) throw std::invalid_argument("negative latency");
  if (words == 0) throw std::invalid_argument("empty memory");
}

std::uint32_t MemoryTarget::peek(std::uint32_t addr) const {
  return mem_.at(addr);
}

void MemoryTarget::onReset() {
  std::fill(mem_.begin(), mem_.end(), 0u);
  consumed_ = 0;
  pending_.clear();
  cycle_ = 0;
  readsServed_ = 0;
  writesServed_ = 0;
}

void MemoryTarget::clockEdge() {
  // Accept newly arrived request packets into the access pipeline.
  const auto& received = ni_->received();
  while (consumed_ < received.size()) {
    const TxnPacket request = TxnPacket::decode(received[consumed_]);
    ++consumed_;
    pending_.push_back(Pending{
        cycle_ + static_cast<std::uint64_t>(accessLatency_), request});
  }

  // Serve at most one access per cycle (single-ported memory).
  if (!pending_.empty() && pending_.front().readyCycle <= cycle_) {
    const TxnPacket request = pending_.front().request;
    pending_.pop_front();
    TxnPacket response = request;
    if (request.addr >= mem_.size())
      throw std::out_of_range("memory access beyond the array");
    if (request.kind == TxnKind::Write) {
      mem_[request.addr] = request.data;
      response.kind = TxnKind::WriteResponse;
      ++writesServed_;
    } else if (request.kind == TxnKind::Read) {
      response.data = mem_[request.addr];
      response.kind = TxnKind::ReadResponse;
      ++readsServed_;
    } else {
      throw std::logic_error("target received a response packet");
    }
    ni_->send(shape_.nodeAt(static_cast<int>(request.replyTo)),
              response.encode());
  }
  ++cycle_;
}

// --- Initiator ----------------------------------------------------------------

Initiator::Initiator(std::string name, noc::NetworkInterface& ni,
                     noc::MeshShape shape, noc::NodeId self,
                     int maxOutstanding)
    : Module(std::move(name)),
      ni_(&ni),
      shape_(shape),
      self_(self),
      maxOutstanding_(maxOutstanding) {
  if (maxOutstanding_ < 1)
    throw std::invalid_argument("need at least one outstanding slot");
}

void Initiator::onReset() {
  // The script is testbench configuration and survives reset; dynamic
  // state does not.
  outstanding_.clear();
  shadow_.clear();
  consumed_ = 0;
  nextTxnId_ = 1;
  cycle_ = 0;
  completed_ = 0;
  dataErrors_ = 0;
}

void Initiator::clockEdge() {
  // Retire responses.
  const auto& received = ni_->received();
  while (consumed_ < received.size()) {
    const TxnPacket response = TxnPacket::decode(received[consumed_]);
    ++consumed_;
    const auto it = outstanding_.find(response.txnId);
    if (it == outstanding_.end())
      throw std::logic_error("response for an unknown transaction");
    const Outstanding& issued = it->second;
    if (response.kind == TxnKind::ReadResponse) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(shape_.indexOf(issued.op.target))
           << 32) |
          issued.op.addr;
      const auto expected = shadow_.find(key);
      if (expected != shadow_.end() && expected->second != response.data)
        ++dataErrors_;
    }
    roundTrip_.observe(cycle_ - issued.issuedCycle);
    ++completed_;
    outstanding_.erase(it);
  }

  // Issue at most one new transaction per cycle.
  if (!script_.empty() &&
      outstanding_.size() < static_cast<std::size_t>(maxOutstanding_)) {
    const Op op = script_.front();
    script_.pop_front();
    TxnPacket request;
    request.txnId = nextTxnId_++;
    request.kind = op.write ? TxnKind::Write : TxnKind::Read;
    request.replyTo = static_cast<std::uint32_t>(shape_.indexOf(self_));
    request.addr = op.addr;
    request.data = op.data;
    ni_->send(op.target, request.encode());
    if (op.write) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(shape_.indexOf(op.target)) << 32) |
          op.addr;
      shadow_[key] = op.data;
    }
    outstanding_.emplace(request.txnId, Outstanding{op, cycle_});
  }
  ++cycle_;
}

}  // namespace rasoc::soc
