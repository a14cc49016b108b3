#include "router/faulty_link.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/compile.hpp"

namespace rasoc::router {

FaultyLink::FaultyLink(std::string name, ChannelWires& src, ChannelWires& dst,
                       int dataBits, double flipProbability,
                       std::uint64_t seed, FlowControl flowControl,
                       int numVCs)
    : Link(std::move(name), src, dst, flowControl, numVCs),
      dataBits_(dataBits),
      flipProbability_(flipProbability),
      seed_(seed),
      rng_(seed) {
  if (dataBits_ < 1 || dataBits_ > 32)
    throw std::invalid_argument("FaultyLink: dataBits must be 1..32");
  if (flipProbability_ < 0.0 || flipProbability_ > 1.0)
    throw std::invalid_argument("FaultyLink: probability must be in [0,1]");
  // transformData() mixes in the armed mask, re-drawn at every transfer, and
  // stall/drop windows key off a registered cycle counter, so evaluate()
  // depends on registered state on top of Link's wire inputs.
  declareSequential();
  recomputeActive();
  arm();
}

void FaultyLink::setWindows(std::vector<FaultWindow> windows) {
  for (const auto& w : windows) {
    if (w.rate < 0.0 || w.rate > 1.0)
      throw std::invalid_argument("FaultyLink: window rate must be in [0,1]");
    if (w.kind != FaultWindow::Kind::Corrupt &&
        flowControl() != FlowControl::Handshake && numVCs() == 1)
      throw std::invalid_argument(
          "FaultyLink: stall/drop windows require handshake flow control "
          "(the credit-based ack wire carries credit returns)");
  }
  windows_ = std::move(windows);
  fault_.stall = false;
  fault_.down = false;
  corruptRate_ = 0.0;
  recomputeActive();
}

void FaultyLink::onReset() {
  rng_ = sim::Xoshiro256(seed_);
  flitsCorrupted_ = 0;
  flitsDropped_ = 0;
  stallCycles_ = 0;
  cycle_ = 0;
  fault_.stall = false;
  fault_.down = false;
  corruptRate_ = 0.0;
  recomputeActive();
  arm();
}

void FaultyLink::recomputeActive() {
  fault_.stall = false;
  fault_.down = false;
  double rate = flipProbability_;
  for (const auto& w : windows_) {
    if (cycle_ < w.start || cycle_ - w.start >= w.duration) continue;
    switch (w.kind) {
      case FaultWindow::Kind::Corrupt:
        rate = std::max(rate, w.rate);
        break;
      case FaultWindow::Kind::StuckAck:
        fault_.stall = true;
        break;
      case FaultWindow::Kind::LinkDown:
        fault_.down = true;
        break;
    }
  }
  if (rate != corruptRate_) {
    corruptRate_ = rate;
    // Re-draw the armed mask under the new probability so a window's rate
    // cannot leak past its end via a stale mask.  Only reachable with a
    // schedule present, so window-less links keep the historical RNG stream.
    if (!windows_.empty()) arm();
  }
}

void FaultyLink::arm() {
  if (rng_.chance(corruptRate_)) {
    fault_.armedMask =
        1u << rng_.below(static_cast<std::uint64_t>(dataBits_));
  } else {
    fault_.armedMask = 0;
  }
}

void FaultyLink::evaluate() {
  if (numVCs() > 1) {
    if (fault_.masked()) {
      // VC window: present nothing downstream and mask every vcFree level
      // so the sender cannot schedule; vcAck pulses still pass (a swallowed
      // credit return would be lost forever, wedging the VC after the
      // window lifts).  No flit is ever consumed: the sender only raises
      // val when vcFree said so pre-edge, and the window state is
      // registered, so val is low for the whole window.
      dstWires().flit.data.set(0);
      dstWires().flit.bop.set(false);
      dstWires().flit.eop.set(false);
      dstWires().val.set(false);
      dstWires().vc.set(0);
      for (int v = 0; v < numVCs(); ++v) {
        srcWires().vcFree[static_cast<std::size_t>(v)].set(false);
        srcWires().vcAck[static_cast<std::size_t>(v)].set(
            dstWires().vcAck[static_cast<std::size_t>(v)].get());
      }
      return;
    }
    Link::evaluate();
    return;
  }
  if (fault_.masked()) {
    const bool bop = srcWires().flit.bop.get();
    const bool eop = srcWires().flit.eop.get();
    const bool body = !bop && !eop;
    dstWires().flit.data.set(0);
    dstWires().flit.bop.set(false);
    dstWires().flit.eop.set(false);
    dstWires().val.set(false);
    if (!fault_.stall && body) {
      // Link down: consume the offered body flit without presenting it.
      srcWires().ack.set(srcWires().val.get());
    } else {
      // Full stall: nothing moves; both endpoints wait.
      srcWires().ack.set(false);
    }
    return;
  }
  Link::evaluate();
}

// Samples the settled pre-edge upstream nets through Wire::get(): the
// behavioural kernels' view for commitEdge().
struct FaultyLink::WireSample {
  const FaultyLink* link;

  bool val() const { return link->srcWires().val.get(); }
  bool ack() const { return link->srcWires().ack.get(); }
  bool bop() const { return link->srcWires().flit.bop.get(); }
  bool eop() const { return link->srcWires().flit.eop.get(); }
};

void FaultyLink::clockEdge() { commitEdge(WireSample{this}); }

template <typename S>
void FaultyLink::commitEdge(const S& s) {
  const bool val = s.val();
  const bool bop = s.bop();
  const bool body = !bop && !s.eop();
  const bool single = numVCs() == 1;
  // VC windows never consume flits (see evaluate()); every active-window
  // cycle counts as a stall because all VCs are frozen for its duration.
  const bool dropped = single && fault_.down && !fault_.stall && body && val;
  const bool blockedByFault =
      single ? (val && (fault_.stall || (fault_.down && !body)))
             : fault_.masked();
  // As Link::clockEdge(); with VCs a scheduled flit always transfers.
  const bool transferred =
      single && flowControl() == FlowControl::Handshake ? val && s.ack()
                                                        : val;
  if (transferred) {
    countTransfer();
    // Headers pass clean and do not consume the armed mask.  A dropped
    // flit never reached the far side, so its mask was not applied.
    if (!bop) {
      if (!dropped && fault_.armedMask != 0) {
        ++flitsCorrupted_;
        if (metrics_.flitsCorrupted) metrics_.flitsCorrupted->inc();
      }
      arm();
    }
  }
  if (dropped) {
    ++flitsDropped_;
    if (metrics_.flitsDropped) metrics_.flitsDropped->inc();
  }
  if (blockedByFault) {
    ++stallCycles_;
    if (metrics_.stallCycles) metrics_.stallCycles->inc();
  }
  ++cycle_;
  recomputeActive();
}

std::uint32_t FaultyLink::transformData(std::uint32_t data, bool bop,
                                        bool eop) {
  (void)eop;
  if (bop) return data;  // headers pass clean (see header comment)
  return data ^ fault_.armedMask;
}

// --- compiled-kernel lowering ----------------------------------------------
//
// Settle: Link::describeCopies() with this link's LinkFaultState, so the
// forward and reverse copies mask exactly as evaluate() does.  Edge: one
// op running commitEdge() over the arena, in the link's clockEdgeAll()
// slot, so the RNG stream and every counter match clockEdge().

struct FaultyLink::EdgeCtx {
  FaultyLink* link = nullptr;
  sim::Slice val, ack;  // ack: single VC only
  std::uint32_t srcWord = 0;
};

// Samples the same nets as WireSample from the settled arena.
struct FaultyLink::ArenaSample {
  const std::uint64_t* w;
  const EdgeCtx* c;

  bool val() const { return sim::opBit(w, c->val); }
  bool ack() const { return sim::opBit(w, c->ack); }
  bool bop() const { return sim::opFlitBop(w, c->srcWord); }
  bool eop() const { return sim::opFlitEop(w, c->srcWord); }
};

void FaultyLink::edgeOp(std::uint64_t* w, void* vctx) {
  const auto* c = static_cast<const EdgeCtx*>(vctx);
  c->link->commitEdge(ArenaSample{w, c});
}

bool FaultyLink::describe(sim::Lowering& lw) {
  describeCopies(lw, &fault_);
  EdgeCtx edge;
  edge.link = this;
  edge.val = lw.bit(srcWires().val);
  if (numVCs() == 1) edge.ack = lw.bit(srcWires().ack);
  edge.srcWord = lw.flitWord(srcWires().flit.data, srcWires().flit.bop,
                             srcWires().flit.eop);
  lw.edgeOp(&edgeOp, lw.ctx(edge));
  return true;
}

}  // namespace rasoc::router
