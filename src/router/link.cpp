#include "router/link.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "sim/compile.hpp"

namespace rasoc::router {

Link::FaultModel::FaultModel(int dataBits, double flipProbability,
                             std::uint64_t seed,
                             std::vector<FaultWindow> windows, bool single)
    : dataBits(dataBits),
      flipProbability(flipProbability),
      seed(seed),
      single(single),
      windows(std::move(windows)) {
  reset();
}

void Link::FaultModel::reset() {
  rng = sim::Xoshiro256(seed);
  flitsCorrupted = 0;
  flitsDropped = 0;
  stallCycles = 0;
  cycle = 0;
  state.stall = false;
  state.down = false;
  corruptRate = 0.0;
  recomputeActive();
  arm();
}

void Link::FaultModel::recomputeActive() {
  state.stall = false;
  state.down = false;
  double rate = flipProbability;
  for (const auto& w : windows) {
    if (cycle < w.start || cycle - w.start >= w.duration) continue;
    switch (w.kind) {
      case FaultWindow::Kind::Corrupt:
        rate = std::max(rate, w.rate);
        break;
      case FaultWindow::Kind::StuckAck:
        state.stall = true;
        break;
      case FaultWindow::Kind::LinkDown:
        state.down = true;
        break;
    }
  }
  if (rate != corruptRate) {
    corruptRate = rate;
    // Re-draw the armed mask under the new probability so a window's rate
    // cannot leak past its end via a stale mask.  Only reachable with a
    // schedule present, so window-less links keep the historical RNG stream.
    if (!windows.empty()) arm();
  }
}

void Link::FaultModel::arm() {
  if (rng.chance(corruptRate)) {
    state.armedMask = 1u << rng.below(static_cast<std::uint64_t>(dataBits));
  } else {
    state.armedMask = 0;
  }
}

void Link::FaultModel::commitEdge(bool val, bool transferred, bool bop,
                                  bool eop) {
  const bool body = !bop && !eop;
  // VC windows never consume flits (see evaluate()); every active-window
  // cycle counts as a stall because all VCs are frozen for its duration.
  const bool dropped = single && state.down && !state.stall && body && val;
  const bool blockedByFault =
      single ? (val && (state.stall || (state.down && !body)))
             : state.masked();
  // Headers pass clean and do not consume the armed mask.  A dropped flit
  // never reached the far side, so its mask was not applied.
  if (transferred && !bop) {
    if (!dropped && state.armedMask != 0) {
      ++flitsCorrupted;
      if (metrics.flitsCorrupted) metrics.flitsCorrupted->inc();
    }
    arm();
  }
  if (dropped) {
    ++flitsDropped;
    if (metrics.flitsDropped) metrics.flitsDropped->inc();
  }
  if (blockedByFault) {
    ++stallCycles;
    if (metrics.stallCycles) metrics.stallCycles->inc();
  }
  ++cycle;
  recomputeActive();
}

Link::Link(std::string name, ChannelWires& src, ChannelWires& dst,
           FlowControl flowControl, int numVCs)
    : Module(std::move(name)),
      src_(&src),
      dst_(&dst),
      flowControl_(flowControl),
      numVCs_(numVCs) {
  if (numVCs_ < 1 || numVCs_ > kMaxVCs)
    throw std::invalid_argument("Link: numVCs must be in [1, kMaxVCs]");
  sensitive(src.flit.data);
  sensitive(src.flit.bop);
  sensitive(src.flit.eop);
  sensitive(src.val);
  if (numVCs_ == 1) {
    sensitive(dst.ack);
  } else {
    sensitive(src.vc);
    for (int v = 0; v < numVCs_; ++v) {
      sensitive(dst.vcFree[static_cast<std::size_t>(v)]);
      sensitive(dst.vcAck[static_cast<std::size_t>(v)]);
    }
  }
}

void Link::enableFaults(int dataBits, double flipProbability,
                        std::uint64_t seed, std::vector<FaultWindow> windows) {
  if (dataBits < 1 || dataBits > 32)
    throw std::invalid_argument("Link: fault dataBits must be 1..32");
  if (flipProbability < 0.0 || flipProbability > 1.0)
    throw std::invalid_argument("Link: flip probability must be in [0,1]");
  for (const auto& w : windows) {
    if (w.rate < 0.0 || w.rate > 1.0)
      throw std::invalid_argument("Link: window rate must be in [0,1]");
    if (w.kind != FaultWindow::Kind::Corrupt &&
        flowControl_ != FlowControl::Handshake && numVCs_ == 1)
      throw std::invalid_argument(
          "Link: stall/drop windows require handshake flow control "
          "(the credit-based ack wire carries credit returns)");
  }
  // The flit mask, re-drawn at every transfer, and the windows, keyed off a
  // registered cycle counter, make evaluate() depend on registered state
  // on top of its wire inputs.
  declareSequential();
  fault_.emplace(dataBits, flipProbability, seed, std::move(windows),
                 numVCs_ == 1);
}

void Link::attachFaultMetrics(const LinkFaultMetrics& metrics) {
  if (!fault_)
    throw std::logic_error("Link::attachFaultMetrics: link has no faults");
  fault_->metrics = metrics;
}

void Link::onReset() {
  if (fault_) fault_->reset();
}

void Link::evaluate() {
  static constexpr LinkFaultState kIdeal{};  // no mask, no window
  const LinkFaultState& fault = fault_ ? fault_->state : kIdeal;
  const bool pass = !fault.masked();
  const bool bop = src_->flit.bop.get();
  const bool eop = src_->flit.eop.get();
  const bool val = src_->val.get();
  dst_->flit.data.set(pass ? src_->flit.data.get() ^ fault.flip(bop) : 0);
  dst_->flit.bop.set(pass && bop);
  dst_->flit.eop.set(pass && eop);
  dst_->val.set(pass && val);
  if (numVCs_ == 1) {
    src_->ack.set(fault.ack(dst_->ack.get(), val, bop, eop));
    return;
  }
  // VC mode: vc tag downstream, per-VC space/link-up levels and credit
  // pulses upstream; the ack wire is unused.  No flit is ever consumed
  // under a window: the sender only raises val when vcFree said so
  // pre-edge, and the window state is registered, so val is low for the
  // whole window.
  dst_->vc.set(pass ? src_->vc.get() : 0);
  for (int v = 0; v < numVCs_; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    src_->vcFree[vi].set(pass && dst_->vcFree[vi].get());
    src_->vcAck[vi].set(dst_->vcAck[vi].get());
  }
}

// Samples the settled pre-edge upstream nets through Wire::get(): the
// behavioural kernels' view for commitEdge().
struct Link::WireSample {
  static constexpr bool kMayFault = true;
  Link* link;

  bool val() const { return link->src_->val.get(); }
  bool ack() const { return link->src_->ack.get(); }
  bool bop() const { return link->src_->flit.bop.get(); }
  bool eop() const { return link->src_->flit.eop.get(); }
  bool handshake() const { return link->handshake(); }
  std::uint64_t& flits() const { return link->flitsTransferred_; }
  FaultModel* model() const {
    return link->fault_ ? &*link->fault_ : nullptr;
  }
};

void Link::clockEdge() { commitEdge(WireSample{this}); }

template <typename S>
void Link::commitEdge(const S& s) {
  const bool val = s.val();
  // With VCs a scheduled flit always transfers: the sender only raises val
  // toward a VC with advertised space or an in-hand credit.
  const bool transferred = s.handshake() ? val && s.ack() : val;
  if (transferred) ++s.flits();
  if constexpr (S::kMayFault) {
    if (FaultModel* model = s.model())
      model->commitEdge(val, transferred, s.bop(), s.eop());
  }
}

// --- compiled-kernel lowering ------------------------------------------
//
// Forward (flit + val) and reverse (ack) directions are separate ops:
// fusing them would tie the downstream val driver to the downstream ack
// reader and manufacture a false combinational cycle through the
// receiving router's flow controller.
//
// A link with a fault model lowers to the same units with fault-aware op
// functions whose contexts add a pointer to its registered LinkFaultState;
// ideal links keep the plain ops, so fault-free networks pay nothing for
// the fault path.
//
// Each op carries exactly the slices it touches: op contexts are the
// interpreter's dominant memory traffic, so smaller structs mean fewer
// cache lines streamed per simulated cycle.

// The edge op's context: the ideal link's holds only what the transfer
// count reads.
struct Link::EdgeCtx {
  sim::Slice srcVal, srcAck;  // srcAck: handshake only
  bool handshake = true;
  std::uint64_t* flits = nullptr;
};

// A faulted link's edge also samples the offered flit's framing and
// advances its fault model.
struct Link::FaultyEdgeCtx : EdgeCtx {
  std::uint32_t srcWord = 0;
  FaultModel* model = nullptr;
};

// Samples the same nets as WireSample from the settled arena.  For an
// ideal link commitEdge() drops the fault step at compile time, so
// bop(), eop() and model(), which its context lacks, are never
// instantiated.
template <bool kFaulty>
struct Link::ArenaSample {
  static constexpr bool kMayFault = kFaulty;
  using Ctx = std::conditional_t<kFaulty, FaultyEdgeCtx, EdgeCtx>;
  const std::uint64_t* w;
  const Ctx* c;

  bool val() const { return sim::opBit(w, c->srcVal); }
  bool ack() const { return sim::opBit(w, c->srcAck); }
  bool bop() const { return sim::opFlitBop(w, c->srcWord); }
  bool eop() const { return sim::opFlitEop(w, c->srcWord); }
  bool handshake() const { return c->handshake; }
  std::uint64_t& flits() const { return *c->flits; }
  FaultModel* model() const { return c->model; }
};

template <bool kFaulty>
void Link::edgeOp(std::uint64_t* w, void* vctx) {
  using S = ArenaSample<kFaulty>;
  commitEdge(S{w, static_cast<const typename S::Ctx*>(vctx)});
}

namespace {

struct LinkFwdCtx {
  std::uint32_t srcWord = 0, dstWord = 0;
  sim::Slice srcVal, dstVal;
};

struct LinkRevCtx {
  sim::Slice srcAck, dstAck;
};

struct LinkVcFwdCtx {
  LinkFwdCtx fwd;
  sim::Slice srcVc, dstVc;
};

// One upstream per-VC level family (vcFree or vcAck).
struct LinkVcRevCtx {
  int numVCs = 0;
  sim::Slice src[kMaxVCs], dst[kMaxVCs];
};

// Fault-aware contexts: the plain context plus the link's fault state.
template <typename Ctx>
struct Faulty {
  Ctx plain;
  const LinkFaultState* fault = nullptr;
};

// The reverse op of a faulted single-VC link also reads the offered flit:
// a LinkDown window acks (consumes) body flits.
struct FaultyRevCtx {
  LinkRevCtx rev;
  std::uint32_t srcWord = 0;
  sim::Slice srcVal;
  const LinkFaultState* fault = nullptr;
};

void linkForward(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<LinkFwdCtx*>(vctx);
  sim::opCopyFlit(w, c->dstWord, c->srcWord);
  sim::opPutBit(w, c->dstVal, sim::opBit(w, c->srcVal));
}

void linkReverse(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<LinkRevCtx*>(vctx);
  sim::opPutBit(w, c->srcAck, sim::opBit(w, c->dstAck));
}

void linkVcForward(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<LinkVcFwdCtx*>(vctx);
  linkForward(w, &c->fwd);
  sim::opPutWord32(w, c->dstVc, sim::opWord32(w, c->srcVc));
}

void linkVcReverse(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<LinkVcRevCtx*>(vctx);
  for (int v = 0; v < c->numVCs; ++v)
    sim::opPutBit(w, c->src[v], sim::opBit(w, c->dst[v]));
}

// Link::evaluate()'s forward half over the arena.
void forwardFaulted(std::uint64_t* w, const LinkFwdCtx& f,
                    const LinkFaultState& fault) {
  if (fault.masked()) {
    sim::opPutFlit(w, f.dstWord, 0, false, false);
    sim::opPutBit(w, f.dstVal, false);
    return;
  }
  sim::opCopyFlit(w, f.dstWord, f.srcWord);
  w[f.dstWord] ^= fault.flip(sim::opFlitBop(w, f.srcWord));
  sim::opPutBit(w, f.dstVal, sim::opBit(w, f.srcVal));
}

void faultyForward(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<Faulty<LinkFwdCtx>*>(vctx);
  forwardFaulted(w, c->plain, *c->fault);
}

void faultyVcForward(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<Faulty<LinkVcFwdCtx>*>(vctx);
  forwardFaulted(w, c->plain.fwd, *c->fault);
  sim::opPutWord32(w, c->plain.dstVc,
                   c->fault->masked() ? 0 : sim::opWord32(w, c->plain.srcVc));
}

void faultyReverse(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<FaultyRevCtx*>(vctx);
  sim::opPutBit(w, c->rev.srcAck,
                c->fault->ack(sim::opBit(w, c->rev.dstAck),
                              sim::opBit(w, c->srcVal),
                              sim::opFlitBop(w, c->srcWord),
                              sim::opFlitEop(w, c->srcWord)));
}

// With VCs a window masks every vcFree level, so the sender cannot
// schedule; the vcAck credit pulses keep their plain copy.
void faultyVcFree(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<Faulty<LinkVcRevCtx>*>(vctx);
  const LinkVcRevCtx& r = c->plain;
  const bool masked = c->fault->masked();
  for (int v = 0; v < r.numVCs; ++v)
    sim::opPutBit(w, r.src[v], !masked && sim::opBit(w, r.dst[v]));
}

}  // namespace

bool Link::describe(sim::Lowering& lw) {
  const LinkFaultState* fault = fault_ ? &fault_->state : nullptr;

  LinkFwdCtx fwd;
  fwd.srcWord = lw.flitWord(src_->flit.data, src_->flit.bop, src_->flit.eop);
  fwd.dstWord = lw.flitWord(dst_->flit.data, dst_->flit.bop, dst_->flit.eop);
  fwd.srcVal = lw.bit(src_->val);
  fwd.dstVal = lw.bit(dst_->val);
  std::vector<const sim::WireBase*> fwdReads = {
      &src_->flit.data, &src_->flit.bop, &src_->flit.eop, &src_->val};
  std::vector<const sim::WireBase*> fwdWrites = {
      &dst_->flit.data, &dst_->flit.bop, &dst_->flit.eop, &dst_->val};

  if (numVCs_ > 1) {
    // VC mode: the vc tag rides the forward copy; upstream, vcFree and
    // vcAck are separate copies.  vcAck depends on the receiving router's
    // scheduler, which reads the next link's vcFree, so one fused reverse
    // unit would chain every link's reverse path to its successor's and
    // close a cycle around any loop of links.  Handshake mode never drives
    // vcAck (transfers are unconditional once scheduled), so it has no
    // copy there; the ack wire is unused either way.  A fault window masks
    // vcFree only: a swallowed credit pulse would wedge the VC for good.
    LinkVcFwdCtx vfwd;
    vfwd.fwd = fwd;
    vfwd.srcVc = lw.word32(src_->vc);
    vfwd.dstVc = lw.word32(dst_->vc);
    fwdReads.push_back(&src_->vc);
    fwdWrites.push_back(&dst_->vc);
    if (fault)
      lw.op(&faultyVcForward, lw.ctx(Faulty<LinkVcFwdCtx>{vfwd, fault}),
            std::move(fwdReads), std::move(fwdWrites));
    else
      lw.op(&linkVcForward, lw.ctx(vfwd), std::move(fwdReads),
            std::move(fwdWrites));

    auto reverse = [&](std::array<sim::Wire<bool>, kMaxVCs>& srcLevels,
                       std::array<sim::Wire<bool>, kMaxVCs>& dstLevels,
                       const LinkFaultState* mask) {
      LinkVcRevCtx rev;
      rev.numVCs = numVCs_;
      std::vector<const sim::WireBase*> reads;
      std::vector<const sim::WireBase*> writes;
      for (int v = 0; v < numVCs_; ++v) {
        const auto vi = static_cast<std::size_t>(v);
        rev.src[v] = lw.bit(srcLevels[vi]);
        rev.dst[v] = lw.bit(dstLevels[vi]);
        reads.push_back(&dstLevels[vi]);
        writes.push_back(&srcLevels[vi]);
      }
      if (mask)
        lw.op(&faultyVcFree, lw.ctx(Faulty<LinkVcRevCtx>{rev, mask}),
              std::move(reads), std::move(writes));
      else
        lw.op(&linkVcReverse, lw.ctx(rev), std::move(reads),
              std::move(writes));
    };
    reverse(src_->vcFree, dst_->vcFree, fault);
    if (flowControl_ == FlowControl::CreditBased)
      reverse(src_->vcAck, dst_->vcAck, nullptr);
  } else {
    LinkRevCtx rev;
    rev.srcAck = lw.bit(src_->ack);
    rev.dstAck = lw.bit(dst_->ack);
    if (fault) {
      lw.op(&faultyForward, lw.ctx(Faulty<LinkFwdCtx>{fwd, fault}),
            std::move(fwdReads), std::move(fwdWrites));
      FaultyRevCtx frev;
      frev.rev = rev;
      frev.srcWord = fwd.srcWord;
      frev.srcVal = fwd.srcVal;
      frev.fault = fault;
      lw.op(&faultyReverse, lw.ctx(frev),
            {&dst_->ack, &src_->val, &src_->flit.bop, &src_->flit.eop},
            {&src_->ack});
    } else {
      lw.op(&linkForward, lw.ctx(fwd), std::move(fwdReads),
            std::move(fwdWrites));
      lw.op(&linkReverse, lw.ctx(rev), {&dst_->ack}, {&src_->ack});
    }
  }

  // The edge: one op over commitEdge(), in this link's clockEdgeAll()
  // slot, so the RNG stream and every counter match clockEdge().
  EdgeCtx edge;
  edge.srcVal = fwd.srcVal;
  edge.handshake = handshake();
  if (edge.handshake) edge.srcAck = lw.bit(src_->ack);
  edge.flits = &flitsTransferred_;
  if (!fault_) {
    lw.edgeOp(&edgeOp<false>, lw.ctx(edge));
    return true;
  }
  FaultyEdgeCtx faulty;
  static_cast<EdgeCtx&>(faulty) = edge;
  faulty.srcWord = fwd.srcWord;
  faulty.model = &*fault_;
  lw.edgeOp(&edgeOp<true>, lw.ctx(faulty));
  return true;
}

}  // namespace rasoc::router
