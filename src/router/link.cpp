#include "router/link.hpp"

#include <memory>
#include <stdexcept>
#include <typeinfo>
#include <vector>

#include "sim/compile.hpp"

namespace rasoc::router {

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

void Link::evaluate() {
  const bool bop = src_->flit.bop.get();
  const bool eop = src_->flit.eop.get();
  dst_->flit.data.set(transformData(src_->flit.data.get(), bop, eop));
  dst_->flit.bop.set(bop);
  dst_->flit.eop.set(eop);
  dst_->val.set(src_->val.get());
  if (numVCs_ == 1) {
    src_->ack.set(dst_->ack.get());
    return;
  }
  // VC mode: vc tag downstream, per-VC space/link-up levels and credit
  // pulses upstream.  The ack wire is unused.
  dst_->vc.set(src_->vc.get());
  for (int v = 0; v < numVCs_; ++v) {
    src_->vcFree[static_cast<std::size_t>(v)].set(
        dst_->vcFree[static_cast<std::size_t>(v)].get());
    src_->vcAck[static_cast<std::size_t>(v)].set(
        dst_->vcAck[static_cast<std::size_t>(v)].get());
  }
}

void Link::clockEdge() {
  // With VCs a scheduled flit always transfers: the sender only raises val
  // toward a VC with advertised space or an in-hand credit.
  const bool transferred =
      (flowControl_ == FlowControl::Handshake && numVCs_ == 1)
          ? (src_->val.get() && src_->ack.get())
          : src_->val.get();
  if (transferred) ++flitsTransferred_;
}

// --- compiled-kernel lowering ------------------------------------------
//
// Forward (flit + val) and reverse (ack) directions are separate ops:
// fusing them would tie the downstream val driver to the downstream ack
// reader and manufacture a false combinational cycle through the
// receiving router's flow controller.
//
// A fault-injecting link lowers to the same units with fault-aware op
// functions whose contexts add a pointer to its registered LinkFaultState;
// plain links keep the plain ops, so fault-free networks pay nothing for
// the fault path.

// Each op carries exactly the slices it touches: op contexts are the
// interpreter's dominant memory traffic, so smaller structs mean fewer
// cache lines streamed per simulated cycle.

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

struct LinkEdgeCtx {
  sim::Slice srcVal, srcAck;
  bool handshake = true;
  std::uint64_t* flits = nullptr;
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

void linkEdge(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<LinkEdgeCtx*>(vctx);
  const bool transferred =
      c->handshake ? (sim::opBit(w, c->srcVal) && sim::opBit(w, c->srcAck))
                   : sim::opBit(w, c->srcVal);
  if (transferred) ++*c->flits;
}

// FaultyLink::evaluate() over the arena.  An active window presents
// nothing downstream; otherwise the flit is copied and a payload flit
// (not a header) carries the armed mask in its data bits.
void forwardFaulted(std::uint64_t* w, const LinkFwdCtx& f,
                    const LinkFaultState& fault) {
  if (fault.masked()) {
    sim::opPutFlit(w, f.dstWord, 0, false, false);
    sim::opPutBit(w, f.dstVal, false);
    return;
  }
  sim::opCopyFlit(w, f.dstWord, f.srcWord);
  if (!sim::opFlitBop(w, f.srcWord)) w[f.dstWord] ^= fault.armedMask;
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

// Single VC: a StuckAck window holds ack low; a LinkDown window acks an
// offered body flit (consuming it) and holds framing flits.
void faultyReverse(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<FaultyRevCtx*>(vctx);
  bool ack = sim::opBit(w, c->rev.dstAck);
  if (c->fault->masked()) {
    const bool body = !sim::opFlitBop(w, c->srcWord) &&
                      !sim::opFlitEop(w, c->srcWord);
    ack = !c->fault->stall && body && sim::opBit(w, c->srcVal);
  }
  sim::opPutBit(w, c->rev.srcAck, ack);
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
  // Only an exact Link is pass-through wiring; a subclass that overrides
  // evaluate()/transformData() without describing itself runs as a
  // behavioural thunk.
  if (typeid(*this) != typeid(Link)) return false;
  describeCopies(lw, nullptr);

  LinkEdgeCtx edge;
  edge.srcVal = lw.bit(src_->val);
  edge.flits = &flitsTransferred_;
  // With VCs a scheduled flit always transfers.
  edge.handshake = flowControl_ == FlowControl::Handshake && numVCs_ == 1;
  if (edge.handshake) edge.srcAck = lw.bit(src_->ack);
  lw.edgeOp(&linkEdge, lw.ctx(edge));
  return true;
}

void Link::describeCopies(sim::Lowering& lw, const LinkFaultState* fault) {
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
    return;
  }

  LinkRevCtx rev;
  rev.srcAck = lw.bit(src_->ack);
  rev.dstAck = lw.bit(dst_->ack);
  if (!fault) {
    lw.op(&linkForward, lw.ctx(fwd), std::move(fwdReads),
          std::move(fwdWrites));
    lw.op(&linkReverse, lw.ctx(rev), {&dst_->ack}, {&src_->ack});
    return;
  }
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
}

}  // namespace rasoc::router
