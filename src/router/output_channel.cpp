#include "router/output_channel.hpp"

#include <algorithm>

#include "sim/compile.hpp"

namespace rasoc::router {

OutputChannel::OutputChannel(std::string name, const RouterParams& params,
                             Port ownPort,
                             std::array<CrossbarWires, kNumPorts>& xbar,
                             ChannelWires& out, ArbiterKind arbiter)
    : Module(std::move(name)),
      ownPort_(ownPort),
      oc_(this->name() + ".oc", ownPort, xbar, out.flit.eop, rokSel_, xRd_,
          connected_, sel_, arbiter),
      ods_(this->name() + ".ods", xbar, connected_, sel_, out.flit),
      ors_(this->name() + ".ors", xbar, connected_, sel_, rokSel_),
      flowControl_(params.flowControl),
      out_(&out),
      xbar_(&xbar) {
  addChild(oc_);
  addChild(ods_);
  addChild(ors_);
  if (params.flowControl == FlowControl::Handshake) {
    handshakeOfc_ = std::make_unique<Ofc>(this->name() + ".ofc", ownPort,
                                          rokSel_, out.ack, out.val, xRd_,
                                          xbar);
    addChild(*handshakeOfc_);
  } else {
    creditOfc_ = std::make_unique<CreditOfc>(this->name() + ".ofc", ownPort,
                                             params.p, rokSel_, out.ack,
                                             out.val, xRd_, xbar);
    addChild(*creditOfc_);
  }
}

void OutputChannel::attachMetrics(const OutputChannelMetrics& metrics) {
  metrics_ = metrics;
  metricsAttached_ = true;
  // The edge op reads the metrics through the channel, so the program
  // stays valid; the notification keeps the contract every channel's
  // attachMetrics shares (a lowering may depend on attached state).
  noteDescribeChanged();
}

// Samples the settled pre-edge nets through Wire::get(): the behavioural
// kernels' view for commitEdge().
struct OutputChannel::WireSample {
  const OutputChannel* ch;

  bool val() const { return ch->out_->val.get(); }
  bool ack() const { return ch->out_->ack.get(); }
  bool req(int i) const {
    return (*ch->xbar_)[static_cast<std::size_t>(i)]
        .req[static_cast<std::size_t>(index(ch->ownPort_))]
        .get();
  }
};

void OutputChannel::clockEdge() { commitEdge(WireSample{this}); }

template <typename S>
void OutputChannel::commitEdge(const S& s) {
  const bool val = s.val();
  const bool transferred =
      flowControl_ == FlowControl::Handshake ? (val && s.ack()) : val;
  if (transferred) ++flitsSent_;
  if (!metricsAttached_) return;
  if (transferred) {
    if (metrics_.flitsSent) metrics_.flitsSent->inc();
    if (metrics_.routerFlits) metrics_.routerFlits->inc();
  }
  if (metrics_.busyCycles && val) metrics_.busyCycles->inc();
  // Arbitration accounting, observed pre-edge (this runs before the OC
  // child's edge): the OC grants this edge iff it is idle and some input
  // requests; a conflict cycle leaves at least one requester waiting.
  const int own = index(ownPort_);
  int waiting = 0;
  for (int i = 0; i < kNumPorts; ++i) {
    if (i == own) continue;
    if (s.req(i) && !(oc_.isConnected() &&
                      oc_.selectedInput() == static_cast<Port>(i)))
      ++waiting;
  }
  if (!oc_.isConnected() && waiting > 0) {
    if (metrics_.grants) metrics_.grants->inc();
    --waiting;  // one requester is served by this edge's grant
  }
  if (metrics_.conflictCycles && waiting > 0) metrics_.conflictCycles->inc();
}

// --- compiled-kernel lowering ------------------------------------------
//
// The OC + ODS + ORS + OFC subtree lowers to two combinational arena ops
// plus one edge op:
//
//   publish  - OC evaluate() (registered connection state onto the
//              connected/sel/gnt nets) fused with the ODS flit mux, the
//              ORS rok mux and, under handshake flow control, the OFC's
//              out_val = rok_sel wire.
//   flowRsp  - the flow-control response: under handshake, out_ack fanned
//              out to x_rd and every input's rd line; under credit flow
//              control the credit-gated send driving out_val/x_rd/rd.
//   edge     - commitEdge() over ArenaSample (sent counting, metrics
//              behind the same metricsAttached_ test as clockEdge()), then
//              the OC arbitration step and, in credit mode, the credit
//              counter update - all reading the settled arena exactly as
//              the behavioural clockEdge() chain reads wires, in the same
//              order (channel, then OC, then OFC).

// Each op carries exactly the slices it touches: op contexts are the
// interpreter's dominant memory traffic, so smaller structs mean fewer
// cache lines streamed per simulated cycle.

namespace {

struct OutChanPublishCtx {
  OutputController* oc = nullptr;
  bool handshake = true;
  sim::Slice connected, sel, rokSel, outVal;
  std::uint32_t outWord = 0;
  std::uint32_t xWord[kNumPorts] = {};
  sim::Slice xrok[kNumPorts];
  sim::Slice gnt[kNumPorts];
};

struct OutChanFlowHsCtx {
  sim::Slice outAck, xRd;
  sim::Slice rdOut[kNumPorts];
};

struct OutChanFlowCrCtx {
  CreditOfc* credit = nullptr;
  sim::Slice rokSel, outVal, xRd;
  sim::Slice rdOut[kNumPorts];
};

// OC publish + ODS + ORS (+ handshake out_val).
void outChanPublish(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<OutChanPublishCtx*>(vctx);
  const bool connected = c->oc->isConnected();
  const int sel = index(c->oc->selectedInput());
  sim::opPutBit(w, c->connected, connected);
  sim::opPutWord32(w, c->sel, static_cast<std::uint32_t>(sel));
  for (int i = 0; i < kNumPorts; ++i)
    sim::opPutBit(w, c->gnt[i], connected && i == sel);
  if (connected)
    sim::opCopyFlit(w, c->outWord, c->xWord[sel]);
  else
    sim::opPutFlit(w, c->outWord, 0, false, false);
  const bool rokSel = connected && sim::opBit(w, c->xrok[sel]);
  sim::opPutBit(w, c->rokSel, rokSel);
  if (c->handshake) sim::opPutBit(w, c->outVal, rokSel);
}

// Handshake OFC response: out_ack -> x_rd, broadcast to every rd line.
void outChanFlowHandshake(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<OutChanFlowHsCtx*>(vctx);
  const bool rd = sim::opBit(w, c->outAck);
  sim::opPutBit(w, c->xRd, rd);
  for (int i = 0; i < kNumPorts; ++i) sim::opPutBit(w, c->rdOut[i], rd);
}

// Credit OFC: send whenever the selected input is ready and credit remains.
void outChanFlowCredit(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<OutChanFlowCrCtx*>(vctx);
  const bool send = sim::opBit(w, c->rokSel) && c->credit->credits() > 0;
  sim::opPutBit(w, c->outVal, send);
  sim::opPutBit(w, c->xRd, send);
  for (int i = 0; i < kNumPorts; ++i) sim::opPutBit(w, c->rdOut[i], send);
}

}  // namespace

struct OutputChannel::EdgeCtx {
  OutputChannel* ch = nullptr;
  CreditOfc* credit = nullptr;  // null under handshake flow control
  sim::Slice outVal, outAck, rokSel, xRd;
  std::uint32_t outWord = 0;
  sim::Slice req[kNumPorts];
};

// Samples the same nets as WireSample from the settled arena.
struct OutputChannel::ArenaSample {
  const std::uint64_t* w;
  const EdgeCtx* c;

  bool val() const { return sim::opBit(w, c->outVal); }
  bool ack() const { return sim::opBit(w, c->outAck); }
  bool req(int i) const { return sim::opBit(w, c->req[i]); }
};

// The channel's edge, then the OC's and the OFC's, in clockEdgeAll() order.
void OutputChannel::edgeOp(std::uint64_t* w, void* vctx) {
  const auto* c = static_cast<const EdgeCtx*>(vctx);
  const ArenaSample s{w, c};
  c->ch->commitEdge(s);
  bool req[kNumPorts];
  for (int i = 0; i < kNumPorts; ++i) req[i] = s.req(i);
  const bool rokSel = sim::opBit(w, c->rokSel);
  c->ch->oc_.edgeStep(req, sim::opFlitEop(w, c->outWord), rokSel,
                      sim::opBit(w, c->xRd));
  if (c->credit) c->credit->creditEdge(rokSel, s.ack());
}

bool OutputChannel::describe(sim::Lowering& lw) {
  const bool handshake = flowControl_ == FlowControl::Handshake;
  const int own = index(ownPort_);

  OutChanPublishCtx pub;
  pub.oc = &oc_;
  pub.handshake = handshake;
  pub.connected = lw.bit(connected_);
  pub.sel = lw.word32(sel_);
  pub.rokSel = lw.bit(rokSel_);
  pub.outVal = lw.bit(out_->val);
  pub.outWord = lw.flitWord(out_->flit.data, out_->flit.bop, out_->flit.eop);
  for (int i = 0; i < kNumPorts; ++i) {
    CrossbarWires& x = (*xbar_)[static_cast<std::size_t>(i)];
    pub.xWord[i] = lw.flitWord(x.flit.data, x.flit.bop, x.flit.eop);
    pub.xrok[i] = lw.bit(x.rok);
    pub.gnt[i] = lw.bit(x.gnt[static_cast<std::size_t>(own)]);
  }

  std::vector<const sim::WireBase*> pubReads;
  std::vector<const sim::WireBase*> pubWrites = {
      &connected_,      &sel_,           &out_->flit.data,
      &out_->flit.bop,  &out_->flit.eop, &rokSel_};
  std::vector<const sim::WireBase*> rdWrites = {&xRd_};
  for (int i = 0; i < kNumPorts; ++i) {
    CrossbarWires& x = (*xbar_)[static_cast<std::size_t>(i)];
    pubReads.push_back(&x.flit.data);
    pubReads.push_back(&x.flit.bop);
    pubReads.push_back(&x.flit.eop);
    pubReads.push_back(&x.rok);
    pubWrites.push_back(&x.gnt[static_cast<std::size_t>(own)]);
    rdWrites.push_back(&x.rd[static_cast<std::size_t>(own)]);
  }
  if (handshake) pubWrites.push_back(&out_->val);
  lw.op(&outChanPublish, lw.ctx(pub), std::move(pubReads),
        std::move(pubWrites));

  if (handshake) {
    OutChanFlowHsCtx flow;
    flow.outAck = lw.bit(out_->ack);
    flow.xRd = lw.bit(xRd_);
    for (int i = 0; i < kNumPorts; ++i) {
      CrossbarWires& x = (*xbar_)[static_cast<std::size_t>(i)];
      flow.rdOut[i] = lw.bit(x.rd[static_cast<std::size_t>(own)]);
    }
    lw.op(&outChanFlowHandshake, lw.ctx(flow), {&out_->ack},
          std::move(rdWrites));
  } else {
    OutChanFlowCrCtx flow;
    flow.credit = creditOfc_.get();
    flow.rokSel = pub.rokSel;
    flow.outVal = pub.outVal;
    flow.xRd = lw.bit(xRd_);
    for (int i = 0; i < kNumPorts; ++i) {
      CrossbarWires& x = (*xbar_)[static_cast<std::size_t>(i)];
      flow.rdOut[i] = lw.bit(x.rd[static_cast<std::size_t>(own)]);
    }
    rdWrites.push_back(&out_->val);
    lw.op(&outChanFlowCredit, lw.ctx(flow), {&rokSel_}, std::move(rdWrites));
  }

  EdgeCtx edge;
  edge.ch = this;
  edge.credit = creditOfc_.get();
  edge.outVal = pub.outVal;
  edge.outAck = lw.bit(out_->ack);
  edge.rokSel = pub.rokSel;
  edge.xRd = lw.bit(xRd_);
  edge.outWord = pub.outWord;
  for (int i = 0; i < kNumPorts; ++i) {
    CrossbarWires& x = (*xbar_)[static_cast<std::size_t>(i)];
    edge.req[i] = lw.bit(x.req[static_cast<std::size_t>(own)]);
  }
  lw.edgeOp(&edgeOp, lw.ctx(edge));
  return true;
}

// --- VcOutputChannel -------------------------------------------------------

// (input port, input VC) slots are tracked as bits of 32-bit masks.
static_assert(kNumPorts * kMaxVCs <= 32);

VcOutputChannel::VcOutputChannel(
    std::string name, const RouterParams& params, Port ownPort,
    VcGeometry geometry,
    std::array<std::array<CrossbarWires, kMaxVCs>, kNumPorts>& xbar,
    ChannelWires& out)
    : Module(std::move(name)),
      params_(params),
      ownPort_(ownPort),
      flowControl_(params.flowControl),
      numVCs_(params.numVCs),
      escapeVCs_(std::min(geometry.escapeVCs(), params.numVCs)),
      out_(&out),
      xbar_(&xbar) {
  declareSequential();
  if (creditMode()) credits_.reset(numVCs_, params.p);
  for (int i = 0; i < kNumPorts; ++i) {
    for (int v = 0; v < numVCs_; ++v) {
      const CrossbarWires& x =
          xbar[static_cast<std::size_t>(i)][static_cast<std::size_t>(v)];
      sensitive(x.rok);
      sensitive(x.flit.data);
      sensitive(x.flit.bop);
      sensitive(x.flit.eop);
    }
  }
  for (int d = 0; d < numVCs_; ++d)
    sensitive(out.vcFree[static_cast<std::size_t>(d)]);
}

void VcOutputChannel::attachMetrics(const VcOutputChannelMetrics& metrics) {
  metrics_ = metrics;
  metricsAttached_ = true;
  // The edge op reads the metrics through the channel, so the program
  // stays valid; the notification keeps the contract every channel's
  // attachMetrics shares (a lowering may depend on attached state).
  noteDescribeChanged();
}

void VcOutputChannel::onReset() {
  conn_.fill(Conn{});
  rrNext_.fill(0);
  schedRR_ = 0;
  starve_.fill(0);
  if (creditMode()) credits_.reset(numVCs_, params_.p);
  flitsSent_ = 0;
  vcFlitsSent_.fill(0);
}

// Samples the settled pre-edge nets through Wire::get(): the behavioural
// kernels' view for schedulable() and commitEdge().
struct VcOutputChannel::WireSample {
  const VcOutputChannel* ch;

  int vcs() const { return ch->numVCs_; }

  bool val() const { return ch->out_->val.get(); }
  int vc() const { return ch->out_->vc.get(); }
  bool eop() const { return ch->out_->flit.eop.get(); }
  bool vcFree(int d) const {
    return ch->out_->vcFree[static_cast<std::size_t>(d)].get();
  }
  bool vcAck(int d) const {
    return ch->out_->vcAck[static_cast<std::size_t>(d)].get();
  }
  bool rok(int i, int v) const { return xbar(i, v).rok.get(); }
  bool req(int i, int v) const {
    return xbar(i, v).req[static_cast<std::size_t>(index(ch->ownPort_))].get();
  }
  unsigned want(int i, int v) const {
    return static_cast<unsigned>(xbar(i, v).want.get());
  }

 private:
  const CrossbarWires& xbar(int i, int v) const {
    return (*ch->xbar_)[static_cast<std::size_t>(i)]
                       [static_cast<std::size_t>(v)];
  }
};

template <typename S>
bool VcOutputChannel::schedulable(const S& s, int d) const {
  const Conn& c = conn_[static_cast<std::size_t>(d)];
  return c.active && s.rok(c.inPort, c.inVc) && s.vcFree(d) &&
         (!creditMode() || credits_.available(d));
}

std::uint32_t VcOutputChannel::grantMask() const {
  std::uint32_t granted = 0;
  for (int d = 0; d < numVCs_; ++d) {
    const Conn& c = conn_[static_cast<std::size_t>(d)];
    if (c.active) granted |= 1u << (c.inPort * kMaxVCs + c.inVc);
  }
  return granted;
}

int VcOutputChannel::pickScheduled(unsigned ready) const {
  auto isReady = [&](int d) { return ((ready >> d) & 1u) != 0; };
  if (params_.qosClasses) {
    int sched = -1;
    int starved = -1;
    for (int d = numVCs_ - 1; d >= 0; --d) {
      if (!isReady(d)) continue;
      if (sched < 0) sched = d;
      if (starve_[static_cast<std::size_t>(d)] >= kQosStarvationWindow)
        starved = d;  // descending loop: the last hit is the lowest index
    }
    return starved >= 0 ? starved : sched;
  }
  for (int step = 0; step < numVCs_; ++step) {
    const int d = (schedRR_ + step) % numVCs_;
    if (isReady(d)) return d;
  }
  return -1;
}

void VcOutputChannel::evaluate() {
  const int own = index(ownPort_);

  // Schedule one connected, ready, non-blocked downstream VC onto the
  // physical link.  vcFree is the receiver's space advertisement (on/off) or
  // the link-up level (credit mode, masked low by a faulted link), so a
  // scheduled flit always lands: the transfer is unconditional.  Chosen
  // before any wire is driven so every wire below is set exactly once per
  // pass — a drive-low-then-raise sequence would trip the settle loop's
  // change flag on every iteration and never reach a fixpoint.
  //
  // Policy: round-robin by default; under qosClasses, strict priority by
  // downstream VC index (descending — the class→VC map puts higher classes
  // on higher VCs) unless some VC's starvation counter crossed
  // kQosStarvationWindow, in which case the lowest-index starved VC wins so
  // escape VCs are always served within a bounded interval.
  const WireSample wires{this};
  unsigned ready = 0;
  for (int d = 0; d < numVCs_; ++d)
    if (schedulable(wires, d)) ready |= 1u << d;
  const int sched = pickScheduled(ready);
  const Conn* sc =
      sched >= 0 ? &conn_[static_cast<std::size_t>(sched)] : nullptr;

  // Publish grants from the registered connection table and the read strobe
  // of the scheduled source (all other strobes low).
  const std::uint32_t granted = grantMask();
  for (int i = 0; i < kNumPorts; ++i) {
    for (int v = 0; v < numVCs_; ++v) {
      CrossbarWires& x =
          (*xbar_)[static_cast<std::size_t>(i)][static_cast<std::size_t>(v)];
      x.gnt[static_cast<std::size_t>(own)].set(
          ((granted >> (i * kMaxVCs + v)) & 1u) != 0);
      x.rd[static_cast<std::size_t>(own)].set(sc && sc->inPort == i &&
                                              sc->inVc == v);
    }
  }
  if (sc) {
    const CrossbarWires& src = (*xbar_)[static_cast<std::size_t>(sc->inPort)]
                                       [static_cast<std::size_t>(sc->inVc)];
    vcOutputDataSwitch(src, sched, out_->flit, out_->vc, out_->val);
  } else {
    vcOutputDataIdle(out_->flit, out_->vc, out_->val);
  }
}

void VcOutputChannel::clockEdge() { commitEdge(WireSample{this}); }

template <typename S>
void VcOutputChannel::commitEdge(const S& s) {
  // numVCs_, known at compile time under ArenaSample so the loops unroll.
  const int vcs = s.vcs();
  const int own = index(ownPort_);
  const bool val = s.val();
  const int sent = val ? s.vc() : -1;

  // 0. QoS starvation accounting, from pre-commit state (credits_ not yet
  //    burned): a VC that could have sent but was not scheduled ages by
  //    one edge; a served or ineligible VC resets.  Bounded so a VC parked
  //    behind a full receiver cannot overflow the counter.
  if (params_.qosClasses) {
    for (int d = 0; d < vcs; ++d) {
      auto& age = starve_[static_cast<std::size_t>(d)];
      if (schedulable(s, d) && d != sent) {
        if (age <= kQosStarvationWindow) ++age;
      } else {
        age = 0;
      }
    }
  }

  // 1. Commit the scheduled transfer: count, burn a credit, tear the
  //    connection down on the tail flit and advance the link RR.
  if (val) {
    const auto d = static_cast<std::size_t>(sent);
    ++flitsSent_;
    ++vcFlitsSent_[d];
    if (creditMode()) credits_.onSent(sent);
    if (s.eop()) conn_[d].active = false;
    schedRR_ = (sent + 1) % vcs;
    if (metricsAttached_) {
      if (metrics_.flitsSent) metrics_.flitsSent->inc();
      if (metrics_.routerFlits) metrics_.routerFlits->inc();
      if (metrics_.vcFlits[d]) metrics_.vcFlits[d]->inc();
    }
  }
  if (metricsAttached_ && metrics_.busyCycles && val)
    metrics_.busyCycles->inc();

  // 2. Per-VC credit returns (pulses from the receiver; a faulted link
  //    passes these through even while down, so no credit is ever lost).
  if (creditMode()) {
    for (int d = 0; d < vcs; ++d)
      if (s.vcAck(d)) credits_.onReturn(d);
  }

  // 3. Allocation: hand each idle downstream VC to a matching requester.
  //    `consumed` (bit inPort * kMaxVCs + inVc) starts from the surviving
  //    connections and accumulates within this edge so one input VC never
  //    acquires two downstream VCs.  The requests are read once, on the
  //    first downstream VC that needs them: bids[d] holds every input VC
  //    bidding this output whose want mask includes d.
  std::uint32_t consumed = grantMask();
  std::array<std::uint32_t, kMaxVCs> bids{};
  bool bidsRead = false;
  auto readBids = [&] {
    bidsRead = true;
    for (int i = 0; i < kNumPorts; ++i) {
      if (i == own) continue;
      for (int v = 0; v < vcs; ++v) {
        if (!s.req(i, v)) continue;
        const unsigned want = s.want(i, v);
        for (int d = 0; d < vcs; ++d)
          if ((want >> d) & 1u)
            bids[static_cast<std::size_t>(d)] |= 1u << (i * kMaxVCs + v);
      }
    }
  };
  int grantsIssued = 0;
  const int slots = kNumPorts * kMaxVCs;
  for (int d = 0; d < vcs; ++d) {
    if (conn_[static_cast<std::size_t>(d)].active) continue;
    // Duato guard: never hand out a downstream VC that cannot accept a
    // flit right now.  An allocated header is committed — its patience
    // rotation stops, so it can no longer fall back to the escape option —
    // and committing it to a lane still backlogged with a predecessor's
    // flits closes wait cycles the escape layer can never break (a Bulk
    // flood confined to one lane by the QoS class map wedges a ring this
    // way).  Keeping the header unallocated keeps its escape bid alive.
    if (!s.vcFree(d)) continue;
    if (creditMode() && !credits_.available(d)) continue;
    if (!bidsRead) readBids();
    const int slot = vcArbitrate(bids[static_cast<std::size_t>(d)] & ~consumed,
                                 rrNext_[static_cast<std::size_t>(d)]);
    if (slot < 0) continue;
    conn_[static_cast<std::size_t>(d)] = {true, slot / kMaxVCs,
                                          slot % kMaxVCs};
    consumed |= 1u << slot;
    rrNext_[static_cast<std::size_t>(d)] = (slot + 1) % slots;
    ++grantsIssued;
  }
  if (metricsAttached_) {
    if (metrics_.grants)
      for (int g = 0; g < grantsIssued; ++g) metrics_.grants->inc();
    if (metrics_.conflictCycles) {
      bool waiting = false;
      for (int i = 0; i < kNumPorts && !waiting; ++i) {
        if (i == own) continue;
        for (int v = 0; v < vcs && !waiting; ++v)
          waiting = s.req(i, v) && ((consumed >> (i * kMaxVCs + v)) & 1u) == 0;
      }
      if (waiting) metrics_.conflictCycles->inc();
    }
  }
}

// --- compiled-kernel lowering ----------------------------------------------
//
// The channel splits at the same register boundary the hardware has
// between VC allocation and link scheduling:
//
//   grant    - gnt[own] of every (input port, input VC) from the registered
//              connection table.  It reads no wire, so it levelizes to the
//              front and the input channels' publish ops can depend on it.
//   schedule - the link scheduler: reads the connected sources' rok and
//              flit and the downstream vcFree levels, drives the read
//              strobes and the output flit/vc/val.
//
// Fused, the two would make every input channel's publish (which reads
// gnt) depend on its own rok through the scheduler — the cycle that kept
// whole VC networks in one iterated segment.
//
// The clock edge lowers to one edge op running commitEdge() over
// ArenaSample<numVCs>, whose context carries slices for the channel's
// numVCs only.  The requests and want masks are still read lazily, only
// when an idle downstream VC with space needs them.

struct VcOutputChannel::GrantCtx {
  const VcOutputChannel* ch = nullptr;
  sim::Slice gnt[kNumPorts][kMaxVCs];
};

struct VcOutputChannel::ScheduleCtx {
  const VcOutputChannel* ch = nullptr;
  sim::Slice rok[kNumPorts][kMaxVCs];
  std::uint32_t xWord[kNumPorts][kMaxVCs] = {};
  sim::Slice rd[kNumPorts][kMaxVCs];
  sim::Slice vcFree[kMaxVCs];
  std::uint32_t outWord = 0;
  sim::Slice outVc, outVal;
};

template <int N>
struct VcOutputChannel::EdgeCtx {
  static constexpr int kVCs = N;
  VcOutputChannel* ch = nullptr;
  sim::Slice val, vc;
  std::uint32_t outWord = 0;
  sim::Slice vcFree[N], vcAck[N];  // vcAck: credit flow control only
  sim::Slice rok[kNumPorts][N], req[kNumPorts][N], want[kNumPorts][N];
};

// Samples the same nets as WireSample from the settled arena, through the
// slices of an edge or schedule context.
template <typename Ctx>
struct VcOutputChannel::ArenaSample {
  const std::uint64_t* w;
  const Ctx* c;

  static constexpr int vcs() { return Ctx::kVCs; }

  bool val() const { return sim::opBit(w, c->val); }
  int vc() const { return static_cast<int>(sim::opWord32(w, c->vc)); }
  bool eop() const { return sim::opFlitEop(w, c->outWord); }
  bool vcFree(int d) const { return sim::opBit(w, c->vcFree[d]); }
  bool vcAck(int d) const { return sim::opBit(w, c->vcAck[d]); }
  bool rok(int i, int v) const { return sim::opBit(w, c->rok[i][v]); }
  bool req(int i, int v) const { return sim::opBit(w, c->req[i][v]); }
  unsigned want(int i, int v) const { return sim::opWord32(w, c->want[i][v]); }
};

void VcOutputChannel::grantOp(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<const GrantCtx*>(vctx);
  const VcOutputChannel& ch = *c->ch;
  const std::uint32_t granted = ch.grantMask();
  for (int i = 0; i < kNumPorts; ++i)
    for (int v = 0; v < ch.numVCs_; ++v)
      sim::opPutBit(w, c->gnt[i][v],
                    ((granted >> (i * kMaxVCs + v)) & 1u) != 0);
}

void VcOutputChannel::scheduleOp(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<const ScheduleCtx*>(vctx);
  const VcOutputChannel& ch = *c->ch;
  const ArenaSample<ScheduleCtx> arena{w, c};
  unsigned ready = 0;
  for (int d = 0; d < ch.numVCs_; ++d)
    if (ch.schedulable(arena, d)) ready |= 1u << d;
  const int sched = ch.pickScheduled(ready);
  int readSlot = -1;  // inPort * kMaxVCs + inVc of the scheduled source
  if (sched >= 0) {
    const Conn& k = ch.conn_[static_cast<std::size_t>(sched)];
    readSlot = k.inPort * kMaxVCs + k.inVc;
    sim::opCopyFlit(w, c->outWord, c->xWord[k.inPort][k.inVc]);
    sim::opPutWord32(w, c->outVc, static_cast<std::uint32_t>(sched));
    sim::opPutBit(w, c->outVal, true);
  } else {
    sim::opPutFlit(w, c->outWord, 0, false, false);
    sim::opPutWord32(w, c->outVc, 0);
    sim::opPutBit(w, c->outVal, false);
  }
  for (int i = 0; i < kNumPorts; ++i)
    for (int v = 0; v < ch.numVCs_; ++v)
      sim::opPutBit(w, c->rd[i][v], i * kMaxVCs + v == readSlot);
}

template <int N>
void VcOutputChannel::edgeOp(std::uint64_t* w, void* vctx) {
  const auto* c = static_cast<const EdgeCtx<N>*>(vctx);
  c->ch->commitEdge(ArenaSample<EdgeCtx<N>>{w, c});
}

template <int N>
void VcOutputChannel::describeEdge(sim::Lowering& lw) {
  const auto own = static_cast<std::size_t>(index(ownPort_));
  EdgeCtx<N> edge;
  edge.ch = this;
  edge.val = lw.bit(out_->val);
  edge.vc = lw.word32(out_->vc);
  edge.outWord = lw.flitWord(out_->flit.data, out_->flit.bop, out_->flit.eop);
  for (int d = 0; d < N; ++d) {
    const auto di = static_cast<std::size_t>(d);
    edge.vcFree[d] = lw.bit(out_->vcFree[di]);
    if (creditMode()) edge.vcAck[d] = lw.bit(out_->vcAck[di]);
  }
  for (int i = 0; i < kNumPorts; ++i) {
    for (int v = 0; v < N; ++v) {
      const CrossbarWires& x =
          (*xbar_)[static_cast<std::size_t>(i)][static_cast<std::size_t>(v)];
      edge.rok[i][v] = lw.bit(x.rok);
      edge.req[i][v] = lw.bit(x.req[own]);
      edge.want[i][v] = lw.word32(x.want);
    }
  }
  lw.edgeOp(&edgeOp<N>, lw.ctx(edge));
}

bool VcOutputChannel::describe(sim::Lowering& lw) {
  const auto own = static_cast<std::size_t>(index(ownPort_));
  GrantCtx grant;
  grant.ch = this;
  ScheduleCtx sched;
  sched.ch = this;
  std::vector<const sim::WireBase*> gntWrites;
  std::vector<const sim::WireBase*> schedReads;
  std::vector<const sim::WireBase*> schedWrites = {
      &out_->flit.data, &out_->flit.bop, &out_->flit.eop, &out_->vc,
      &out_->val};
  for (int i = 0; i < kNumPorts; ++i) {
    for (int v = 0; v < numVCs_; ++v) {
      CrossbarWires& x =
          (*xbar_)[static_cast<std::size_t>(i)][static_cast<std::size_t>(v)];
      grant.gnt[i][v] = lw.bit(x.gnt[own]);
      gntWrites.push_back(&x.gnt[own]);
      sched.rok[i][v] = lw.bit(x.rok);
      sched.xWord[i][v] = lw.flitWord(x.flit.data, x.flit.bop, x.flit.eop);
      sched.rd[i][v] = lw.bit(x.rd[own]);
      schedReads.insert(schedReads.end(),
                        {&x.rok, &x.flit.data, &x.flit.bop, &x.flit.eop});
      schedWrites.push_back(&x.rd[own]);
    }
  }
  for (int d = 0; d < numVCs_; ++d) {
    sched.vcFree[d] = lw.bit(out_->vcFree[static_cast<std::size_t>(d)]);
    schedReads.push_back(&out_->vcFree[static_cast<std::size_t>(d)]);
  }
  sched.outWord = lw.flitWord(out_->flit.data, out_->flit.bop, out_->flit.eop);
  sched.outVc = lw.word32(out_->vc);
  sched.outVal = lw.bit(out_->val);
  lw.op(&grantOp, lw.ctx(grant), {}, std::move(gntWrites));
  lw.op(&scheduleOp, lw.ctx(sched), std::move(schedReads),
        std::move(schedWrites));
  switch (numVCs_) {
    case 2:
      describeEdge<2>(lw);
      break;
    case 3:
      describeEdge<3>(lw);
      break;
    default:
      describeEdge<kMaxVCs>(lw);
      break;
  }
  return true;
}

}  // namespace rasoc::router
