#include "router/input_channel.hpp"

#include <algorithm>
#include <bit>

#include "sim/compile.hpp"

namespace rasoc::router {

namespace {
// Settle cycles an adaptive header tries one route option before the
// patience rotation moves it to the next (the escape option is last and
// sticky, so every starved header eventually bids only its escape path).
constexpr int kVcPatienceWindow = 4;
constexpr int kVcPatienceCap = 1 << 20;

// Under qosClasses the window scales with the header's class: a high class
// owns (or nearly owns) its adaptive lane, so its bid is served quickly in
// the common case and rotating onto the escape layer — a class-blind FIFO
// that a Bulk flood keeps full — would be the dominant source of its tail
// latency.  Low classes keep the base window: their lanes saturate first
// and the escape fallback is how they drain.  Every window stays finite,
// so the Duato escape guarantee (DESIGN.md §12/§13) is unchanged.
constexpr int qosPatienceWindow(TrafficClass cls) {
  return kVcPatienceWindow << (2 * static_cast<int>(cls));
}
}  // namespace

InputChannel::InputChannel(std::string name, const RouterParams& params,
                           Port ownPort, FlowControl flowControl,
                           ChannelWires& in, CrossbarWires& xbar)
    : Module(std::move(name)),
      ownPort_(ownPort),
      ifc_(this->name() + ".ifc", flowControl, in.val, wok_,
           flowControl == FlowControl::Handshake ? &in.ack : nullptr, wr_),
      ib_(InputBuffer::create(this->name() + ".ib", params, in.flit, wr_, rd_,
                              ibDout_, wok_, rok_)),
      ic_(this->name() + ".ic", params, ownPort, ibDout_, rok_, xbar),
      irs_(this->name() + ".irs", xbar, rd_),
      in_(&in),
      xbar_(&xbar) {
  addChild(ifc_);
  addChild(*ib_);
  addChild(ic_);
  addChild(irs_);
  if (flowControl == FlowControl::CreditBased) {
    // The channel ack wire becomes the credit-return line, pulsed when a
    // flit leaves the buffer.
    creditTap_ = std::make_unique<CreditReturnTap>(this->name() + ".credit",
                                                   rd_, rok_, in.ack);
    addChild(*creditTap_);
  }
}

void InputChannel::attachMetrics(const InputChannelMetrics& metrics) {
  metrics_ = metrics;
  metricsAttached_ = true;
  // The edge op reads the metrics through the channel, so the program
  // stays valid; the notification keeps the contract every channel's
  // attachMetrics shares (a lowering may depend on attached state).
  noteDescribeChanged();
}

// Samples the settled pre-edge nets through Wire::get(): the behavioural
// kernels' view for commitEdge().
struct InputChannel::WireSample {
  const InputChannel* ch;

  bool wr() const { return ch->wr_.get(); }
  bool rok() const { return ch->rok_.get(); }
  bool rd() const { return ch->rd_.get(); }
  int occupancy() const { return ch->ib_->occupancy(); }
  int depth() const { return ch->ib_->depth(); }
};

void InputChannel::clockEdge() { commitEdge(WireSample{this}); }

template <typename S>
void InputChannel::commitEdge(const S& s) {
  // Runs before the buffer child's commit (clockEdgeAll() preorder), so
  // the occupancy is pre-commit.
  const int occupancy = s.occupancy();
  const bool accepted = s.wr() && occupancy < s.depth();
  if (accepted) ++flitsAccepted_;
  if (!metricsAttached_) return;
  if (metrics_.flitsAccepted && accepted) metrics_.flitsAccepted->inc();
  if (metrics_.fullCycles && occupancy >= s.depth())
    metrics_.fullCycles->inc();
  if (metrics_.stallCycles && s.rok() && !s.rd()) metrics_.stallCycles->inc();
  if (metrics_.occupancy)
    metrics_.occupancy->observe(static_cast<std::uint64_t>(occupancy));
}

// --- compiled-kernel lowering ------------------------------------------
//
// The whole IFC + IB + IC + IRS (+ credit tap) subtree lowers to three
// combinational arena ops plus one edge op:
//
//   publish  - IB evaluate() (wok/rok/dout from registered FIFO state) fused
//              with the IC routing function (x_dout/x_rok/x_req).  Reads
//              nothing combinational, so it levelizes to the front.
//   flowCtl  - the IFC: wr (and, under handshake, in_ack) from in_val/wok.
//   readSw   - the IRS OR-reduce of gnt&rd (plus, under credit flow
//              control, the credit-return pulse on in_ack).  Kept separate
//              from flowCtl: fusing them would tie the in_ack driver to the
//              gnt/rd readers and manufacture a false combinational cycle
//              through the neighbouring router's ack chain.
//   edge     - commitEdge() over ArenaSample (accept counting, metrics
//              behind the same metricsAttached_ test as clockEdge()), then
//              the FIFO commit, reading wr/rd/din from the settled arena
//              exactly as the buffer's clockEdge() reads wires.

// Each op carries exactly the slices it touches: op contexts are the
// interpreter's dominant memory traffic, so smaller structs mean fewer
// cache lines streamed per simulated cycle.

namespace {

struct InChanPublishCtx {
  // FIFO view (registered state, read directly).
  const Flit* slots = nullptr;
  const int* count = nullptr;
  const int* rptr = nullptr;  // null: shift register, head = slots[count-1]
  int depth = 0;
  // Routing parameters and observability sink.
  int m = 0;
  std::uint32_t mask = 0;
  RoutingAlgorithm routing = RoutingAlgorithm::XY;
  InputController* ic = nullptr;
  sim::Slice wok, rok, xrok;
  std::uint32_t doutWord = 0, xbarWord = 0;
  sim::Slice req[kNumPorts];
};

struct InChanFlowHsCtx {
  sim::Slice inVal, wok, inAck, wr;
};

struct InChanFlowCrCtx {
  sim::Slice inVal, wr;
};

struct InChanRsCtx {
  sim::Slice gnt[kNumPorts], rdIn[kNumPorts];
  sim::Slice rd;
};

struct InChanRsCrCtx {
  InChanRsCtx rs;
  sim::Slice rok, inAck;
};

// IB publish + IC routing (ic.cpp InputController::evaluate over the
// arena, with the buffer head read straight from the FIFO store).
void inChanPublish(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<InChanPublishCtx*>(vctx);
  const int count = *c->count;
  const bool empty = count == 0;
  sim::opPutBit(w, c->wok, count < c->depth);
  sim::opPutBit(w, c->rok, !empty);
  Flit h;
  if (!empty) h = c->rptr ? c->slots[*c->rptr] : c->slots[count - 1];
  sim::opPutFlit(w, c->doutWord, h.data, h.bop, h.eop);

  const bool headerVisible = !empty && h.bop;
  Port target = Port::Local;
  std::uint32_t forwarded = h.data;
  if (headerVisible) {
    const Rib rib = decodeRib(h.data, c->m);
    target = route(c->routing, rib);
    forwarded = updateHeader(h.data, consumeHop(rib, target), c->m) & c->mask;
  }
  for (int o = 0; o < kNumPorts; ++o)
    sim::opPutBit(w, c->req[o], headerVisible && o == index(target));
  sim::opPutFlit(w, c->xbarWord, forwarded, h.bop, h.eop);
  sim::opPutBit(w, c->xrok, !empty);
  c->ic->noteDecision(headerVisible, target);
}

// IFC, handshake mode: accept when offered and space is available.
void inChanFlowHandshake(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<InChanFlowHsCtx*>(vctx);
  const bool accept = sim::opBit(w, c->inVal) && sim::opBit(w, c->wok);
  sim::opPutBit(w, c->inAck, accept);
  sim::opPutBit(w, c->wr, accept);
}

// IFC, credit mode: space is guaranteed by the sender's credit counter.
void inChanFlowCredit(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<InChanFlowCrCtx*>(vctx);
  sim::opPutBit(w, c->wr, sim::opBit(w, c->inVal));
}

inline bool irsRead(const std::uint64_t* w, const InChanRsCtx* c) {
  bool read = false;
  for (int o = 0; o < kNumPorts; ++o)
    read = read || (sim::opBit(w, c->gnt[o]) && sim::opBit(w, c->rdIn[o]));
  return read;
}

// IRS: connect the granted output's read command to the buffer.
void inChanReadSwitch(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<InChanRsCtx*>(vctx);
  sim::opPutBit(w, c->rd, irsRead(w, c));
}

// IRS + credit-return tap: the ack wire pulses when a flit leaves.
void inChanReadSwitchCredit(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<InChanRsCrCtx*>(vctx);
  const bool read = irsRead(w, &c->rs);
  sim::opPutBit(w, c->rs.rd, read);
  sim::opPutBit(w, c->inAck, read && sim::opBit(w, c->rok));
}

}  // namespace

// The buffer's pointer, depth and occupancy ride in the context, so the
// metrics-off edge touches the channel object only for its counter.
struct InputChannel::EdgeCtx {
  InputChannel* ch = nullptr;
  InputBuffer* ib = nullptr;
  const int* count = nullptr;  // the buffer's registered occupancy
  int depth = 0;
  sim::Slice wr, rok, rd;
  std::uint32_t inWord = 0;
};

// Samples the same nets as WireSample from the settled arena.
struct InputChannel::ArenaSample {
  const std::uint64_t* w;
  const EdgeCtx* c;

  bool wr() const { return sim::opBit(w, c->wr); }
  bool rok() const { return sim::opBit(w, c->rok); }
  bool rd() const { return sim::opBit(w, c->rd); }
  int occupancy() const { return *c->count; }
  int depth() const { return c->depth; }
};

// The channel's edge, then the buffer child's, in clockEdgeAll() order.
void InputChannel::edgeOp(std::uint64_t* w, void* vctx) {
  const auto* c = static_cast<const EdgeCtx*>(vctx);
  const ArenaSample s{w, c};
  c->ch->commitEdge(s);
  c->ib->commitEdge(s.wr(), s.rd(), sim::opFlitData(w, c->inWord),
                   sim::opFlitBop(w, c->inWord), sim::opFlitEop(w, c->inWord));
}

bool InputChannel::describe(sim::Lowering& lw) {
  const InputBuffer::CompiledView view = ib_->compiledView();

  InChanPublishCtx pub;
  pub.slots = view.slots;
  pub.count = view.count;
  pub.rptr = view.rptr;
  pub.depth = ib_->depth();
  pub.m = ic_.ribBits();
  pub.mask = ic_.dataMaskValue();
  pub.routing = ic_.routingAlgorithm();
  pub.ic = &ic_;
  pub.wok = lw.bit(wok_);
  pub.rok = lw.bit(rok_);
  pub.xrok = lw.bit(xbar_->rok);
  pub.doutWord = lw.flitWord(ibDout_.data, ibDout_.bop, ibDout_.eop);
  pub.xbarWord = lw.flitWord(xbar_->flit.data, xbar_->flit.bop,
                             xbar_->flit.eop);
  for (int o = 0; o < kNumPorts; ++o) pub.req[o] = lw.bit(xbar_->req[o]);

  std::vector<const sim::WireBase*> pubWrites = {
      &wok_,          &rok_,          &ibDout_.data,      &ibDout_.bop,
      &ibDout_.eop,   &xbar_->rok,    &xbar_->flit.data,  &xbar_->flit.bop,
      &xbar_->flit.eop};
  for (int o = 0; o < kNumPorts; ++o) pubWrites.push_back(&xbar_->req[o]);
  lw.op(&inChanPublish, lw.ctx(pub), {}, std::move(pubWrites));

  InChanRsCtx rs;
  for (int o = 0; o < kNumPorts; ++o) {
    rs.gnt[o] = lw.bit(xbar_->gnt[o]);
    rs.rdIn[o] = lw.bit(xbar_->rd[o]);
  }
  rs.rd = lw.bit(rd_);

  std::vector<const sim::WireBase*> irsReads;
  for (int o = 0; o < kNumPorts; ++o) {
    irsReads.push_back(&xbar_->gnt[o]);
    irsReads.push_back(&xbar_->rd[o]);
  }
  if (creditTap_ == nullptr) {
    InChanFlowHsCtx flow;
    flow.inVal = lw.bit(in_->val);
    flow.wok = pub.wok;
    flow.inAck = lw.bit(in_->ack);
    flow.wr = lw.bit(wr_);
    lw.op(&inChanFlowHandshake, lw.ctx(flow), {&in_->val, &wok_},
          {&in_->ack, &wr_});
    lw.op(&inChanReadSwitch, lw.ctx(rs), std::move(irsReads), {&rd_});
  } else {
    InChanFlowCrCtx flow;
    flow.inVal = lw.bit(in_->val);
    flow.wr = lw.bit(wr_);
    lw.op(&inChanFlowCredit, lw.ctx(flow), {&in_->val}, {&wr_});
    InChanRsCrCtx rsc;
    rsc.rs = rs;
    rsc.rok = pub.rok;
    rsc.inAck = lw.bit(in_->ack);
    irsReads.push_back(&rok_);
    lw.op(&inChanReadSwitchCredit, lw.ctx(rsc), std::move(irsReads),
          {&rd_, &in_->ack});
  }

  EdgeCtx edge;
  edge.ch = this;
  edge.ib = ib_.get();
  edge.count = view.count;
  edge.depth = ib_->depth();
  edge.wr = lw.bit(wr_);
  edge.rok = pub.rok;
  edge.rd = rs.rd;
  edge.inWord = lw.flitWord(in_->flit.data, in_->flit.bop, in_->flit.eop);
  lw.edgeOp(&edgeOp, lw.ctx(edge));
  return true;
}

// --- VcInputChannel --------------------------------------------------------

VcInputChannel::VcInputChannel(std::string name, const RouterParams& params,
                               Port ownPort, VcGeometry geometry,
                               ChannelWires& in,
                               std::array<CrossbarWires, kMaxVCs>& xbar)
    : Module(std::move(name)),
      params_(params),
      ownPort_(ownPort),
      flowControl_(params.flowControl),
      geometry_(geometry),
      numVCs_(params.numVCs),
      escapeVCs_(std::min(geometry.escapeVCs(), params.numVCs)),
      in_(&in),
      xbar_(&xbar),
      slots_(static_cast<std::size_t>(params.numVCs * params.p)) {
  // evaluate() publishes from the registered FIFOs and reacts to the
  // grant/read nets the output channels drive from their (registered)
  // connection tables.
  declareSequential();
  for (int v = 0; v < numVCs_; ++v) {
    CrossbarWires& xb = (*xbar_)[static_cast<std::size_t>(v)];
    for (int o = 0; o < kNumPorts; ++o) {
      sensitive(xb.gnt[static_cast<std::size_t>(o)]);
      sensitive(xb.rd[static_cast<std::size_t>(o)]);
    }
  }
}

void VcInputChannel::attachMetrics(const VcInputChannelMetrics& metrics) {
  metrics_ = metrics;
  metricsAttached_ = true;
  // The edge op reads the metrics through the channel, so the program
  // stays valid; the notification keeps the contract every channel's
  // attachMetrics shares (a lowering may depend on attached state).
  noteDescribeChanged();
}

void VcInputChannel::push(int v, const Flit& f) {
  const auto vi = static_cast<std::size_t>(v);
  const int tail = (head_[vi] + count_[vi]) % params_.p;
  slots_[static_cast<std::size_t>(v * params_.p + tail)] = f;
  ++count_[vi];
}

void VcInputChannel::pop(int v) {
  const auto vi = static_cast<std::size_t>(v);
  head_[vi] = (head_[vi] + 1) % params_.p;
  --count_[vi];
}

// Samples the settled pre-edge nets through Wire::get(): the behavioural
// kernels' view for commitEdge().
struct VcInputChannel::WireSample {
  const VcInputChannel* ch;

  int vcs() const { return ch->numVCs_; }

  bool val() const { return ch->in_->val.get(); }
  int vc() const { return ch->in_->vc.get(); }
  Flit flit() const {
    Flit f;
    f.data = ch->in_->flit.data.get();
    f.bop = ch->in_->flit.bop.get();
    f.eop = ch->in_->flit.eop.get();
    return f;
  }
  unsigned gnt(int v) const {
    unsigned mask = 0;
    for (int o = 0; o < kNumPorts; ++o)
      if (xbar(v).gnt[static_cast<std::size_t>(o)].get()) mask |= 1u << o;
    return mask;
  }
  bool rd(int v, int o) const {
    return xbar(v).rd[static_cast<std::size_t>(o)].get();
  }

 private:
  const CrossbarWires& xbar(int v) const {
    return (*ch->xbar_)[static_cast<std::size_t>(v)];
  }
};

// VC v's pop strobe: a granting output port reads it out.  Only the ports
// in `gnt` are sampled.
template <typename S>
bool VcInputChannel::popFired(const S& s, int v, unsigned gnt) {
  for (; gnt != 0; gnt &= gnt - 1)
    if (s.rd(v, std::countr_zero(gnt))) return true;
  return false;
}

bool VcInputChannel::popFired(int v) const {
  const WireSample s{this};
  return popFired(s, v, s.gnt(v));
}

bool VcInputChannel::dequeueFired(int v) const {
  return occupancy(v) > 0 && popFired(v);
}

void VcInputChannel::onReset() {
  head_.fill(0);
  count_.fill(0);
  patience_.fill(0);
  occupancySum_.fill(0);
  flitsAccepted_ = 0;
  misroute_ = false;
  overflow_ = false;
}

VcInputChannel::VcPublish VcInputChannel::publish(int v, int grantedPort) {
  const auto vi = static_cast<std::size_t>(v);
  VcPublish out;
  // Upstream flow control: on/off advertises registered buffer space;
  // credit mode advertises link-up (the sender counts credits).
  out.free = creditMode() || count_[vi] < params_.p;
  out.rok = count_[vi] > 0;
  if (!out.rok) return out;
  out.flit = front(v);
  if (!out.flit.bop) return out;

  // A granted header forwards the RIB consumed for the hop actually
  // connected — the patience rotation may have moved the bid between
  // allocation and readout.
  const Rib rib = decodeRib(out.flit.data, params_.m);
  Port target;
  if (grantedPort >= 0) {
    target = static_cast<Port>(grantedPort);
  } else {
    // Adaptive bids request the packet's whole adaptive VC set; under
    // QoS the header's class tag narrows it to the class's channels.
    int window = kVcPatienceWindow;
    unsigned adaptiveMask =
        ((1u << numVCs_) - 1u) & ~((1u << escapeVCs_) - 1u);
    if (params_.qosClasses) {
      const TrafficClass cls = decodeTrafficClass(out.flit.data, params_.m);
      adaptiveMask = qosVcMask(cls, numVCs_, escapeVCs_);
      window = qosPatienceWindow(cls);
    }
    std::array<VcRouteOption, kNumPorts> options;
    const int count = vcRouteOptions(geometry_, rib, v >= escapeVCs_,
                                     params_.routing, adaptiveMask, options);
    const int idx = std::min(patience_[vi] / window, count - 1);
    target = options[static_cast<std::size_t>(idx)].port;
    out.want = options[static_cast<std::size_t>(idx)].want;
  }
  out.flit.data = updateHeader(out.flit.data, consumeHop(rib, target),
                               params_.m) &
                  dataMask(params_.n);
  if (target == ownPort_) misroute_ = true;
  out.reqPort = index(target);
  return out;
}

void VcInputChannel::evaluate() {
  for (int v = 0; v < numVCs_; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    CrossbarWires& xb = (*xbar_)[vi];
    int grantedPort = -1;
    for (int o = 0; o < kNumPorts; ++o) {
      if (xb.gnt[static_cast<std::size_t>(o)].get()) grantedPort = o;
    }
    const VcPublish p = publish(v, grantedPort);
    in_->vcFree[vi].set(p.free);
    xb.rok.set(p.rok);
    // Credit mode pulses the per-VC credit return as the flit leaves.
    if (creditMode()) in_->vcAck[vi].set(p.rok && popFired(v));
    for (int o = 0; o < kNumPorts; ++o)
      xb.req[static_cast<std::size_t>(o)].set(o == p.reqPort);
    xb.want.set(static_cast<int>(p.want));
    xb.flit.data.set(p.flit.data);
    xb.flit.bop.set(p.flit.bop);
    xb.flit.eop.set(p.flit.eop);
  }
}

void VcInputChannel::clockEdge() { commitEdge(WireSample{this}); }

template <typename S>
void VcInputChannel::commitEdge(const S& s) {
  // numVCs_, known at compile time under ArenaSample so the loops unroll.
  const int vcs = s.vcs();

  // Accept: the sender only schedules a VC with advertised space (on/off)
  // or an available credit, so a full target FIFO means broken flow
  // control — recorded sticky, never overwritten silently.
  if (s.val()) {
    const int v = s.vc();
    if (v < 0 || v >= vcs || occupancy(v) >= params_.p) {
      overflow_ = true;
    } else {
      Flit f = s.flit();
      f.vc = v;
      push(v, f);
      ++flitsAccepted_;
      if (metricsAttached_ && metrics_.flitsAccepted)
        metrics_.flitsAccepted->inc();
    }
  }

  bool anyFull = false;
  bool anyStall = false;
  for (int v = 0; v < vcs; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    const unsigned gnt = s.gnt(v);
    const bool read = popFired(s, v, gnt);
    // A pop strobe can only refer to a flit that was at the head pre-edge,
    // so popping after the accept push is safe: the push appended to the
    // back, and an empty pre-edge FIFO never had rd granted.
    if (read && count_[vi] > 0) pop(v);

    const int depth = count_[vi];
    if (depth > 0 && front(v).bop && gnt == 0) {
      if (patience_[vi] < kVcPatienceCap) ++patience_[vi];
    } else {
      patience_[vi] = 0;
    }

    occupancySum_[vi] += static_cast<std::uint64_t>(depth);
    anyFull = anyFull || depth >= params_.p;
    anyStall = anyStall || (depth > 0 && !read);
    if (metricsAttached_ && metrics_.occupancy[vi])
      metrics_.occupancy[vi]->observe(static_cast<std::uint64_t>(depth));
  }
  if (metricsAttached_) {
    if (metrics_.fullCycles && anyFull) metrics_.fullCycles->inc();
    if (metrics_.stallCycles && anyStall) metrics_.stallCycles->inc();
  }
}

// --- compiled-kernel lowering ----------------------------------------------
//
// Every combinational output of the channel is a function of registered
// state plus the crossbar grant/read lines, and the output channels drive
// the grant lines from their registered connection tables alone
// (VcOutputChannel's grant op reads no wire).  Splitting the channel at
// that register boundary, per VC, is what lets a VC network levelize:
//
//   publish[v] - vcFree[v], rok, req, want and the forwarded flit, from
//                VC v's ring and patience counter plus its own gnt lines.
//   credit[v]  - (credit flow control) vcAck[v] = head leaves this edge,
//                from gnt & rd.  Kept out of publish: rd comes from the
//                output channels' schedule ops, which read this VC's rok,
//                so a fused unit would close a cycle inside the router.
//   edge       - commitEdge() over ArenaSample<numVCs>: the link and the
//                crossbar lines read from the settled arena, the metrics
//                hooks behind the same metricsAttached_ test as
//                clockEdge(), so one edge path serves both.  The context
//                is sized for the channel's numVCs, not kMaxVCs.

struct VcInputChannel::PublishCtx {
  VcInputChannel* ch = nullptr;
  int v = 0;
  sim::Slice gnt[kNumPorts];
  sim::Slice free, rok, want;
  std::uint32_t flitWord = 0;
  sim::Slice req[kNumPorts];
};

namespace {

struct VcCreditCtx {
  const int* count = nullptr;  // the VC's registered occupancy
  sim::Slice gnt[kNumPorts], rd[kNumPorts];
  sim::Slice ack;
};

void vcCreditReturn(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<VcCreditCtx*>(vctx);
  bool read = false;
  for (int o = 0; o < kNumPorts; ++o)
    read = read || (sim::opBit(w, c->gnt[o]) && sim::opBit(w, c->rd[o]));
  sim::opPutBit(w, c->ack, read && *c->count > 0);
}

}  // namespace

void VcInputChannel::publishOp(std::uint64_t* w, void* vctx) {
  auto* c = static_cast<PublishCtx*>(vctx);
  int grantedPort = -1;
  for (int o = 0; o < kNumPorts; ++o)
    if (sim::opBit(w, c->gnt[o])) grantedPort = o;
  const VcPublish p = c->ch->publish(c->v, grantedPort);
  sim::opPutBit(w, c->free, p.free);
  sim::opPutBit(w, c->rok, p.rok);
  for (int o = 0; o < kNumPorts; ++o)
    sim::opPutBit(w, c->req[o], o == p.reqPort);
  sim::opPutWord32(w, c->want, p.want);
  sim::opPutFlit(w, c->flitWord, p.flit.data, p.flit.bop, p.flit.eop);
}

template <int N>
struct VcInputChannel::EdgeCtx {
  VcInputChannel* ch = nullptr;
  sim::Slice val, vc;
  std::uint32_t flitWord = 0;
  sim::Slice gnt[N][kNumPorts], rd[N][kNumPorts];
};

// Samples the same nets as WireSample from the settled arena.
template <int N>
struct VcInputChannel::ArenaSample {
  const std::uint64_t* w;
  const EdgeCtx<N>* c;

  static constexpr int vcs() { return N; }

  bool val() const { return sim::opBit(w, c->val); }
  int vc() const { return static_cast<int>(sim::opWord32(w, c->vc)); }
  Flit flit() const {
    Flit f;
    f.data = sim::opFlitData(w, c->flitWord);
    f.bop = sim::opFlitBop(w, c->flitWord);
    f.eop = sim::opFlitEop(w, c->flitWord);
    return f;
  }
  unsigned gnt(int v) const {
    unsigned mask = 0;
    for (int o = 0; o < kNumPorts; ++o)
      mask |= static_cast<unsigned>(sim::opBit(w, c->gnt[v][o])) << o;
    return mask;
  }
  bool rd(int v, int o) const { return sim::opBit(w, c->rd[v][o]); }
};

template <int N>
void VcInputChannel::edgeOp(std::uint64_t* w, void* vctx) {
  const auto* c = static_cast<const EdgeCtx<N>*>(vctx);
  c->ch->commitEdge(ArenaSample<N>{w, c});
}

template <int N>
void VcInputChannel::describeEdge(sim::Lowering& lw) {
  EdgeCtx<N> edge;
  edge.ch = this;
  edge.val = lw.bit(in_->val);
  edge.vc = lw.word32(in_->vc);
  edge.flitWord = lw.flitWord(in_->flit.data, in_->flit.bop, in_->flit.eop);
  for (int v = 0; v < N; ++v) {
    const CrossbarWires& xb = (*xbar_)[static_cast<std::size_t>(v)];
    for (int o = 0; o < kNumPorts; ++o) {
      edge.gnt[v][o] = lw.bit(xb.gnt[static_cast<std::size_t>(o)]);
      edge.rd[v][o] = lw.bit(xb.rd[static_cast<std::size_t>(o)]);
    }
  }
  lw.edgeOp(&edgeOp<N>, lw.ctx(edge));
}

bool VcInputChannel::describe(sim::Lowering& lw) {
  for (int v = 0; v < numVCs_; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    CrossbarWires& xb = (*xbar_)[vi];
    std::vector<const sim::WireBase*> gnt;
    for (int o = 0; o < kNumPorts; ++o)
      gnt.push_back(&xb.gnt[static_cast<std::size_t>(o)]);

    PublishCtx pub;
    pub.ch = this;
    pub.v = v;
    for (int o = 0; o < kNumPorts; ++o) {
      pub.gnt[o] = lw.bit(xb.gnt[static_cast<std::size_t>(o)]);
      pub.req[o] = lw.bit(xb.req[static_cast<std::size_t>(o)]);
    }
    pub.free = lw.bit(in_->vcFree[vi]);
    pub.rok = lw.bit(xb.rok);
    pub.want = lw.word32(xb.want);
    pub.flitWord = lw.flitWord(xb.flit.data, xb.flit.bop, xb.flit.eop);
    std::vector<const sim::WireBase*> writes = {
        &in_->vcFree[vi], &xb.rok,      &xb.want,
        &xb.flit.data,    &xb.flit.bop, &xb.flit.eop};
    for (int o = 0; o < kNumPorts; ++o)
      writes.push_back(&xb.req[static_cast<std::size_t>(o)]);
    lw.op(&publishOp, lw.ctx(pub), gnt, std::move(writes));

    if (!creditMode()) continue;
    VcCreditCtx credit;
    credit.count = &count_[vi];
    std::vector<const sim::WireBase*> reads = gnt;
    for (int o = 0; o < kNumPorts; ++o) {
      credit.gnt[o] = pub.gnt[o];
      credit.rd[o] = lw.bit(xb.rd[static_cast<std::size_t>(o)]);
      reads.push_back(&xb.rd[static_cast<std::size_t>(o)]);
    }
    credit.ack = lw.bit(in_->vcAck[vi]);
    lw.op(&vcCreditReturn, lw.ctx(credit), std::move(reads),
          {&in_->vcAck[vi]});
  }
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
