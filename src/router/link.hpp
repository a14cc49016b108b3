/// \file
/// Point-to-point link between two routers (or a router and a network
/// interface): forwards the data/framing/val wires downstream and the
/// ack/credit wire upstream, and counts transferred flits for utilization
/// statistics.
///
/// A link may carry a fault model (Link::enableFaults) that corrupts,
/// stalls or drops flits according to a baseline flip probability and an
/// optional schedule of fault windows.  It exercises the paper's HLP
/// extension ("the n data bits can be extended to include Higher Level
/// Protocol (HLP) signals, like the ones typically used for data integrity
/// control (parity and error)") and the end-to-end reliability protocol
/// layered above it.
///
/// Fault kinds:
///  - Corrupt: flips one random payload data bit per transferred flit with
///    a configurable probability.  Headers (`bop`) pass clean: a corrupted
///    header would change the packet's route, which is a different
///    (routing-level) failure mode than the link noise HLP parity and the
///    NI checksum address.
///  - StuckAck: the link stops completing handshakes for the window — `val`
///    is masked downstream and `ack` upstream, so both endpoints simply
///    wait.  Models a wedged downstream router.
///  - LinkDown: body flits (neither `bop` nor `eop`) are silently consumed
///    (acked upstream but never presented downstream) for the window;
///    framing flits stall as in StuckAck.  Framing is preserved on purpose:
///    dropping a `bop`/`eop` would wedge the wormhole state machines of
///    every router downstream, a failure no end-to-end retransmission
///    protocol could recover from.
///
/// The flip decision for the next flit is drawn at the clock edge so the
/// combinational evaluate() stays idempotent, and window activity is
/// recomputed from a registered cycle counter for the same reason.  That
/// registered LinkFaultState is all the compiled kernel's lowering needs:
/// the copy ops in their fault-aware form, plus the edge op over the same
/// commitEdge() body clockEdge() runs (DESIGN.md §11.2).  Stall and drop
/// windows require handshake flow control at numVCs == 1: under
/// credit-based flow control the ack wire carries credit returns, and
/// masking or forcing it would corrupt the credit accounting rather than
/// model a link fault.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/module.hpp"
#include "sim/rng.hpp"
#include "telemetry/metrics.hpp"

#include "router/channel.hpp"
#include "router/params.hpp"

namespace rasoc::router {

/// One scheduled fault on a link: active on cycles
/// [start, start + duration).  `rate` is the per-flit corruption
/// probability and only meaningful for Kind::Corrupt.
struct FaultWindow {
  enum class Kind { Corrupt, StuckAck, LinkDown };

  Kind kind = Kind::Corrupt;
  std::uint64_t start = 0;
  std::uint64_t duration = 0;
  double rate = 1.0;
};

/// Per-link fault telemetry counters (optional; null pointers are skipped).
struct LinkFaultMetrics {
  telemetry::Counter* flitsCorrupted = nullptr;
  telemetry::Counter* flitsDropped = nullptr;
  telemetry::Counter* stallCycles = nullptr;
};

/// The registered fault state a link applies on top of the plain copies.
/// It changes only at clock edges, so the lowered copy ops read it through
/// a pointer.  The default state is an ideal link: every helper below is
/// then the identity.  evaluate() and the fault-aware copy ops both mask
/// through these helpers.
struct LinkFaultState {
  std::uint32_t armedMask = 0;  ///< XORed into the next payload flit
  bool stall = false;           ///< a StuckAck window is active
  bool down = false;            ///< a LinkDown window is active

  /// An active window presents nothing downstream and masks the upstream
  /// ack (single VC) or every vcFree level (VCs).
  bool masked() const { return stall || down; }
  /// The mask XORed into a passing flit's data bits: headers pass clean.
  std::uint32_t flip(bool bop) const { return bop ? 0 : armedMask; }
  /// The single-VC upstream ack: a StuckAck window holds it low; a
  /// LinkDown window acks (consumes) an offered body flit and holds
  /// framing flits.
  bool ack(bool dstAck, bool val, bool bop, bool eop) const {
    if (!masked()) return dstAck;
    return !stall && !bop && !eop && val;
  }
};

/// Combinational point-to-point channel segment.
///
/// A Link is pass-through wiring plus bookkeeping: it copies the sender's
/// flit/val wires downstream and the receiver's ack wire upstream every
/// settle, and counts transferred flits at the clock edge (a transfer is
/// `val && ack` under handshake flow control, `val` under credit-based
/// flow control where `ack` carries returning credits instead).
class Link final : public sim::Module {
 public:
  /// `src` is an output channel bundle (val driven by the sender, ack read
  /// by it); `dst` is an input channel bundle (val read by the receiver, ack
  /// driven by it).  With `numVCs` > 1 the link additionally forwards the
  /// flit's vc tag downstream and the per-VC vcFree levels and vcAck credit
  /// pulses upstream; the ack wire is unused (transfers are unconditional
  /// once scheduled — see router/channel.hpp).
  Link(std::string name, ChannelWires& src, ChannelWires& dst,
       FlowControl flowControl = FlowControl::Handshake, int numVCs = 1);

  /// Gives the link a fault model (file comment): `flipProbability` is the
  /// baseline per-flit corruption probability over `dataBits` (1..32)
  /// payload bits, and Corrupt windows raise it to max(flipProbability,
  /// window.rate) while active.  Throws std::invalid_argument on a bad
  /// width or probability, and on stall/drop windows under credit flow
  /// control at numVCs == 1.  With VCs the per-VC vcFree levels are masked
  /// instead of the ack wire, so every window kind is legal under either
  /// flow control; a VC window never consumes flits (the masked vcFree
  /// stops the sender from scheduling, so both window kinds degrade to a
  /// full stall), and the vcAck credit pulses pass through even while the
  /// link is down (masking a pulse would leak a credit and wedge the VC).
  /// Call before the link joins a simulator; the model starts as if reset.
  void enableFaults(int dataBits, double flipProbability, std::uint64_t seed,
                    std::vector<FaultWindow> windows = {});

  /// Attaches telemetry counters to the fault model, incremented at each
  /// clock edge.  Throws std::logic_error on a link without one.
  void attachFaultMetrics(const LinkFaultMetrics& metrics);

  /// Total flits that crossed the link since the last reset.
  std::uint64_t flitsTransferred() const { return flitsTransferred_; }

  /// Payload flits whose data word was bit-flipped (0 on an ideal link).
  std::uint64_t flitsCorrupted() const {
    return fault_ ? fault_->flitsCorrupted : 0;
  }
  /// Body flits silently consumed by LinkDown windows.
  std::uint64_t flitsDropped() const {
    return fault_ ? fault_->flitsDropped : 0;
  }
  /// Cycles in which an offered flit was blocked by a StuckAck or LinkDown
  /// window.
  std::uint64_t stallCycles() const {
    return fault_ ? fault_->stallCycles : 0;
  }

  /// Cycles in which the link carried a flit / total cycles observed.
  double utilization(std::uint64_t cycles) const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(flitsTransferred_) /
                             static_cast<double>(cycles);
  }

  /// True when the sender is offering a flit that the receiver is not
  /// accepting this cycle.  Only meaningful under handshake flow control
  /// (credit-based links signal backpressure at the sender, not on the
  /// wire), so it reports false there.  Read after settle — e.g. from a
  /// watchdog diagnostics callback — to name wedged links.
  bool blocked() const {
    return handshake() && src_->val.get() && !src_->ack.get();
  }

  /// Compiled-kernel lowering: masked word copies — flit + val (+ vc)
  /// downstream; ack, or with VCs the vcFree levels and (credit mode) the
  /// vcAck pulses as two separate copies, upstream — and one edge op over
  /// commitEdge().  With a fault model the copies take their fault-aware
  /// form, reading the registered LinkFaultState.
  bool describe(sim::Lowering& lw) override;

 protected:
  void onReset() override;
  void evaluate() override;
  void clockEdge() override;

 private:
  // The fault model: windows, RNG, the registered LinkFaultState, counters
  // and metrics.
  struct FaultModel {
    FaultModel(int dataBits, double flipProbability, std::uint64_t seed,
               std::vector<FaultWindow> windows, bool single);

    void reset();
    void arm();
    void recomputeActive();
    // The fault half of Link::commitEdge(): corruption/drop/stall
    // accounting, the next flit's flip draw and the window update.
    void commitEdge(bool val, bool transferred, bool bop, bool eop);

    // Registered state: recomputed at reset and at every clock edge so the
    // combinational evaluate() (and the lowered ops) see a stable view
    // within each settle.
    LinkFaultState state;      // window flags and the armed flip mask
    double corruptRate = 0.0;  // effective flip probability this cycle
    std::uint64_t cycle = 0;

    std::uint64_t flitsCorrupted = 0;
    std::uint64_t flitsDropped = 0;
    std::uint64_t stallCycles = 0;
    LinkFaultMetrics metrics;

    const int dataBits;
    const double flipProbability;
    const std::uint64_t seed;
    const bool single;  // numVCs == 1
    const std::vector<FaultWindow> windows;
    sim::Xoshiro256 rng;
  };
  struct WireSample;
  struct EdgeCtx;
  struct FaultyEdgeCtx;
  template <bool kFaulty>
  struct ArenaSample;
  template <bool kFaulty>
  static void edgeOp(std::uint64_t* words, void* ctx);

  // A transfer is val && ack; otherwise (credit flow control, or VCs,
  // whose scheduled flits always transfer) val alone.
  bool handshake() const {
    return flowControl_ == FlowControl::Handshake && numVCs_ == 1;
  }

  // The clock edge — the transfer count and, with a fault model, its
  // corruption/drop/stall accounting, the next flit's flip draw and the
  // window update — as one body for every kernel.  `S` samples the settled
  // pre-edge upstream nets (val(), ack(), bop(), eop()) and carries the
  // link's edge state (handshake(), flits(), model()): WireSample through
  // the link (clockEdge()), ArenaSample from the compiled edge op's
  // context.  An ideal link's ArenaSample sets kMayFault false, so its
  // edge has no fault-model test at all.
  template <typename S>
  static void commitEdge(const S& s);

  ChannelWires* src_;
  ChannelWires* dst_;
  FlowControl flowControl_;
  int numVCs_ = 1;
  // Side by side: a faulted link's edge updates both every cycle.
  std::uint64_t flitsTransferred_ = 0;
  std::optional<FaultModel> fault_;  // empty on ideal links
};

}  // namespace rasoc::router
