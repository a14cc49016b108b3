/// \file
/// Fault-injecting link: a Link that corrupts, stalls, or drops flits
/// according to a baseline flip probability and an optional schedule of
/// fault windows.  Used to exercise the paper's HLP extension ("the n data
/// bits can be extended to include Higher Level Protocol (HLP) signals,
/// like the ones typically used for data integrity control (parity and
/// error)") and the end-to-end reliability protocol layered above it.
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
/// the plain link's copy ops, fault-aware, plus one edge op over the same
/// commitEdge() body clockEdge() runs (DESIGN.md §11.2).  Stall
/// and drop windows require handshake flow control: under credit-based
/// flow control the ack wire carries credit returns, and masking or
/// forcing it would corrupt the credit accounting rather than model a
/// link fault.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/rng.hpp"
#include "telemetry/metrics.hpp"

#include "router/link.hpp"

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
struct FaultyLinkMetrics {
  telemetry::Counter* flitsCorrupted = nullptr;
  telemetry::Counter* flitsDropped = nullptr;
  telemetry::Counter* stallCycles = nullptr;
};

class FaultyLink : public Link {
 public:
  /// `flipProbability` is the baseline per-flit corruption probability that
  /// applies outside any window; Corrupt windows raise it to
  /// max(flipProbability, window.rate) while active.
  FaultyLink(std::string name, ChannelWires& src, ChannelWires& dst,
             int dataBits, double flipProbability, std::uint64_t seed,
             FlowControl flowControl = FlowControl::Handshake, int numVCs = 1);

  /// Replaces the fault schedule.  Call before the first cycle.  Stall and
  /// drop windows throw under credit-based flow control at numVCs == 1 (see
  /// file comment); with VCs the per-VC vcFree levels are masked instead of
  /// the ack wire, so every window kind is legal under either flow control.
  /// A VC window never consumes flits: the masked vcFree stops the sender
  /// from scheduling, so both window kinds degrade to a full stall, and the
  /// vcAck credit pulses pass through even while the link is down (masking
  /// a pulse would permanently leak a credit and wedge the VC).
  void setWindows(std::vector<FaultWindow> windows);

  /// Attaches optional telemetry counters, incremented at each clock edge.
  void attachMetrics(const FaultyLinkMetrics& metrics) { metrics_ = metrics; }

  /// Payload flits whose data word was bit-flipped.
  std::uint64_t flitsCorrupted() const { return flitsCorrupted_; }
  /// Body flits silently consumed by LinkDown windows.
  std::uint64_t flitsDropped() const { return flitsDropped_; }
  /// Cycles in which an offered flit was blocked by a StuckAck or LinkDown
  /// window.
  std::uint64_t stallCycles() const { return stallCycles_; }

  /// Compiled-kernel lowering: the plain link's forward and reverse copy
  /// ops in their fault-aware form, reading the registered fault state
  /// (window masking, armed mask), plus one edge op over commitEdge(), so
  /// the RNG draws and every counter match the behavioural kernels.
  bool describe(sim::Lowering& lw) override;

 protected:
  void onReset() override;
  void evaluate() override;
  void clockEdge() override;
  std::uint32_t transformData(std::uint32_t data, bool bop,
                              bool eop) override;

 private:
  // The clock edge — transfer counting, corruption/drop/stall accounting,
  // the next flit's flip draw and the window update — as one body for
  // every kernel.  `S` samples the settled pre-edge upstream nets:
  // WireSample through Wire::get() (clockEdge()), ArenaSample from the
  // compiled edge op's slices.  Both provide val(), ack(), bop() and eop().
  template <typename S>
  void commitEdge(const S& s);
  struct WireSample;
  struct EdgeCtx;
  struct ArenaSample;
  static void edgeOp(std::uint64_t* words, void* ctx);

  void arm();
  void recomputeActive();

  int dataBits_;
  double flipProbability_;
  std::uint64_t seed_;
  sim::Xoshiro256 rng_;
  std::vector<FaultWindow> windows_;

  // Registered state: recomputed at reset and at every clock edge so the
  // combinational evaluate() (and the lowered ops) see a stable view
  // within each settle.
  std::uint64_t cycle_ = 0;
  LinkFaultState fault_;       // window flags and the armed flip mask
  double corruptRate_ = 0.0;   // effective flip probability this cycle

  std::uint64_t flitsCorrupted_ = 0;
  std::uint64_t flitsDropped_ = 0;
  std::uint64_t stallCycles_ = 0;
  FaultyLinkMetrics metrics_;
};

}  // namespace rasoc::router
