// ORS - Output Rok Switch (paper Figure 6, entity name per Table 3).
//
// A 4:1, 1-bit multiplexer connecting the selected input channel's x_rok
// ("a flit is ready at the buffer head") toward the output flow controller,
// which turns it into out_val.
#pragma once

#include <array>
#include <cstdint>

#include "sim/module.hpp"
#include "sim/wire.hpp"

#include "router/channel.hpp"
#include "router/params.hpp"

namespace rasoc::router {

class Ors : public sim::Module {
 public:
  Ors(std::string name, const std::array<CrossbarWires, kNumPorts>& xbar,
      const sim::Wire<bool>& connected, const sim::Wire<int>& sel,
      sim::Wire<bool>& rokSel)
      : Module(std::move(name)),
        xbar_(&xbar),
        connected_(&connected),
        sel_(&sel),
        rokSel_(&rokSel) {
    sensitive(connected);
    sensitive(sel);
    for (const CrossbarWires& in : xbar) sensitive(in.rok);
  }

 protected:
  void evaluate() override {
    const bool rok =
        connected_->get() &&
        (*xbar_)[static_cast<std::size_t>(sel_->get())].rok.get();
    rokSel_->set(rok);
  }

 private:
  const std::array<CrossbarWires, kNumPorts>* xbar_;
  const sim::Wire<bool>* connected_;
  const sim::Wire<int>* sel_;
  sim::Wire<bool>* rokSel_;
};

// --- VC-aware round-robin arbitration (numVCs > 1) -------------------------
//
// Allocates one idle downstream VC among the (input port, input VC)
// requesters bidding for this output.  `candidates` has bit
// inPort * kMaxVCs + inVc set for every requester that may take the VC: it
// requests this output, bit `downVc` of its `want` mask is set (a one-bit
// mask for escape traffic requesting its dateline class, the adaptive set —
// or the class's qosVcMask() subset under RouterParams::qosClasses — for
// adaptive headers), and it neither holds a connection nor was granted
// earlier the same edge, so one input VC never acquires two downstream VCs.
// The pick is round-robin over the flattened (port, VC) slot space starting
// at `rrStart`.  Returns the chosen slot or -1.
int vcArbitrate(std::uint32_t candidates, int rrStart);

}  // namespace rasoc::router
