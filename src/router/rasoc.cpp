#include "router/rasoc.hpp"

#include <stdexcept>
#include <string>

#include "sim/compile.hpp"

namespace rasoc::router {

Rasoc::Rasoc(std::string name, RouterParams params, ArbiterKind arbiter,
             VcGeometry geometry)
    : Module(std::move(name)), params_(params), geometry_(geometry) {
  params_.validate();
  if (vcMode())
    vcXbar_ = std::make_unique<
        std::array<std::array<CrossbarWires, kMaxVCs>, kNumPorts>>();
  for (Port p : kAllPorts) {
    if (!params_.hasPort(p)) continue;
    const auto i = static_cast<std::size_t>(index(p));
    const std::string stem = this->name() + "." + std::string(router::name(p));
    if (vcMode()) {
      vcInputs_[i] = std::make_unique<VcInputChannel>(
          stem + "in", params_, p, geometry_, inWires_[i], (*vcXbar_)[i]);
      vcOutputs_[i] = std::make_unique<VcOutputChannel>(
          stem + "out", params_, p, geometry_, *vcXbar_, outWires_[i]);
      addChild(*vcInputs_[i]);
      addChild(*vcOutputs_[i]);
    } else {
      inputs_[i] = std::make_unique<InputChannel>(
          stem + "in", params_, p, params_.flowControl, inWires_[i], xbar_[i]);
      outputs_[i] = std::make_unique<OutputChannel>(
          stem + "out", params_, p, xbar_, outWires_[i], arbiter);
      addChild(*inputs_[i]);
      addChild(*outputs_[i]);
    }
  }
}

void Rasoc::requirePort(Port p) const {
  if (!params_.hasPort(p))
    throw std::out_of_range("port " + std::string(router::name(p)) +
                            " is not instantiated on router " + name());
}

ChannelWires& Rasoc::in(Port p) {
  requirePort(p);
  return inWires_[static_cast<std::size_t>(index(p))];
}

ChannelWires& Rasoc::out(Port p) {
  requirePort(p);
  return outWires_[static_cast<std::size_t>(index(p))];
}

const ChannelWires& Rasoc::in(Port p) const {
  requirePort(p);
  return inWires_[static_cast<std::size_t>(index(p))];
}

const ChannelWires& Rasoc::out(Port p) const {
  requirePort(p);
  return outWires_[static_cast<std::size_t>(index(p))];
}

const InputChannel& Rasoc::inputChannel(Port p) const {
  requirePort(p);
  if (vcMode())
    throw std::logic_error("inputChannel(): router " + name() +
                           " runs numVCs > 1; use vcInputChannel()");
  return *inputs_[static_cast<std::size_t>(index(p))];
}

const OutputChannel& Rasoc::outputChannel(Port p) const {
  requirePort(p);
  if (vcMode())
    throw std::logic_error("outputChannel(): router " + name() +
                           " runs numVCs > 1; use vcOutputChannel()");
  return *outputs_[static_cast<std::size_t>(index(p))];
}

const VcInputChannel& Rasoc::vcInputChannel(Port p) const {
  requirePort(p);
  if (!vcMode())
    throw std::logic_error("vcInputChannel(): router " + name() +
                           " runs numVCs == 1; use inputChannel()");
  return *vcInputs_[static_cast<std::size_t>(index(p))];
}

const VcOutputChannel& Rasoc::vcOutputChannel(Port p) const {
  requirePort(p);
  if (!vcMode())
    throw std::logic_error("vcOutputChannel(): router " + name() +
                           " runs numVCs == 1; use outputChannel()");
  return *vcOutputs_[static_cast<std::size_t>(index(p))];
}

void Rasoc::attachMetrics(telemetry::MetricsRegistry& registry,
                          const std::string& prefix) {
  telemetry::Counter& routerFlits = registry.counter(prefix + ".flits_routed");
  for (Port p : kAllPorts) {
    if (!params_.hasPort(p)) continue;
    const auto i = static_cast<std::size_t>(index(p));
    const std::string in = prefix + "." + std::string(router::name(p)) + "in.";
    const std::string out =
        prefix + "." + std::string(router::name(p)) + "out.";
    if (vcMode()) {
      VcInputChannelMetrics im;
      im.flitsAccepted = &registry.counter(in + "flits");
      im.fullCycles = &registry.counter(in + "full_cycles");
      im.stallCycles = &registry.counter(in + "stall_cycles");
      for (int v = 0; v < params_.numVCs; ++v)
        im.occupancy[static_cast<std::size_t>(v)] = &registry.histogram(
            in + "vc" + std::to_string(v) + ".occupancy");
      vcInputs_[i]->attachMetrics(im);

      VcOutputChannelMetrics om;
      om.flitsSent = &registry.counter(out + "flits");
      om.busyCycles = &registry.counter(out + "busy_cycles");
      om.grants = &registry.counter(out + "grants");
      om.conflictCycles = &registry.counter(out + "conflict_cycles");
      om.routerFlits = &routerFlits;
      for (int v = 0; v < params_.numVCs; ++v)
        om.vcFlits[static_cast<std::size_t>(v)] =
            &registry.counter(out + "vc" + std::to_string(v) + ".flits");
      vcOutputs_[i]->attachMetrics(om);
      continue;
    }
    InputChannelMetrics im;
    im.flitsAccepted = &registry.counter(in + "flits");
    im.fullCycles = &registry.counter(in + "full_cycles");
    im.stallCycles = &registry.counter(in + "stall_cycles");
    im.occupancy = &registry.histogram(in + "occupancy");
    inputs_[i]->attachMetrics(im);

    OutputChannelMetrics om;
    om.flitsSent = &registry.counter(out + "flits");
    om.busyCycles = &registry.counter(out + "busy_cycles");
    om.grants = &registry.counter(out + "grants");
    om.conflictCycles = &registry.counter(out + "conflict_cycles");
    om.routerFlits = &routerFlits;
    outputs_[i]->attachMetrics(om);
  }
}

bool Rasoc::misrouteDetected() const {
  for (const auto& in : inputs_)
    if (in && in->controller().misrouteDetected()) return true;
  for (const auto& in : vcInputs_)
    if (in && in->misrouteDetected()) return true;
  return false;
}

bool Rasoc::overflowDetected() const {
  for (const auto& in : inputs_)
    if (in && in->buffer().overflowDetected()) return true;
  for (const auto& in : vcInputs_)
    if (in && in->overflowDetected()) return true;
  return false;
}

bool Rasoc::describe(sim::Lowering& lw) {
  lw.descendChildren();
  return true;
}

}  // namespace rasoc::router
