#include "spans.hpp"

#include <chrono>
#include <stdexcept>

#include "telemetry/trace_event.hpp"

namespace perfbench {

std::string_view spanName(SpanName name) {
  switch (name) {
    case SpanName::Rep: return "rep";
    case SpanName::Setup: return "setup";
    case SpanName::Construct: return "noc.construct";
    case SpanName::Attach: return "noc.attach";
    case SpanName::Compile: return "sim.compile";
    case SpanName::Warmup: return "warmup";
    case SpanName::Window: return "window";
    case SpanName::Chunk: return "chunk";
    case SpanName::Settle: return "sim.settle";
    case SpanName::Tick: return "sim.tick";
    case SpanName::Edge: return "sim.edge";
    case SpanName::Listeners: return "sim.listeners";
    case SpanName::Drain: return "noc.drain";
    case SpanName::LedgerQuery: return "noc.ledger_query";
    case SpanName::FlowTraceExport: return "flow_trace.export";
    case SpanName::TelemetryReport: return "telemetry.report";
  }
  return "?";
}

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t SpanTrace::open(SpanName name) {
  const auto id = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back({name, current(), nowNs(), 0});
  stack_.push_back(id);
  return id;
}

void SpanTrace::close(std::uint32_t id) {
  if (stack_.empty() || stack_.back() != id)
    throw std::logic_error("SpanTrace: spans must close innermost first");
  spans_[id].endNs = nowNs();
  stack_.pop_back();
}

std::uint32_t SpanTrace::add(SpanName name, std::uint32_t parent,
                             std::int64_t startNs, std::int64_t endNs) {
  const auto id = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back({name, parent, startNs, endNs});
  return id;
}

std::vector<std::int64_t> selfTimes(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].endNs - spans[i].startNs;
  for (const Span& s : spans)
    if (s.parent != kNoParent) self[s.parent] -= s.endNs - s.startNs;
  return self;
}

std::int64_t selfTimeUnder(const std::vector<Span>& spans,
                           const std::vector<std::int64_t>& self,
                           std::size_t first, std::size_t last,
                           SpanName name, SpanName under) {
  // Parents precede children, so one forward pass settles every span's
  // "has an ancestor named `under`" flag from its parent's.
  std::vector<char> inside(spans.size(), 0);
  std::int64_t total = 0;
  for (std::size_t i = first; i < last && i < spans.size(); ++i) {
    const std::uint32_t p = spans[i].parent;
    if (p != kNoParent && p >= first)
      inside[i] = spans[p].name == under || inside[p];
    if (inside[i] && spans[i].name == name) total += self[i];
  }
  return total;
}

std::string perfettoJson(const std::vector<Span>& spans, std::size_t first,
                         std::size_t last, std::int64_t originNs) {
  rasoc::telemetry::PerfettoWriter writer;
  writer.processName(1, "perfbench");
  writer.threadName(1, 1, "main");
  // Flooring both ends keeps every child inside its parent.
  const auto us = [originNs](std::int64_t ns) {
    return static_cast<std::uint64_t>((ns - originNs) / 1000);
  };
  for (std::size_t i = first; i < last && i < spans.size(); ++i) {
    const Span& s = spans[i];
    writer.complete(1, 1, us(s.startNs), us(s.endNs) - us(s.startNs),
                    std::string(spanName(s.name)));
  }
  return writer.toJson();
}

}  // namespace perfbench
