// Bench span trace: host-time spans the benchmark records around its own
// calls into each simulator layer.  Spans live in memory (name, start, end,
// parent) and are written once, at exit, as Chrome/Perfetto JSON.  Nothing
// inside the simulator is instrumented; a span's self time is its duration
// minus the time its child spans cover.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint32_t {
  Rep,              // one whole workload repetition
  Setup,            // constructor through the first settle
  Construct,        // noc::Network constructor
  Attach,           // attachTraffic / enableTelemetry / enableTracing
  Compile,          // first Simulator::settle() (builds the program)
  Warmup,           // cycles before the measured window
  Window,           // the measured window
  Chunk,            // a fixed-size run of window cycles
  Settle,           // Simulator::settle()
  Tick,             // Simulator::tick()
  Edge,             // tick() entry to the bench's own tick listener
  Listeners,        // the bench listener to tick() return
  Drain,            // Network::drain()
  LedgerQuery,      // ledger percentile / count reads
  FlowTraceExport,  // FlowTracer::perfettoJson()
  TelemetryReport,  // buildRunReport(...).toJson()
};

std::string_view spanName(SpanName name);

struct Span {
  SpanName name;
  std::uint32_t parent;  // index into the trace; kNoParent for roots
  std::int64_t startNs;
  std::int64_t endNs;
};

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

// steady_clock in nanoseconds.
std::int64_t nowNs();

class SpanTrace {
 public:
  // Opens a span now, as a child of the innermost open span.
  std::uint32_t open(SpanName name);
  // Closes the innermost open span (which must be `id`) now.
  void close(std::uint32_t id);
  // Records an already-timed span under `parent`.  Children are added
  // after their parent, so a parent's index is always below its children's.
  std::uint32_t add(SpanName name, std::uint32_t parent, std::int64_t startNs,
                    std::int64_t endNs);
  // The innermost open span, or kNoParent.
  std::uint32_t current() const {
    return stack_.empty() ? kNoParent : stack_.back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

// Opens a span for the lifetime of the guard; a null trace records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanTrace* trace, SpanName name)
      : trace_(trace), id_(trace ? trace->open(name) : kNoParent) {}
  ~ScopedSpan() {
    if (trace_) trace_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTrace* trace_;
  std::uint32_t id_;
};

// Duration minus the summed durations of direct children, per span.
std::vector<std::int64_t> selfTimes(const std::vector<Span>& spans);

// Total self time of spans named `name` that have an ancestor named
// `under`, over spans[first, last) (a range whose roots have no parent
// inside it, such as one repetition).
std::int64_t selfTimeUnder(const std::vector<Span>& spans,
                           const std::vector<std::int64_t>& self,
                           std::size_t first, std::size_t last,
                           SpanName name, SpanName under);

// Chrome/Perfetto trace_events JSON of spans[first, last), timestamps in
// microseconds from `originNs`.
std::string perfettoJson(const std::vector<Span>& spans, std::size_t first,
                         std::size_t last, std::int64_t originNs);

}  // namespace perfbench
