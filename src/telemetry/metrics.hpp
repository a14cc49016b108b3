// Run-time metrics primitives: counters, sampled gauges and integer
// histograms, collected in a name-keyed registry.
//
// Design constraints (the measurement layer must never distort what it
// measures):
//  * recording is a pointer-chase plus an integer add - cheap enough to
//    leave compiled into the router blocks;
//  * instrumentation is opt-in per run: modules hold null metric pointers
//    until a registry is attached, so un-instrumented runs pay only one
//    branch per cycle;
//  * iteration order is the lexicographic name order (std::map), so every
//    serialization of the same run is byte-identical - reports are
//    machine-diffable across runs and commits.
//
// Naming convention used by the NoC layer: `r<x>,<y>.<port><dir>.<metric>`
// for per-channel series (e.g. "r1,2.Ein.full_cycles") and
// `r<x>,<y>.<metric>` / `ni<x>,<y>.<metric>` / `mesh.<metric>` for
// aggregates.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rasoc::telemetry {

// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

// Sampled instantaneous value; keeps last/min/max/sum so a per-cycle
// sampler costs O(1) memory regardless of run length.
class Gauge {
 public:
  void sample(double v) {
    last_ = v;
    if (count_ == 0 || v < min_) min_ = v;
    if (count_ == 0 || v > max_) max_ = v;
    sum_ += v;
    ++count_;
  }

  std::uint64_t samples() const { return count_; }
  double last() const { return last_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }

 private:
  double last_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
  std::uint64_t count_ = 0;
};

// Integer histogram: one unit-width bucket per value below kExactLimit
// (`bucketCounts()[v]` counts the samples equal to v), grown to the largest
// such value seen, plus a log-linear tail for larger values and exact
// count, sum, min and max.  Every series the simulator records is a whole
// number - latencies in cycles, hop counts, occupancies in flits - so below
// the limit the mean, min, max and nearest-rank percentiles are exact and
// memory is bounded by the largest value rather than by the number of
// samples.  The tail bounds memory for any value: one wrapped or garbage
// sample costs a bucket, not a resize to its value.
class Histogram {
 public:
  static constexpr std::uint64_t kExactLimit = std::uint64_t{1} << 16;
  // Tail resolution: 2^kTailSubBits buckets per power of two above the
  // limit, so a tail bucket spans at most 1/64 of its values.
  static constexpr int kTailSubBits = 6;
  static constexpr std::size_t kMaxTailBuckets = (64 - 16) << kTailSubBits;

  void observe(std::uint64_t v);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }
  // min() and max() are 0 when empty.
  double min() const { return static_cast<double>(min_); }
  double max() const { return static_cast<double>(max_); }
  // Nearest rank: the smallest value v with ceil(q * count()) samples <= v
  // (the minimum at q = 0).  Exact below kExactLimit; a rank in the tail
  // reads its bucket's upper bound, capped at max().  Throws
  // std::invalid_argument outside [0,1]; 0 when empty.
  double percentile(double q) const;

  // The unit buckets: size() == largest value below kExactLimit + 1 once
  // such a sample is recorded, empty before.
  const std::vector<std::uint64_t>& bucketCounts() const { return counts_; }
  // The tail: tailCounts()[i] counts the samples in [tailLowerBound(i),
  // tailUpperBound(i)]; at most kMaxTailBuckets long.
  const std::vector<std::uint64_t>& tailCounts() const { return tail_; }
  static std::uint64_t tailLowerBound(std::size_t i);
  static std::uint64_t tailUpperBound(std::size_t i);

  // Text histogram: `bins` equal-width buckets between min and max, one
  // line each, bar lengths normalized to `barWidth` characters.
  std::string histogram(int bins = 10, int barWidth = 40) const;

 private:
  std::vector<std::uint64_t> counts_;
  std::vector<std::uint64_t> tail_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

// Name-keyed collection of the three metric kinds.  Accessors create the
// metric on first use and return a stable reference (std::map nodes never
// move), so modules can hold raw pointers for the lifetime of the registry.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // Lookup without creation; nullptr when absent.
  const Counter* findCounter(const std::string& name) const;
  const Gauge* findGauge(const std::string& name) const;
  const Histogram* findHistogram(const std::string& name) const;

  // Value of a counter, or `absent` when it was never created (pruned-port
  // channels never register their series).
  std::uint64_t counterValue(const std::string& name,
                             std::uint64_t absent = 0) const;

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace rasoc::telemetry
