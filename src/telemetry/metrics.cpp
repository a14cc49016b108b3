#include "telemetry/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace rasoc::telemetry {

namespace {

constexpr int kExactBits = 16;
static_assert(Histogram::kExactLimit == std::uint64_t{1} << kExactBits);

// Tail bucket of v >= kExactLimit: the octave above the limit, then the
// kTailSubBits bits below v's leading one.
std::size_t tailIndex(std::uint64_t v) {
  const int octave = std::bit_width(v) - 1;
  const auto sub = static_cast<std::size_t>(
      (v >> (octave - Histogram::kTailSubBits)) &
      ((std::uint64_t{1} << Histogram::kTailSubBits) - 1));
  return (static_cast<std::size_t>(octave - kExactBits)
          << Histogram::kTailSubBits) +
         sub;
}

}  // namespace

std::uint64_t Histogram::tailLowerBound(std::size_t i) {
  const int octave = kExactBits + static_cast<int>(i >> kTailSubBits);
  const std::uint64_t sub = i & ((std::size_t{1} << kTailSubBits) - 1);
  return ((std::uint64_t{1} << kTailSubBits) + sub)
         << (octave - kTailSubBits);
}

std::uint64_t Histogram::tailUpperBound(std::size_t i) {
  return i + 1 == kMaxTailBuckets ? ~std::uint64_t{0}
                                  : tailLowerBound(i + 1) - 1;
}

void Histogram::observe(std::uint64_t v) {
  if (v < kExactLimit) {
    if (v >= counts_.size()) counts_.resize(v + 1, 0);
    ++counts_[v];
  } else {
    const std::size_t i = tailIndex(v);
    if (i >= tail_.size()) tail_.resize(i + 1, 0);
    ++tail_[i];
  }
  if (count_ == 0 || v < min_) min_ = v;
  if (count_ == 0 || v > max_) max_ = v;
  ++count_;
  sum_ += v;
}

double Histogram::percentile(double q) const {
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("percentile q in [0,1]");
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  const std::uint64_t target = rank == 0 ? 1 : rank;
  std::uint64_t seen = 0;
  for (std::size_t v = min_; v < counts_.size(); ++v) {
    seen += counts_[v];
    if (seen >= target) return static_cast<double>(v);
  }
  for (std::size_t i = 0; i < tail_.size(); ++i) {
    seen += tail_[i];
    if (seen >= target)
      return static_cast<double>(std::min(tailUpperBound(i), max_));
  }
  return max();
}

std::string Histogram::histogram(int bins, int barWidth) const {
  if (bins < 1 || barWidth < 1)
    throw std::invalid_argument("histogram needs >= 1 bin and bar width");
  if (count_ == 0) return "(no samples)\n";
  const double lo = min();
  const double hi = max();
  const double width = hi > lo ? (hi - lo) / bins : 1.0;
  std::vector<std::uint64_t> binCounts(static_cast<std::size_t>(bins), 0);
  auto add = [&](double value, std::uint64_t n) {
    const double offset = std::max(value - lo, 0.0);
    auto bin = static_cast<std::size_t>(offset / width);
    if (bin >= binCounts.size()) bin = binCounts.size() - 1;
    binCounts[bin] += n;
  };
  for (std::size_t v = min_; v < counts_.size(); ++v)
    add(static_cast<double>(v), counts_[v]);
  for (std::size_t i = 0; i < tail_.size(); ++i)
    if (tail_[i] != 0) add(static_cast<double>(tailLowerBound(i)), tail_[i]);
  const std::uint64_t peak =
      *std::max_element(binCounts.begin(), binCounts.end());
  std::string out;
  for (int b = 0; b < bins; ++b) {
    const double binLo = lo + b * width;
    const std::uint64_t n = binCounts[static_cast<std::size_t>(b)];
    const auto bar = static_cast<std::size_t>(
        n * static_cast<std::uint64_t>(barWidth) / peak);
    char label[64];
    std::snprintf(label, sizeof label, "[%8.1f, %8.1f) %8llu ", binLo,
                  binLo + width, static_cast<unsigned long long>(n));
    out += label;
    out += std::string(bar, '#');
    out += '\n';
  }
  return out;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return histograms_[name];
}

const Counter* MetricsRegistry::findCounter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::findGauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::findHistogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::uint64_t MetricsRegistry::counterValue(const std::string& name,
                                            std::uint64_t absent) const {
  const Counter* c = findCounter(name);
  return c ? c->value() : absent;
}

}  // namespace rasoc::telemetry
