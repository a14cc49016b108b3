#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace rasoc::telemetry {

void Histogram::observe(std::uint64_t v) {
  if (v >= counts_.size()) counts_.resize(v + 1, 0);
  ++counts_[v];
  if (count_ == 0 || v < min_) min_ = v;
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
  for (std::size_t v = min_; v < counts_.size(); ++v) {
    auto bin = static_cast<std::size_t>((static_cast<double>(v) - lo) / width);
    if (bin >= binCounts.size()) bin = binCounts.size() - 1;
    binCounts[bin] += counts_[v];
  }
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
