#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

namespace rasoc::telemetry {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, TracksLastMinMaxMean) {
  Gauge g;
  EXPECT_EQ(g.samples(), 0u);
  EXPECT_EQ(g.mean(), 0.0);
  g.sample(4.0);
  g.sample(-2.0);
  g.sample(1.0);
  EXPECT_EQ(g.samples(), 3u);
  EXPECT_DOUBLE_EQ(g.last(), 1.0);
  EXPECT_DOUBLE_EQ(g.min(), -2.0);
  EXPECT_DOUBLE_EQ(g.max(), 4.0);
  EXPECT_DOUBLE_EQ(g.mean(), 1.0);
}

TEST(HistogramTest, BucketsByInclusiveUpperBound) {
  // Unit-width buckets: bucket v holds the samples in (v - 1, v], i.e. the
  // samples equal to v, and the buckets grow to the largest value seen.
  Histogram h;
  EXPECT_TRUE(h.bucketCounts().empty());
  for (std::uint64_t v : {0, 1, 2, 2, 3, 4, 100}) h.observe(v);
  ASSERT_EQ(h.bucketCounts().size(), 101u);
  EXPECT_EQ(h.bucketCounts()[0], 1u);
  EXPECT_EQ(h.bucketCounts()[1], 1u);
  EXPECT_EQ(h.bucketCounts()[2], 2u);
  EXPECT_EQ(h.bucketCounts()[3], 1u);
  EXPECT_EQ(h.bucketCounts()[4], 1u);
  EXPECT_EQ(h.bucketCounts()[50], 0u);
  EXPECT_EQ(h.bucketCounts()[100], 1u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 112u);
}

TEST(HistogramTest, EmptyStatsAreZero) {
  Histogram stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.min(), 0.0);
  EXPECT_EQ(stats.max(), 0.0);
}

TEST(HistogramTest, SummaryStatistics) {
  Histogram stats;
  for (std::uint64_t v : {4, 8, 6, 2}) stats.observe(v);
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_EQ(stats.sum(), 20u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 8.0);
}

TEST(HistogramTest, Percentiles) {
  Histogram stats;
  for (std::uint64_t i = 1; i <= 100; ++i) stats.observe(i);
  EXPECT_DOUBLE_EQ(stats.percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(stats.percentile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(stats.percentile(1.0), 100.0);
  EXPECT_THROW(stats.percentile(1.5), std::invalid_argument);
  EXPECT_THROW(stats.percentile(-0.1), std::invalid_argument);
}

TEST(HistogramTest, EmptyStatsPercentileIsZero) {
  Histogram stats;
  EXPECT_DOUBLE_EQ(stats.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(stats.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(stats.percentile(1.0), 0.0);
}

TEST(HistogramTest, SingleSamplePercentileIsThatSample) {
  Histogram stats;
  stats.observe(7);
  EXPECT_DOUBLE_EQ(stats.percentile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(stats.percentile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(stats.percentile(1.0), 7.0);
}

TEST(HistogramTest, PercentileTracksLateRecords) {
  Histogram stats;
  stats.observe(1);
  EXPECT_DOUBLE_EQ(stats.percentile(1.0), 1.0);
  stats.observe(10);
  EXPECT_DOUBLE_EQ(stats.percentile(1.0), 10.0);
}

TEST(HistogramTest, InterleavedRecordsAndQueriesStayConsistent) {
  // Every query after a burst of samples must see the full sample set,
  // including values below the existing minimum.
  Histogram stats;
  for (int burst = 0; burst < 10; ++burst) {
    for (int i = 0; i < 5; ++i)
      stats.observe(static_cast<std::uint64_t>((7 * burst + 3 * i) % 50));
    EXPECT_DOUBLE_EQ(stats.percentile(0.0), stats.min());
    EXPECT_DOUBLE_EQ(stats.percentile(1.0), stats.max());
  }
  EXPECT_EQ(stats.count(), 50u);
}

// Seeded integer samples shaped like packet latencies: mostly small, some
// zeros, and a sparse tail two orders of magnitude out.
std::vector<std::uint64_t> latencyLikeSamples(std::size_t n,
                                              std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t r = rng();
    samples.push_back(r % 1000 == 0 ? r % 20000 : r % 64);
  }
  return samples;
}

TEST(HistogramTest, MatchesASortedVectorReference) {
  const std::vector<std::uint64_t> samples =
      latencyLikeSamples(100000, 0x5eed);
  Histogram h;
  for (std::uint64_t v : samples) h.observe(v);

  std::vector<std::uint64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(sorted.front(), 0u) << "the samples must include 0";
  ASSERT_GT(sorted.back(), 1000u) << "the samples must include a long tail";
  const double sum = std::accumulate(sorted.begin(), sorted.end(), 0.0);

  EXPECT_EQ(h.count(), sorted.size());
  EXPECT_DOUBLE_EQ(h.mean(), sum / static_cast<double>(sorted.size()));
  EXPECT_DOUBLE_EQ(h.min(), static_cast<double>(sorted.front()));
  EXPECT_DOUBLE_EQ(h.max(), static_cast<double>(sorted.back()));
  for (double q : {0.0, 0.01, 0.5, 0.9, 0.99, 1.0}) {
    // Nearest rank on the sorted samples.
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    const std::uint64_t expected = sorted[rank == 0 ? 0 : rank - 1];
    EXPECT_DOUBLE_EQ(h.percentile(q), static_cast<double>(expected))
        << "q=" << q;
  }
}

TEST(HistogramTest, MemoryIsBoundedByTheLargestValue) {
  Histogram h;
  std::uint64_t largest = 0;
  for (std::uint64_t v : latencyLikeSamples(1000000, 42)) {
    h.observe(v);
    largest = std::max(largest, v);
  }
  EXPECT_EQ(h.count(), 1000000u);
  EXPECT_EQ(h.bucketCounts().size(), largest + 1);
}

TEST(HistogramTest, HugeValuesLandInABoundedTail) {
  // One wrapped or garbage sample must cost a tail bucket, not a resize to
  // its value.
  Histogram h;
  const std::uint64_t huge = std::uint64_t{1} << 40;
  for (std::uint64_t v : {std::uint64_t{7}, std::uint64_t{9}, huge})
    EXPECT_NO_THROW(h.observe(v));
  EXPECT_EQ(h.bucketCounts().size(), 10u);
  EXPECT_LE(h.tailCounts().size(), Histogram::kMaxTailBuckets);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), huge + 16);
  EXPECT_DOUBLE_EQ(h.min(), 7.0);
  EXPECT_DOUBLE_EQ(h.max(), static_cast<double>(huge));
  // Below the limit percentiles stay exact; the tail bucket reads its
  // upper bound capped at the maximum.
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 9.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), static_cast<double>(huge));
  // The largest representable value still fits the tail.
  h.observe(~std::uint64_t{0});
  EXPECT_EQ(h.tailCounts().size(), Histogram::kMaxTailBuckets);
  EXPECT_EQ(Histogram::tailUpperBound(Histogram::kMaxTailBuckets - 1),
            ~std::uint64_t{0});
}

TEST(HistogramTest, TailBucketsTileTheRangeAboveTheLimit) {
  EXPECT_EQ(Histogram::tailLowerBound(0), Histogram::kExactLimit);
  for (std::size_t i = 0; i + 1 < Histogram::kMaxTailBuckets; ++i) {
    ASSERT_EQ(Histogram::tailUpperBound(i) + 1,
              Histogram::tailLowerBound(i + 1))
        << i;
    // Each bucket spans at most 1/64 of its lower bound.
    const std::uint64_t lo = Histogram::tailLowerBound(i);
    ASSERT_LE(Histogram::tailUpperBound(i) - lo, lo >> 6) << i;
  }
  // Observing a bucket's bounds lands in that bucket.
  for (std::size_t i : {std::size_t{0}, std::size_t{63}, std::size_t{64},
                        std::size_t{1000}, Histogram::kMaxTailBuckets - 1}) {
    Histogram h;
    h.observe(Histogram::tailLowerBound(i));
    h.observe(Histogram::tailUpperBound(i));
    ASSERT_EQ(h.tailCounts().size(), i + 1);
    EXPECT_EQ(h.tailCounts()[i], 2u);
  }
}

TEST(HistogramTest, RendersBinsAndBars) {
  Histogram stats;
  for (int i = 0; i < 90; ++i) stats.observe(10);
  for (int i = 0; i < 10; ++i) stats.observe(100);
  const std::string histogram = stats.histogram(9, 20);
  EXPECT_NE(histogram.find("####################"), std::string::npos);
  // The sparse bin still gets a labelled row.
  EXPECT_NE(histogram.find("10 "), std::string::npos);
}

TEST(HistogramTest, EmptyAndDegenerateInputs) {
  Histogram stats;
  EXPECT_NE(stats.histogram().find("(no samples)"), std::string::npos);
  stats.observe(5);
  EXPECT_NO_THROW(stats.histogram());  // single value: zero range
  EXPECT_THROW(stats.histogram(0), std::invalid_argument);
}

TEST(RegistryTest, AccessorsCreateOnFirstUseAndReturnStableRefs) {
  MetricsRegistry registry;
  Counter& a = registry.counter("a");
  a.inc(3);
  // Creating more metrics must not move the first one.
  for (int i = 0; i < 100; ++i)
    registry.counter("c" + std::to_string(i)).inc();
  EXPECT_EQ(&registry.counter("a"), &a);
  EXPECT_EQ(registry.counter("a").value(), 3u);
  EXPECT_EQ(registry.size(), 101u);
}

TEST(RegistryTest, FindDoesNotCreate) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.findCounter("missing"), nullptr);
  EXPECT_EQ(registry.findGauge("missing"), nullptr);
  EXPECT_EQ(registry.findHistogram("missing"), nullptr);
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.counterValue("missing"), 0u);
  EXPECT_EQ(registry.counterValue("missing", 7), 7u);
}

TEST(RegistryTest, HistogramReRegistrationReturnsTheSameSeries) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("occ");
  h.observe(1);
  // A second instrument naming the series shares its buckets.
  Histogram& again = registry.histogram("occ");
  EXPECT_EQ(&again, &h);
  again.observe(3);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(RegistryTest, IterationIsNameSorted) {
  MetricsRegistry registry;
  registry.counter("zeta");
  registry.counter("alpha");
  registry.counter("mid");
  std::vector<std::string> names;
  for (const auto& [name, counter] : registry.counters())
    names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

}  // namespace
}  // namespace rasoc::telemetry
