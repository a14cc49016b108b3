#include "telemetry/report.hpp"

#include <gtest/gtest.h>

namespace rasoc::telemetry {
namespace {

TEST(ReportTest, SectionsAndKeysRenderInInsertionOrder) {
  RunReport report("demo");
  report.set("zrun", "cycles", std::uint64_t{100});
  report.set("zrun", "load", 0.25);
  report.set("alpha", "ok", true);
  const std::string json = report.toJson();
  EXPECT_NE(json.find("\"report\": \"demo\""), std::string::npos);
  // Insertion order wins over lexicographic order.
  EXPECT_LT(json.find("\"zrun\""), json.find("\"alpha\""));
  EXPECT_LT(json.find("\"cycles\": 100"), json.find("\"load\": 0.25"));
  EXPECT_NE(json.find("\"ok\": true"), std::string::npos);
}

TEST(ReportTest, RepeatedKeyOverwritesInPlace) {
  RunReport report("demo");
  report.set("run", "seed", std::uint64_t{1});
  report.set("run", "mode", "fast");
  report.set("run", "seed", std::uint64_t{2});
  const std::string json = report.toJson();
  EXPECT_EQ(json.find("\"seed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 2"), std::string::npos);
  EXPECT_LT(json.find("\"seed\""), json.find("\"mode\""));
}

TEST(ReportTest, EscapesStringsAndRejectsNonFiniteNumbers) {
  RunReport report("q\"uote");
  report.set("s", "newline", "a\nb");
  report.set("s", "tab\tkey", "v");
  report.set("s", "inf", 1.0 / 0.0);
  const std::string json = report.toJson();
  EXPECT_NE(json.find("q\\\"uote"), std::string::npos);
  EXPECT_NE(json.find("a\\nb"), std::string::npos);
  EXPECT_NE(json.find("tab\\tkey"), std::string::npos);
  EXPECT_NE(json.find("\"inf\": null"), std::string::npos);
}

TEST(ReportTest, SerializesRegistryInNameOrder) {
  MetricsRegistry registry;
  registry.counter("r0,0.flits_routed").inc(7);
  registry.counter("a.counter").inc(1);
  registry.gauge("mesh.in_flight").sample(3.0);
  registry.histogram("occ").observe(2);

  RunReport report("run");
  report.attachRegistry(registry);
  const std::string json = report.toJson();
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_LT(json.find("\"a.counter\": 1"),
            json.find("\"r0,0.flits_routed\": 7"));
  EXPECT_NE(json.find("\"mesh.in_flight\""), std::string::npos);
  EXPECT_NE(json.find("\"samples\": 1"), std::string::npos);
  // Histogram: one entry per integer value up to the largest sample, and
  // no overflow entry.
  EXPECT_NE(json.find("\"buckets\": [{\"le\": 0, \"count\": 0}, "
                      "{\"le\": 1, \"count\": 0}, "
                      "{\"le\": 2, \"count\": 1}]"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("\"inf\""), std::string::npos);
}

TEST(ReportTest, IdenticalInputsProduceByteIdenticalJson) {
  const auto build = [] {
    MetricsRegistry registry;
    registry.counter("c").inc(5);
    registry.gauge("g").sample(2.5);
    RunReport report("same");
    report.set("run", "cycles", std::uint64_t{10});
    report.set("run", "load", 0.1);
    report.attachRegistry(registry);
    return report.toJson();
  };
  EXPECT_EQ(build(), build());
}

TEST(ReportTest, NumberFormattingIsStable) {
  EXPECT_EQ(RunReport::formatNumber(0.25), "0.25");
  EXPECT_EQ(RunReport::formatNumber(3.0), "3");
  EXPECT_EQ(RunReport::formatNumber(-0.0), "-0");
}

}  // namespace
}  // namespace rasoc::telemetry
