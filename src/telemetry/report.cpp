#include "telemetry/report.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace rasoc::telemetry {

RunReport::RunReport(std::string name) : name_(std::move(name)) {}

RunReport::Value& RunReport::slot(const std::string& section,
                                  const std::string& key) {
  for (Section& s : sections_) {
    if (s.name != section) continue;
    for (Entry& e : s.entries)
      if (e.first == key) return e.second;
    s.entries.emplace_back(key, Value{});
    return s.entries.back().second;
  }
  sections_.push_back({section, {}});
  sections_.back().entries.emplace_back(key, Value{});
  return sections_.back().entries.back().second;
}

void RunReport::set(const std::string& section, const std::string& key,
                    const std::string& value) {
  Value& v = slot(section, key);
  v.kind = Value::Kind::String;
  v.text = value;
}

void RunReport::set(const std::string& section, const std::string& key,
                    const char* value) {
  set(section, key, std::string(value));
}

void RunReport::set(const std::string& section, const std::string& key,
                    std::uint64_t value) {
  Value& v = slot(section, key);
  v.kind = Value::Kind::Unsigned;
  v.u = value;
}

void RunReport::set(const std::string& section, const std::string& key,
                    int value) {
  set(section, key, static_cast<std::uint64_t>(value));
}

void RunReport::set(const std::string& section, const std::string& key,
                    double value) {
  Value& v = slot(section, key);
  v.kind = Value::Kind::Double;
  v.d = value;
}

void RunReport::set(const std::string& section, const std::string& key,
                    bool value) {
  Value& v = slot(section, key);
  v.kind = Value::Kind::Bool;
  v.b = value;
}

std::string RunReport::formatNumber(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no inf/nan
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string RunReport::escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void appendValue(std::ostringstream& out, const std::string& key,
                 const std::string& rendered, bool& first, int indent) {
  if (!first) out << ",";
  out << '\n' << std::string(static_cast<std::size_t>(indent), ' ') << '"'
      << RunReport::escape(key) << "\": " << rendered;
  first = false;
}

}  // namespace

std::string RunReport::toJson() const {
  std::ostringstream out;
  out << "{\n  \"report\": \"" << escape(name_) << '"';
  for (const Section& section : sections_) {
    out << ",\n  \"" << escape(section.name) << "\": {";
    bool first = true;
    for (const Entry& e : section.entries) {
      const Value& v = e.second;
      std::string rendered;
      switch (v.kind) {
        case Value::Kind::String: rendered = '"' + escape(v.text) + '"'; break;
        case Value::Kind::Unsigned: rendered = std::to_string(v.u); break;
        case Value::Kind::Double: rendered = formatNumber(v.d); break;
        case Value::Kind::Bool: rendered = v.b ? "true" : "false"; break;
      }
      appendValue(out, e.first, rendered, first, 4);
    }
    out << "\n  }";
  }
  if (registry_) {
    out << ",\n  \"metrics\": {\n    \"counters\": {";
    bool first = true;
    for (const auto& [name, counter] : registry_->counters())
      appendValue(out, name, std::to_string(counter.value()), first, 6);
    out << "\n    },\n    \"gauges\": {";
    first = true;
    for (const auto& [name, gauge] : registry_->gauges()) {
      std::string rendered = "{\"last\": " + formatNumber(gauge.last()) +
                             ", \"min\": " + formatNumber(gauge.min()) +
                             ", \"max\": " + formatNumber(gauge.max()) +
                             ", \"mean\": " + formatNumber(gauge.mean()) +
                             ", \"samples\": " +
                             std::to_string(gauge.samples()) + "}";
      appendValue(out, name, rendered, first, 6);
    }
    out << "\n    },\n    \"histograms\": {";
    first = true;
    for (const auto& [name, hist] : registry_->histograms()) {
      std::string rendered = "{\"count\": " + std::to_string(hist.count()) +
                             ", \"sum\": " +
                             formatNumber(static_cast<double>(hist.sum())) +
                             ", \"mean\": " + formatNumber(hist.mean()) +
                             ", \"buckets\": [";
      const auto& counts = hist.bucketCounts();
      bool firstBucket = true;
      auto bucket = [&](std::uint64_t le, std::uint64_t count) {
        if (!firstBucket) rendered += ", ";
        firstBucket = false;
        rendered += "{\"le\": " + std::to_string(le) +
                    ", \"count\": " + std::to_string(count) + "}";
      };
      for (std::size_t v = 0; v < counts.size(); ++v) bucket(v, counts[v]);
      // Above the unit buckets, the occupied log-linear tail buckets only.
      const auto& tail = hist.tailCounts();
      for (std::size_t i = 0; i < tail.size(); ++i)
        if (tail[i] != 0)
          bucket(Histogram::tailUpperBound(i), tail[i]);
      rendered += "]}";
      appendValue(out, name, rendered, first, 6);
    }
    out << "\n    }\n  }";
  }
  out << "\n}\n";
  return out.str();
}

}  // namespace rasoc::telemetry
