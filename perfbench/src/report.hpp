// Metric collection, validation and the result line the benchmark prints.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// True for names made of [A-Za-z0-9_.-], starting with a letter or digit,
/// at most 64 characters long.
bool valid_metric_name(std::string_view name);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Ordered metric list; rejects malformed or duplicate names at insertion.
class MetricSet {
 public:
  void set(const std::string& name, const std::string& unit, double value);
  const std::vector<Metric>& all() const { return metrics_; }
  const Metric* find(const std::string& name) const;

 private:
  std::vector<Metric> metrics_;
};

/// {"<name>": {"value": v, "unit": u}, ...} in insertion order.
std::string metrics_json(const MetricSet& metrics);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricSet& metrics);

/// JSON string literal with the characters JSON requires escaped.
std::string json_string(std::string_view s);

/// Number formatted with every digit a double holds (%.17g); non-finite
/// values become null.
std::string json_number(double v);

/// 64-bit FNV-1a digest over the bytes fed to it.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  void bytes(const std::vector<std::uint8_t>& v) { bytes(v.data(), v.size()); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace perfbench
