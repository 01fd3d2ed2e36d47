#ifndef SBFT_BENCH_E2E_REPORT_H_
#define SBFT_BENCH_E2E_REPORT_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace e2e {

/// A parsed JSON value: enough of JSON for the benchmark's own files.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string text;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  /// Member of an object; nullptr when absent or not an object.
  const Json* Get(std::string_view key) const;
  double Num(std::string_view key, double fallback = 0) const;
  std::string Str(std::string_view key) const;
};

/// Parses a complete JSON document; false on any syntax error.
bool ParseJson(std::string_view text, Json* out);
/// Reads and parses a JSON file; false when unreadable or malformed.
bool ReadJsonFile(const std::string& path, Json* out);

/// JSON literals: a quoted, escaped string and a round-trip number.
std::string JsonString(std::string_view s);
std::string JsonNumber(double v);

/// An end-to-end metric and the bound by which it may get worse.
struct MetricDef {
  const char* name;
  const char* unit;
  bool higher_better;
  double bound;   ///< Share of the base value, or absolute (below).
  bool absolute;  ///< `bound` is in the metric's own unit.
  double floor;   ///< Smallest change that counts, in the unit.
};
const std::vector<MetricDef>& EndToEndMetrics();
const MetricDef* FindMetric(std::string_view name);

/// A per-layer metric (no bound: it explains, it does not gate).
struct LayerDef {
  const char* name;
  const char* unit;
  bool higher_better;
};
const std::vector<LayerDef>& LayerMetrics();
const LayerDef* FindLayer(std::string_view name);

/// `bench_e2e --compare A.json B.json`: one row per workload and metric.
/// Returns 1 when any metric is worse, 2 on unreadable input, else 0.
int Compare(const std::string& a_path, const std::string& b_path);

}  // namespace e2e

#endif  // SBFT_BENCH_E2E_REPORT_H_
