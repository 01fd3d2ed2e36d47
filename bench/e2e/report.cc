#include "report.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace e2e {

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

const Json* Json::Get(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Json::Num(std::string_view key, double fallback) const {
  const Json* v = Get(key);
  return v != nullptr && v->type == Type::kNumber ? v->number : fallback;
}

std::string Json::Str(std::string_view key) const {
  const Json* v = Get(key);
  return v != nullptr && v->type == Type::kString ? v->text : std::string();
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  bool Parse(Json* out) {
    SkipSpace();
    if (!Value(out, 0)) return false;
    SkipSpace();
    return pos_ == s_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool Value(Json* out, int depth) {
    SkipSpace();
    if (depth > 64 || pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return Object(out, depth);
    if (c == '[') return Array(out, depth);
    if (c == '"') {
      out->type = Json::Type::kString;
      return String(&out->text);
    }
    if (Literal("true") || Literal("false")) {
      out->type = Json::Type::kBool;
      out->boolean = c == 't';
      return true;
    }
    if (Literal("null")) return true;
    return Number(out);
  }

  bool Object(Json* out, int depth) {
    out->type = Json::Type::kObject;
    ++pos_;
    if (Eat('}')) return true;
    do {
      std::pair<std::string, Json> field;
      SkipSpace();
      if (!String(&field.first) || !Eat(':') ||
          !Value(&field.second, depth + 1)) {
        return false;
      }
      out->fields.push_back(std::move(field));
    } while (Eat(','));
    return Eat('}');
  }

  bool Array(Json* out, int depth) {
    out->type = Json::Type::kArray;
    ++pos_;
    if (Eat(']')) return true;
    do {
      Json item;
      if (!Value(&item, depth + 1)) return false;
      out->items.push_back(std::move(item));
    } while (Eat(','));
    return Eat(']');
  }

  bool String(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
      switch (e) {
        case 'n':
          out->push_back('\n');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          unsigned code = 0;
          auto [p, ec] = std::from_chars(s_.data() + pos_,
                                         s_.data() + pos_ + 4, code, 16);
          if (ec != std::errc() || p != s_.data() + pos_ + 4) return false;
          pos_ += 4;
          // The benchmark only writes ASCII; keep other code points as '?'.
          out->push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default:
          out->push_back(e);  // '"', '\\', '/'.
      }
    }
    return false;
  }

  bool Number(Json* out) {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    const std::string token(s_.substr(start, pos_ - start));
    char* end = nullptr;
    out->number = std::strtod(token.c_str(), &end);
    out->type = Json::Type::kNumber;
    return end == token.c_str() + token.size();
  }

  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace

bool ParseJson(std::string_view text, Json* out) {
  *out = Json();
  return Parser(text).Parse(out);
}

bool ReadJsonFile(const std::string& path, Json* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  return ParseJson(ss.str(), out);
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

// ---------------------------------------------------------------------------
// Metric definitions
// ---------------------------------------------------------------------------

const std::vector<MetricDef>& EndToEndMetrics() {
  // Bounds apply between two runs of the suite at one seed, where every
  // simulated metric repeats exactly. A wall-clock bound is twice the
  // spread between the two runs in results/ where that exceeded the
  // starting bound (engine 10% -> 59%, set-up 10% -> 51%).
  static const std::vector<MetricDef> defs = {
      {"goodput_tps", "txn/s", true, 0.01, false, 0},
      {"p50_ms", "ms", false, 0.05, false, 0},
      {"p99_ms", "ms", false, 0.05, false, 0},
      {"failed_frac", "frac", false, 0.005, true, 0},
      {"knee_tps", "txn/s", true, 0.03, false, 0},
      {"outage_s", "s", false, 0.05, false, 0},
      {"cents_per_ktxn", "cents/ktxn", false, 0.01, false, 0},
      {"engine_tps", "txn/s", true, 0.59, false, 0},
      {"setup_s", "s", false, 0.51, false, 0.02},
      {"peak_rss_mb", "MB", false, 0.05, false, 0},
  };
  return defs;
}

const MetricDef* FindMetric(std::string_view name) {
  for (const MetricDef& d : EndToEndMetrics()) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

const std::vector<LayerDef>& LayerMetrics() {
  static const std::vector<LayerDef> defs = {
      {"sim.events_per_txn", "events/txn", false},
      {"sim.ns_per_event", "ns", false},
      {"sim.msgs_per_txn", "msgs/txn", false},
      {"sim.bytes_per_txn", "B/txn", false},
      {"sim.dropped_msgs", "count", false},
      {"sim.parallel_rounds_per_sim_ms", "rounds/ms", false},
      {"sim.cross_loop_msgs_per_txn", "msgs/txn", false},
      {"sim.parallel_speedup", "x", true},
      {"sim.schedule_step_ns", "ns", false},
      {"sim.broadcast_ns_per_delivery", "ns", false},
      {"shim.batch_wait_ms", "ms", false},
      {"shim.order_ms_p50", "ms", false},
      {"shim.order_ms_p99", "ms", false},
      {"shim.txns_per_batch", "txns/batch", true},
      {"shim.recv_wait_ms", "ms", false},
      {"shim.checkpoints", "count", false},
      {"shim.view_changes", "count", false},
      {"shim.view_change_s", "s", false},
      {"serverless.spawn_ms", "ms", false},
      {"serverless.exec_ms_p50", "ms", false},
      {"serverless.exec_ms_p99", "ms", false},
      {"serverless.cold_start_frac", "frac", false},
      {"serverless.executors_per_batch", "execs/batch", false},
      {"serverless.spawns_throttled", "count", false},
      {"serverless.lambda_cents_per_ktxn", "cents/ktxn", false},
      {"verifier.match_ms", "ms", false},
      {"verifier.settle_ms", "ms", false},
      {"verifier.recv_wait_ms", "ms", false},
      {"verifier.recv_wait_ms_p99", "ms", false},
      {"verifier.abort_frac", "frac", false},
      {"verifier.lock_waits_queued", "count", false},
      {"verifier.lock_waits_aborted", "count", false},
      {"verifier.flooding_ignored", "count", false},
      {"verifier.votes_per_cert", "votes/cert", true},
      {"core.coord_vote_ms_p50", "ms", false},
      {"core.coord_vote_ms_p99", "ms", false},
      {"core.coord_decide_ms_p50", "ms", false},
      {"core.coord_decide_ms_p99", "ms", false},
      {"core.coord_recv_wait_ms", "ms", false},
      {"core.coord_recv_wait_ms_p99", "ms", false},
      {"core.presumed_aborts", "count", false},
      {"core.coord_view_changes", "count", false},
      {"core.coord_takeover_s", "s", false},
      {"core.retransmits_per_ktxn", "1/ktxn", false},
      {"core.drops", "count", false},
      {"core.peak_inflight", "count", false},
      {"storage.reads_per_txn", "ops/txn", false},
      {"storage.writes_per_txn", "ops/txn", false},
      {"crypto.hmac_ns", "ns", false},
      {"crypto.sha256_mbps", "MB/s", true},
      {"trace.overhead_frac", "frac", false},
      {"trace.coverage", "frac", true},
      {"trace.incomplete_frac", "frac", false},
  };
  return defs;
}

const LayerDef* FindLayer(std::string_view name) {
  for (const LayerDef& d : LayerMetrics()) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Compare mode
// ---------------------------------------------------------------------------

namespace {

/// "better", "same", "worse", or "unresolved" (the spread exceeds the
/// bound) for one metric between two result files.
std::string Verdict(const MetricDef& def, double base, double base_spread,
                    double next, double next_spread) {
  const double scale = def.absolute ? 1.0 : std::fabs(base);
  const double allowed = std::max(def.bound * scale, def.floor);
  const double spread = std::max(base_spread, next_spread) * scale;
  const double worse = def.higher_better ? base - next : next - base;
  if (spread > allowed) return "unresolved";
  if (worse > allowed) return "worse";
  if (-worse > allowed) return "better";
  return "same";
}

}  // namespace

int Compare(const std::string& a_path, const std::string& b_path) {
  Json a, b;
  if (!ReadJsonFile(a_path, &a) || !ReadJsonFile(b_path, &b)) {
    std::fprintf(stderr, "cannot read %s or %s as a result file\n",
                 a_path.c_str(), b_path.c_str());
    return 2;
  }
  const Json* a_ws = a.Get("workloads");
  const Json* b_ws = b.Get("workloads");
  if (a_ws == nullptr || b_ws == nullptr) {
    std::fprintf(stderr, "result files have no \"workloads\" list\n");
    return 2;
  }
  std::printf("%-16s %-15s %14s %14s %10s %8s  %s\n", "workload", "metric",
              "A median", "B median", "delta", "bound", "verdict");
  bool any_worse = false;
  for (const Json& bw : b_ws->items) {
    const std::string name = bw.Str("name");
    const Json* aw = nullptr;
    for (const Json& w : a_ws->items) {
      if (w.Str("name") == name) aw = &w;
    }
    if (aw == nullptr) continue;
    const Json* am = aw->Get("metrics");
    const Json* bm = bw.Get("metrics");
    if (am == nullptr || bm == nullptr) continue;
    for (const MetricDef& def : EndToEndMetrics()) {
      const Json* av = am->Get(def.name);
      const Json* bv = bm->Get(def.name);
      if (av == nullptr || bv == nullptr) continue;
      const double base = av->Num("value");
      const double next = bv->Num("value");
      const std::string verdict = Verdict(def, base, av->Num("spread"), next,
                                          bv->Num("spread"));
      any_worse |= verdict == "worse";
      char delta[32], bound[32];
      if (def.absolute) {
        std::snprintf(delta, sizeof(delta), "%+.4f", next - base);
        std::snprintf(bound, sizeof(bound), "%.3f", def.bound);
      } else {
        std::snprintf(delta, sizeof(delta), "%+.2f%%",
                      base != 0 ? 100.0 * (next - base) / base : 0.0);
        std::snprintf(bound, sizeof(bound), "%.0f%%", 100.0 * def.bound);
      }
      std::printf("%-16s %-15s %14.6g %14.6g %10s %8s  %s\n", name.c_str(),
                  def.name, base, next, delta, bound, verdict.c_str());
    }
  }
  return any_worse ? 1 : 0;
}

}  // namespace e2e
