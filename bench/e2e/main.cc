// bench_e2e: end-to-end benchmark of the serverless-edge architecture.
//
//   bench_e2e [--seed N] [--json FILE]
//       The suite: every workload in its own child process, timed reps
//       rotating across workloads, one traced rep per workload, knee
//       searches, micro-timings; prints every metric by name with its
//       unit, checks the outputs, exits non-zero on a failed check.
//   bench_e2e --workload W --seed N --seconds S --trace 0|1
//       One workload for about S wall seconds; the last stdout line is a
//       JSON object with the metrics BENCHMARK.json (read from the
//       working directory) lists: end_to_end with --trace 0, per_layer
//       with --trace 1.
//   bench_e2e --compare A.json B.json
//       One row per workload and metric of two suite result files.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "runner.h"
#include "report.h"
#include "workloads.h"

namespace e2e {
namespace {

constexpr int kRounds = 3;

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Run-to-run spread: max - min, as a share of the median unless
/// `absolute`.
double Spread(const std::vector<double>& v, bool absolute) {
  if (v.size() < 2) return 0;
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  if (absolute) return *hi - *lo;
  const double m = std::fabs(Median(v));
  return m > 0 ? (*hi - *lo) / m : 0;
}

/// Incremental JSON object text.
class Obj {
 public:
  Obj& Num(std::string_view key, double v) { return Raw(key, JsonNumber(v)); }
  Obj& Str(std::string_view key, std::string_view v) {
    return Raw(key, JsonString(v));
  }
  Obj& Bool(std::string_view key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  Obj& Raw(std::string_view key, std::string_view raw) {
    out_ += first_ ? "" : ", ";
    first_ = false;
    out_ += JsonString(key);
    out_ += ": ";
    out_ += raw;
    return *this;
  }
  std::string Done() const { return out_ + "}"; }

 private:
  std::string out_ = "{";
  bool first_ = true;
};

std::string StrArray(const std::vector<std::string>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(v[i]);
  }
  return out + "]";
}

std::string NumArray(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonNumber(v[i]);
  }
  return out + "]";
}

std::vector<std::string> Strings(const Json* arr) {
  std::vector<std::string> out;
  if (arr == nullptr) return out;
  for (const Json& j : arr->items) out.push_back(j.text);
  return out;
}

std::vector<double> Numbers(const Json* arr) {
  std::vector<double> out;
  if (arr == nullptr) return out;
  for (const Json& j : arr->items) out.push_back(j.number);
  return out;
}

std::string LayerJson(const std::map<std::string, double>& layer) {
  Obj o;
  for (const auto& [name, value] : layer) o.Num(name, value);
  return o.Done();
}

// ---------------------------------------------------------------------------
// Child processes
// ---------------------------------------------------------------------------

/// One run, as the child prints it.
std::string RepJson(const Workload& w, const RepResult& r) {
  Obj o;
  o.Num("setup_s", r.setup_s)
      .Num("run_wall_s", r.run_wall_s)
      .Num("engine_tps", r.engine_tps)
      .Num("ns_per_event", r.ns_per_event)
      .Num("peak_rss_mb", r.peak_rss_mb)
      .Num("offered", r.offered)
      .Num("committed", r.committed)
      .Num("aborted", r.aborted)
      .Num("dropped", r.dropped)
      .Num("goodput_tps", r.goodput_tps)
      .Num("failed_frac", r.failed_frac)
      .Num("samples", static_cast<double>(r.samples))
      .Num("p50_ms", r.p50_ms)
      .Num("p99_ms", r.p99_ms)
      .Num("mean_ms", r.mean_ms)
      .Num("cents_per_ktxn", r.cents_per_ktxn)
      .Num("outage_s", r.outage_s)
      .Raw("outages", NumArray(r.outages))
      .Num("peak_inflight", r.peak_inflight)
      .Num("parallel_rounds_per_sim_ms",
           r.window[kParallelRounds] / (r.measure_s * 1e3))
      .Num("cross_loop_msgs_per_txn",
           r.committed > 0 ? r.window[kCrossLoopMsgs] / r.committed : 0)
      .Bool("slo_ok", MeetsSlo(w, r))
      .Raw("heads", StrArray(r.heads))
      .Raw("failures", StrArray(r.failures));
  if (!r.layer.empty()) {
    double sum = 0;
    std::string phases = "[";
    for (int p = 0; p < kNumPhases; ++p) {
      sum += r.phase_mean_ms[p];
      phases += (p == 0 ? "" : ", ") + Obj()
                                          .Str("phase", PhaseName(p))
                                          .Num("mean_ms", r.phase_mean_ms[p])
                                          .Num("p50_ms", r.phase_p50_ms[p])
                                          .Num("p99_ms", r.phase_p99_ms[p])
                                          .Done();
    }
    o.Raw("layer", LayerJson(r.layer))
        .Raw("phases", phases + "]")
        .Num("phase_sum_ms", sum)
        .Num("traced", static_cast<double>(r.traced))
        .Num("traced_cross", static_cast<double>(r.traced_cross))
        .Num("incomplete", static_cast<double>(r.incomplete));
  }
  return o.Done();
}

int RunChildMode(const std::string& kind, const Workload* w, uint64_t seed) {
  std::string out;
  if (kind == "micro") {
    out = Obj().Raw("layer", LayerJson(RunMicro(seed))).Done();
  } else if (w == nullptr) {
    std::fprintf(stderr, "--child %s needs --workload\n", kind.c_str());
    return 2;
  } else if (kind == "rep") {
    out = RepJson(*w, RunRep(*w, seed, RepOptions()));
  } else if (kind == "trace") {
    RepOptions opt;
    opt.phases = true;
    opt.serial = true;
    out = RepJson(*w, RunRep(*w, seed, opt));
  } else if (kind == "knee") {
    const Knee k = FindKnee(*w, seed);
    out = Obj()
              .Num("knee_tps", k.tps)
              .Bool("censored", k.censored)
              .Num("probes", k.probes)
              .Raw("failures", StrArray(k.failures))
              .Done();
  } else {
    std::fprintf(stderr, "unknown --child kind %s\n", kind.c_str());
    return 2;
  }
  std::printf("%s\n", out.c_str());
  return 0;
}

/// Runs this binary with `args` in a child process and parses the last
/// line it prints as JSON. False when it fails or prints no JSON.
bool RunChild(const std::vector<std::string>& args, Json* out) {
  std::fflush(stdout);
  int fds[2];
  if (pipe(fds) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> argv;
    std::string self = "bench_e2e";
    argv.push_back(self.data());
    std::vector<std::string> copy = args;
    for (std::string& a : copy) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    text.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return false;
  while (!text.empty() && text.back() == '\n') text.pop_back();
  const size_t nl = text.rfind('\n');
  return ParseJson(nl == std::string::npos ? text : text.substr(nl + 1),
                   out);
}

// ---------------------------------------------------------------------------
// The suite
// ---------------------------------------------------------------------------

struct MetricRow {
  const MetricDef* def;
  std::vector<double> reps;
  double value = 0;
  double spread = 0;
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

class Suite {
 public:
  explicit Suite(uint64_t seed)
      : seed_(seed), ws_(Workloads()), reps_(ws_.size()),
        traces_(ws_.size()), knees_(ws_.size()), wall_(ws_.size(), 0) {}

  int Run(const std::string& json_path) {
    const double t0 = WallNow();
    std::printf("bench_e2e suite: seed %llu, %zu workloads, %d rounds, "
                "%u hardware threads (%s)\n",
                static_cast<unsigned long long>(seed_), ws_.size(), kRounds,
                std::thread::hardware_concurrency(), CpuModel().c_str());
    // Timed reps rotate across workloads so one slow stretch of a shared
    // host cannot land on every rep of one workload.
    for (int r = 0; r < kRounds; ++r) {
      for (size_t i = 0; i < ws_.size(); ++i) {
        const size_t w = (i + static_cast<size_t>(r)) % ws_.size();
        Json j;
        Child(w, "rep", &j);
        reps_[w].push_back(j);
        std::printf("  round %d  %-16s %6.2f s run wall\n", r + 1,
                    ws_[w].name.c_str(), j.Num("run_wall_s"));
      }
    }
    for (size_t w = 0; w < ws_.size(); ++w) {
      Child(w, "trace", &traces_[w]);
      if (ws_[w].knee) Child(w, "knee", &knees_[w]);
    }
    if (!RunChild({"--child", "micro", "--seed", std::to_string(seed_)},
                  &micro_)) {
      Fail("micro-timing child failed");
    }

    std::string workloads = "[";
    for (size_t w = 0; w < ws_.size(); ++w) {
      workloads += (w == 0 ? "" : ", ") + Report(w);
    }
    workloads += "]";
    PrintMicro();

    const double wall = WallNow() - t0;
    std::printf("\ngenerator lateness: 0 by construction (arrivals are "
                "simulator events, never late in simulated time)\n");
    std::printf("suite wall time: %.1f s\n", wall);
    if (failures_.empty()) {
      std::printf("checks: all passed\n");
    } else {
      std::printf("checks: %zu FAILED\n", failures_.size());
      for (const std::string& f : failures_) {
        std::printf("  FAIL %s\n", f.c_str());
      }
    }
    if (!json_path.empty()) {
      const std::string doc =
          Obj()
              .Str("schema", "sbft-bench-e2e-v1")
              .Num("seed", static_cast<double>(seed_))
              .Num("rounds", kRounds)
              .Num("hardware_threads", std::thread::hardware_concurrency())
              .Str("cpu", CpuModel())
              .Num("wall_s", wall)
              .Raw("micro", LayerJson(MicroLayer()))
              .Raw("failures", StrArray(failures_))
              .Raw("workloads", workloads)
              .Done();
      std::ofstream out(json_path);
      out << doc << "\n";
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
      }
      std::printf("wrote %s\n", json_path.c_str());
    }
    return failures_.empty() ? 0 : 1;
  }

 private:
  void Fail(std::string what) { failures_.push_back(std::move(what)); }

  void Child(size_t w, const char* kind, Json* out) {
    const double t0 = WallNow();
    if (!RunChild({"--child", kind, "--workload", ws_[w].name, "--seed",
                   std::to_string(seed_)},
                  out)) {
      Fail(ws_[w].name + ": " + kind + " child failed");
    }
    wall_[w] += WallNow() - t0;
  }

  std::map<std::string, double> MicroLayer() const {
    std::map<std::string, double> out;
    if (const Json* layer = micro_.Get("layer")) {
      for (const auto& [k, v] : layer->fields) out[k] = v.number;
    }
    return out;
  }

  void PrintMicro() const {
    std::printf("\n== micro-timings (median of 3 samples >= 0.3 s) ==\n");
    for (const auto& [name, value] : MicroLayer()) {
      const LayerDef* def = FindLayer(name);
      std::printf("  %-34s %12.4g %s\n", name.c_str(), value,
                  def != nullptr ? def->unit : "");
    }
  }

  /// The workload whose untraced run a traced (serial) rep of `w` must
  /// reproduce: itself, or the serial twin of a parallel workload.
  size_t ReferenceIndex(size_t w) const {
    for (size_t i = 0; i < ws_.size(); ++i) {
      if (ws_[i].name == ws_[w].serial_twin) return i;
    }
    return w;
  }

  std::vector<double> RepValues(size_t w, const char* key) const {
    std::vector<double> v;
    for (const Json& j : reps_[w]) v.push_back(j.Num(key));
    return v;
  }

  /// Checks, prints and serializes workload `w`.
  std::string Report(size_t w) {
    const Workload& wl = ws_[w];
    const std::string& name = wl.name;
    const Json& first = reps_[w][0];
    const Json& trace = traces_[w];

    // --- output checks ---
    const std::vector<std::string> heads = Strings(first.Get("heads"));
    for (size_t r = 0; r < reps_[w].size(); ++r) {
      for (const std::string& f : Strings(reps_[w][r].Get("failures"))) {
        Fail(name + " rep " + std::to_string(r + 1) + ": " + f);
      }
      if (Strings(reps_[w][r].Get("heads")) != heads) {
        Fail(name + ": audit heads differ between rep 1 and rep " +
             std::to_string(r + 1));
      }
    }
    for (const std::string& f : Strings(trace.Get("failures"))) {
      Fail(name + " traced rep: " + f);
    }
    for (const std::string& f : Strings(knees_[w].Get("failures"))) {
      Fail(name + " knee probe: " + f);
    }
    if (Strings(trace.Get("heads")) !=
        Strings(reps_[ReferenceIndex(w)][0].Get("heads"))) {
      Fail(name + ": traced rep's audit heads differ from the untraced run");
    }
    const Json* slo = first.Get("slo_ok");
    if (slo == nullptr || !slo->boolean) {
      Fail(name + ": the operating point misses its own SLO");
    }
    if (first.Num("samples") < 1000) {
      Fail(name + ": fewer than 1000 latency samples for p99");
    }
    const double untraced_mean = first.Num("mean_ms");
    const double phase_sum = trace.Num("phase_sum_ms");
    const double phase_err =
        untraced_mean > 0 ? std::fabs(phase_sum - untraced_mean) / untraced_mean
                          : 1;
    if (wl.knee && phase_err > 0.01) {
      Fail(name + ": phase means sum to " + std::to_string(phase_sum) +
           " ms, the untraced mean latency is " +
           std::to_string(untraced_mean) + " ms");
    }

    // --- end-to-end metrics ---
    std::vector<MetricRow> rows;
    // Simulated metrics repeat exactly between reps of one seed;
    // wall-clock ones are the median of the reps.
    auto add = [&](const char* metric, std::vector<double> reps, bool wall) {
      MetricRow row{FindMetric(metric), std::move(reps)};
      row.value = wall ? Median(row.reps) : row.reps.front();
      row.spread = Spread(row.reps, row.def->absolute);
      if (!wall && row.spread != 0) {
        Fail(name + ": simulated " + metric +
             " differs between reps of one seed");
      }
      rows.push_back(std::move(row));
    };
    for (const char* m : {"goodput_tps", "p50_ms", "p99_ms", "failed_frac"}) {
      add(m, RepValues(w, m), false);
    }
    if (wl.knee) add("knee_tps", {knees_[w].Num("knee_tps")}, false);
    if (!wl.faults.empty()) add("outage_s", RepValues(w, "outage_s"), false);
    add("cents_per_ktxn", RepValues(w, "cents_per_ktxn"), false);
    for (const char* m : {"engine_tps", "setup_s", "peak_rss_mb"}) {
      add(m, RepValues(w, m), true);
    }

    // --- per-layer metrics ---
    std::map<std::string, double> layer;
    if (const Json* l = trace.Get("layer")) {
      for (const auto& [k, v] : l->fields) layer[k] = v.number;
    }
    const double untraced_wall = Median(RepValues(
        ReferenceIndex(w), "run_wall_s"));
    layer["sim.ns_per_event"] = Median(RepValues(w, "ns_per_event"));
    layer["trace.overhead_frac"] =
        untraced_wall > 0 ? trace.Num("run_wall_s") / untraced_wall - 1 : 0;
    if (!wl.serial_twin.empty()) {
      std::vector<double> speedups;
      const auto serial = RepValues(ReferenceIndex(w), "run_wall_s");
      const auto parallel = RepValues(w, "run_wall_s");
      for (size_t r = 0; r < std::min(serial.size(), parallel.size()); ++r) {
        if (parallel[r] > 0) speedups.push_back(serial[r] / parallel[r]);
      }
      layer["sim.parallel_speedup"] = Median(speedups);
      layer["sim.parallel_rounds_per_sim_ms"] =
          first.Num("parallel_rounds_per_sim_ms");
      layer["sim.cross_loop_msgs_per_txn"] =
          first.Num("cross_loop_msgs_per_txn");
    }

    Print(w, rows, layer, phase_sum, untraced_mean, phase_err);

    std::string metrics = "{";
    for (size_t i = 0; i < rows.size(); ++i) {
      const MetricRow& row = rows[i];
      metrics += (i == 0 ? "" : ", ") + JsonString(row.def->name) + ": " +
                 Obj()
                     .Num("value", row.value)
                     .Str("unit", row.def->unit)
                     .Str("better", row.def->higher_better ? "higher" : "lower")
                     .Num("bound", row.def->bound)
                     .Bool("absolute", row.def->absolute)
                     .Num("floor", row.def->floor)
                     .Num("spread", row.spread)
                     .Raw("reps", NumArray(row.reps))
                     .Done();
    }
    metrics += "}";
    const Json* phases = trace.Get("phases");
    std::string phases_text = "[";
    if (phases != nullptr) {
      for (size_t i = 0; i < phases->items.size(); ++i) {
        const Json& p = phases->items[i];
        phases_text += (i == 0 ? "" : ", ") +
                       Obj()
                           .Str("phase", p.Str("phase"))
                           .Num("mean_ms", p.Num("mean_ms"))
                           .Num("p50_ms", p.Num("p50_ms"))
                           .Num("p99_ms", p.Num("p99_ms"))
                           .Done();
      }
    }
    phases_text += "]";
    return Obj()
        .Str("name", name)
        .Str("why", wl.why)
        .Num("rate_tps", wl.rate_tps)
        .Num("wall_s", wall_[w])
        .Num("samples", first.Num("samples"))
        .Bool("knee_censored",
              knees_[w].Get("censored") != nullptr &&
                  knees_[w].Get("censored")->boolean)
        .Num("knee_probes", knees_[w].Num("probes"))
        .Raw("outages", NumArray(Numbers(first.Get("outages"))))
        .Raw("metrics", metrics)
        .Raw("per_layer", LayerJson(layer))
        .Raw("phases", phases_text)
        .Num("phase_sum_ms", phase_sum)
        .Num("traced", trace.Num("traced"))
        .Num("traced_cross", trace.Num("traced_cross"))
        .Num("incomplete", trace.Num("incomplete"))
        .Raw("heads", StrArray(heads))
        .Done();
  }

  void Print(size_t w, const std::vector<MetricRow>& rows,
             const std::map<std::string, double>& layer, double phase_sum,
             double untraced_mean, double phase_err) const {
    const Workload& wl = ws_[w];
    const Json& first = reps_[w][0];
    std::printf("\n== %s: %.0f t/s offered, %.1f s + %.1f s simulated, "
                "%.1f s wall ==\n   %s\n",
                wl.name.c_str(), wl.rate_tps, wl.warmup_s, wl.measure_s,
                wall_[w], wl.why.c_str());
    for (const MetricRow& row : rows) {
      char extra[96] = "";
      if (std::strcmp(row.def->name, "p99_ms") == 0) {
        std::snprintf(extra, sizeof(extra), "  n=%.0f", first.Num("samples"));
      } else if (std::strcmp(row.def->name, "knee_tps") == 0) {
        const Json* c = knees_[w].Get("censored");
        std::snprintf(extra, sizeof(extra), "  %s, %.0f probes",
                      c != nullptr && c->boolean ? "CENSORED at 2x"
                                                 : "2% resolution",
                      knees_[w].Num("probes"));
      } else if (row.reps.size() > 1) {
        std::snprintf(extra, sizeof(extra), "  spread %.1f%%",
                      100 * row.spread);
      }
      std::printf("  %-16s %14.6g %-10s%s\n", row.def->name, row.value,
                  row.def->unit, extra);
    }
    std::printf("  per layer:\n");
    for (const LayerDef& def : LayerMetrics()) {
      const auto it = layer.find(def.name);
      if (it == layer.end()) continue;
      std::printf("    %-34s %12.4g %s\n", def.name, it->second, def.unit);
    }
    const Json& trace = traces_[w];
    const Json* phases = trace.Get("phases");
    if (phases == nullptr) return;
    std::printf("  phases (traced serial rep: %.0f txns, %.0f cross-shard, "
                "%.0f with a missing stamp):\n",
                trace.Num("traced"), trace.Num("traced_cross"),
                trace.Num("incomplete"));
    std::printf("    %-14s %9s %9s %9s %7s\n", "phase", "mean_ms", "p50_ms",
                "p99_ms", "share");
    for (const Json& p : phases->items) {
      std::printf("    %-14s %9.3f %9.3f %9.3f %6.1f%%\n",
                  p.Str("phase").c_str(), p.Num("mean_ms"), p.Num("p50_ms"),
                  p.Num("p99_ms"),
                  phase_sum > 0 ? 100 * p.Num("mean_ms") / phase_sum : 0);
    }
    std::printf("    %-14s %9.3f  vs untraced mean %.3f ms (%.3f%% apart)\n",
                "sum", phase_sum, untraced_mean, 100 * phase_err);
  }

  uint64_t seed_;
  const std::vector<Workload>& ws_;
  std::vector<std::vector<Json>> reps_;
  std::vector<Json> traces_;
  std::vector<Json> knees_;
  std::vector<double> wall_;
  Json micro_;
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// One workload for a fixed wall budget (the BENCHMARK.json entry point)
// ---------------------------------------------------------------------------

/// Replicas one `--workload` run simulates: as many as `seconds` of wall
/// time holds at the workload's typical rep cost, at least 3. A pure function
/// of its inputs, so two hosts of different speed simulate the same
/// replicas.
int Replicas(const Workload& w, double seconds) {
  return std::max(3, static_cast<int>(seconds / w.rep_wall_s));
}

/// Seed of replica `i`: replica 0 is `seed` itself.
uint64_t ReplicaSeed(uint64_t seed, int i) {
  if (i == 0) return seed;
  uint64_t x = seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(i);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

int RunOneWorkload(const Workload& w, uint64_t seed, double seconds, bool trace) {
  // BENCHMARK.json names the metrics to report, so the two cannot drift.
  Json bench;
  if (!ReadJsonFile("BENCHMARK.json", &bench)) {
    std::fprintf(stderr, "cannot read BENCHMARK.json in the working "
                         "directory\n");
    return 2;
  }
  const Json* wanted = bench.Get(trace ? "per_layer" : "end_to_end");
  if (wanted == nullptr) return 2;

  const double t0 = WallNow();
  std::map<std::string, double> values;
  std::vector<std::string> failures;
  double attempted = 0;
  double failed = 0;
  auto keep = [&](const RepResult& r) {
    for (const std::string& f : r.failures) failures.push_back(f);
  };
  if (!trace) {
    // A fixed number of independent replicas (seeds derived from --seed)
    // per run, sized by --seconds; every simulated metric is the median
    // over them, so one seed's rare stall cannot swing the run.
    const int replicas = Replicas(w, seconds);
    std::vector<RepResult> reps;
    std::vector<double> setups;
    for (int i = 0; i < replicas; ++i) {
      reps.push_back(RunRep(w, ReplicaSeed(seed, i), RepOptions()));
      keep(reps.back());
      setups.push_back(reps.back().setup_s);
      attempted += reps.back().offered;
      failed += reps.back().dropped;
    }
    const RepResult again = RunRep(w, seed, RepOptions());
    keep(again);
    setups.push_back(again.setup_s);
    if (again.heads != reps[0].heads) {
      failures.push_back("audit heads differ between two runs of one seed");
    }
    auto median = [&reps](double RepResult::*field) {
      std::vector<double> v;
      for (const RepResult& r : reps) v.push_back(r.*field);
      return Median(v);
    };
    values = {{"goodput_tps", median(&RepResult::goodput_tps)},
              {"p50_ms", median(&RepResult::p50_ms)},
              {"p99_ms", median(&RepResult::p99_ms)},
              {"failed_frac", median(&RepResult::failed_frac)},
              {"cents_per_ktxn", median(&RepResult::cents_per_ktxn)},
              {"engine_tps", median(&RepResult::engine_tps)},
              {"setup_s", Median(setups)},
              {"peak_rss_mb", median(&RepResult::peak_rss_mb)}};
    if (!w.faults.empty()) values["outage_s"] = median(&RepResult::outage_s);
    std::printf("%d replicas of %s from seed %llu\n", replicas,
                w.name.c_str(), static_cast<unsigned long long>(seed));
  } else {
    values = RunMicro(seed);
    RepOptions traced_opt;
    traced_opt.phases = true;
    traced_opt.serial = true;
    const RepResult traced = RunRep(w, seed, traced_opt);
    keep(traced);
    RepOptions serial_opt;
    serial_opt.serial = true;
    std::vector<double> walls, ns_per_event;
    RepResult plain;
    while (walls.size() < 2 || (WallNow() - t0 < seconds && walls.size() < 50)) {
      plain = RunRep(w, seed, serial_opt);
      keep(plain);
      if (plain.heads != traced.heads) {
        failures.push_back("traced rep's audit heads differ from untraced");
      }
      walls.push_back(plain.run_wall_s);
      ns_per_event.push_back(plain.ns_per_event);
    }
    for (const auto& [k, v] : traced.layer) values[k] = v;
    values["trace.overhead_frac"] = traced.run_wall_s / Median(walls) - 1;
    if (!w.serial_twin.empty()) {
      std::vector<double> parallel;
      for (int i = 0; i < 2; ++i) {
        const RepResult p = RunRep(w, seed, RepOptions());
        keep(p);
        parallel.push_back(p.run_wall_s);
        ns_per_event.push_back(p.ns_per_event);
        values["sim.parallel_rounds_per_sim_ms"] =
            p.window[kParallelRounds] / (p.measure_s * 1e3);
        values["sim.cross_loop_msgs_per_txn"] =
            p.committed > 0 ? p.window[kCrossLoopMsgs] / p.committed : 0;
      }
      values["sim.parallel_speedup"] = Median(walls) / Median(parallel);
    }
    values["sim.ns_per_event"] = Median(ns_per_event);
    double phase_sum = 0;
    for (double m : traced.phase_mean_ms) phase_sum += m;
    if (w.knee && std::fabs(phase_sum - plain.mean_ms) > 0.01 * plain.mean_ms) {
      failures.push_back("phase means do not sum to the mean latency");
    }
    attempted = traced.offered;
    failed = traced.dropped;
  }

  for (const auto& [name, value] : values) {
    const MetricDef* e = FindMetric(name);
    const LayerDef* l = FindLayer(name);
    std::printf("%-34s %14.6g %s\n", name.c_str(), value,
                e != nullptr ? e->unit : l != nullptr ? l->unit : "");
  }
  for (const std::string& f : failures) std::printf("FAIL %s\n", f.c_str());

  Obj metrics;
  for (const Json& m : wanted->items) {
    const std::string name = m.Str("name");
    const auto it = values.find(name);
    if (it == values.end()) {
      failures.push_back("metric " + name + " not measured");
      continue;
    }
    metrics.Raw(name, Obj()
                          .Num("value", it->second)
                          .Str("unit", m.Str("unit"))
                          .Done());
  }
  std::printf("%s\n", Obj()
                          .Bool("correct", failures.empty())
                          .Num("attempted", std::max(attempted, 1.0))
                          .Num("failed", failed)
                          .Raw("metrics", metrics.Done())
                          .Done()
                          .c_str());
  return failures.empty() ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e [--seed N] [--json FILE]\n"
               "       bench_e2e --workload W --seed N --seconds S "
               "--trace 0|1\n"
               "       bench_e2e --compare A.json B.json\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, child, json_path;
  std::vector<std::string> compare;
  uint64_t seed = 2023;
  double seconds = 10;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--json" && has_value) {
      json_path = argv[++i];
    } else if (arg == "--child" && has_value) {
      child = argv[++i];
    } else if (arg == "--compare" && i + 2 < argc) {
      compare = {argv[i + 1], argv[i + 2]};
      i += 2;
    } else {
      return Usage();
    }
  }
  if (!compare.empty()) return Compare(compare[0], compare[1]);
  const Workload* w = workload.empty() ? nullptr : FindWorkload(workload);
  if (!workload.empty() && w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", workload.c_str());
    return 2;
  }
  if (!child.empty()) return RunChildMode(child, w, seed);
  if (w != nullptr) {
    if (trace != 0 && trace != 1) return Usage();
    return RunOneWorkload(*w, seed, seconds, trace == 1);
  }
  return Suite(seed).Run(json_path);
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
