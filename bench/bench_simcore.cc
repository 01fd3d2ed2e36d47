// Wall-clock microbenchmarks for the simulator core and the message
// pipeline, plus the CI regression gate.
//
//   ./build/bench/bench_simcore                         # full run
//   ./build/bench/bench_simcore --quick                 # CI smoke scale
//   ./build/bench/bench_simcore --json out.json         # emit report
//   ./build/bench/bench_simcore --baseline bench/ci_baseline.json
//       --max-regress 0.2                               # gate mode
//
// Gate mode compares every `"gate": true` benchmark in the baseline file
// against the measured throughput and exits non-zero when any of them
// regresses by more than --max-regress (default 20%).

#include <cstring>
#include <ctime>

#include "bench/simcore_bench.h"

int main(int argc, char** argv) {
  using namespace sbft::bench;

  SimcoreBenchOptions opt;
  std::string json_path;
  std::string baseline_path;
  std::string label = "manual";
  double max_regress = 0.2;
  double abort_ceiling = -1.0;
  double min_speedup = -1.0;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--quick") {
      opt.scale = 0.15;
      opt.reps = 2;
    } else if (arg == "--scale") {
      const char* v = next();
      if (v == nullptr) return 2;
      opt.scale = std::strtod(v, nullptr);
    } else if (arg == "--reps") {
      const char* v = next();
      if (v == nullptr) return 2;
      opt.reps = std::atoi(v);
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return 2;
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return 2;
      opt.threads = std::atoi(v);
    } else if (arg == "--bench") {
      const char* v = next();
      if (v == nullptr) return 2;
      opt.filter = v;
    } else if (arg == "--json") {
      const char* v = next();
      if (v == nullptr) return 2;
      json_path = v;
    } else if (arg == "--label") {
      const char* v = next();
      if (v == nullptr) return 2;
      label = v;
    } else if (arg == "--baseline") {
      const char* v = next();
      if (v == nullptr) return 2;
      baseline_path = v;
    } else if (arg == "--max-regress") {
      const char* v = next();
      if (v == nullptr) return 2;
      max_regress = std::strtod(v, nullptr);
    } else if (arg == "--abort-ceiling") {
      const char* v = next();
      if (v == nullptr) return 2;
      abort_ceiling = std::strtod(v, nullptr);
    } else if (arg == "--min-speedup") {
      const char* v = next();
      if (v == nullptr) return 2;
      min_speedup = std::strtod(v, nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: bench_simcore [--quick] [--scale S] [--reps N] "
                   "[--seed N] [--threads N] [--bench SUBSTR] [--json FILE] "
                   "[--label L] [--baseline FILE] [--max-regress F] "
                   "[--abort-ceiling F] [--min-speedup F]\n");
      return 2;
    }
  }

  std::vector<SimcoreBenchResult> results = RunSimcoreSuite(opt);

  // The JSON report is written before any gate can fail, so CI always
  // has the artifact to debug a red run from; both gates then run to
  // completion so one failure cannot mask the other.
  if (!json_path.empty()) {
    char date[32];
    std::time_t now = std::time(nullptr);
    std::strftime(date, sizeof(date), "%Y-%m-%d", std::localtime(&now));
    if (!WriteSimcoreJson(json_path, date, label, opt, results)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }

  bool ok = true;

  if (abort_ceiling >= 0) {
    // Cross-shard contention gate: the unified commit path's queueing
    // must keep the abort rate under the ceiling AND strictly beat the
    // abort-on-lock baseline. Simulated-time, deterministic — a failure
    // is a lock-queueing regression, not noise.
    CrossShardAbortCheck check = RunCrossShardAbortCheck(opt.seed);
    bool under_ceiling = check.queue_on_rate <= abort_ceiling;
    bool beats_baseline = check.queue_on_rate < check.queue_off_rate;
    std::printf(
        "\ncross-shard abort gate (30%% conflict x 50%% cross-shard): "
        "queue-on=%.1f%% queue-off=%.1f%% ceiling=%.1f%% %s\n",
        check.queue_on_rate * 100.0, check.queue_off_rate * 100.0,
        abort_ceiling * 100.0,
        under_ceiling && beats_baseline ? "ok" : "FAILED");
    ok = ok && under_ceiling && beats_baseline;
  }

  if (min_speedup >= 0) {
    // Parallel-engine sanity gate: the measured parallel-vs-serial
    // wall-clock ratio on the 8-plane workload must clear the floor.
    // CI runs this with --threads 2 and a modest 1.0x floor — the
    // engine must at least not *lose* to the serial scheduler when it
    // has a second worker; anything lower means the conservative
    // windows stopped overlapping plane execution.
    const SimcoreBenchResult* speedup = nullptr;
    for (const SimcoreBenchResult& r : results) {
      if (r.name == "parallel_speedup_8s") speedup = &r;
    }
    if (speedup == nullptr) {
      std::printf("\nparallel speedup gate: parallel_speedup_8s did not run "
                  "(filtered out?) FAILED\n");
      ok = false;
    } else {
      bool pass = speedup->throughput >= min_speedup;
      std::printf("\nparallel speedup gate (threads=%d): %.2fx >= %.2fx %s\n",
                  ResolveBenchThreads(opt.threads), speedup->throughput,
                  min_speedup, pass ? "ok" : "FAILED");
      ok = ok && pass;
    }
  }

  if (!baseline_path.empty()) {
    std::vector<SimcoreBaselineEntry> baseline =
        ReadSimcoreBaseline(baseline_path);
    if (baseline.empty()) {
      std::fprintf(stderr, "no baseline entries in %s\n",
                   baseline_path.c_str());
      return 1;
    }
    std::printf("\nregression gate vs %s (max regress %.0f%%):\n",
                baseline_path.c_str(), max_regress * 100.0);
    for (const SimcoreBaselineEntry& b : baseline) {
      if (!b.gate) continue;
      if (b.throughput <= 0) {
        std::printf("  %-18s MALFORMED baseline entry (no throughput)\n",
                    b.name.c_str());
        ok = false;
        continue;
      }
      const SimcoreBenchResult* measured = nullptr;
      for (const SimcoreBenchResult& r : results) {
        if (r.name == b.name) measured = &r;
      }
      if (measured == nullptr) {
        std::printf("  %-18s MISSING from this run\n", b.name.c_str());
        ok = false;
        continue;
      }
      double ratio = measured->throughput / b.throughput;
      bool pass = ratio >= 1.0 - max_regress;
      std::printf("  %-18s measured=%-12.0f baseline=%-12.0f ratio=%.2f %s\n",
                  b.name.c_str(), measured->throughput, b.throughput, ratio,
                  pass ? "ok" : "REGRESSED");
      ok = ok && pass;
    }
  }

  if (baseline_path.empty() && abort_ceiling < 0 && min_speedup < 0) return 0;
  if (!ok) {
    std::printf("gate: FAILED\n");
    return 1;
  }
  std::printf("gate: passed\n");
  return 0;
}
