// Figure 13 (beyond the paper): the 8-plane deployment under open-loop
// load, run on the parallel engine (per-ShardPlane event loops with
// conservative lookahead, DESIGN.md §11). Three questions:
//
//  1. Where is the *coordinator* knee? With eight planes the per-plane
//     consensus pipelines stop being the bottleneck; the cross-shard
//     fraction funnels through the coordinator group, whose 2PC-over-BFT
//     round trips cap goodput well before the planes saturate. The sweep
//     brackets that knee the same way Figure 11 brackets the single-plane
//     one.
//  2. Does gid partitioning (DESIGN.md §12) push the knee out? With
//     --coord-groups 1,2,4 the same sweep repeats per group count: every
//     group's leader serves its slice of the gid space on its own modeled
//     CPU, so the knee should scale with G until the planes saturate.
//  3. What does parallelism buy in wall clock? Every sweep point is also
//     timed, and the knee point is re-run serially (sim_threads=0) for a
//     direct parallel-vs-serial ratio. Simulated-time results are
//     identical either way — the engine is deterministic across thread
//     counts — so the ratio is pure engine speed.
//
//   ./build/bench/bench_fig13_parallel_scale              # hw threads
//   ./build/bench/bench_fig13_parallel_scale --threads 4
//   ./build/bench/bench_fig13_parallel_scale
//       --coord-groups 1,2,4 --cross 33 --json BENCH_fig13.json

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"

namespace {

double WallSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

sbft::core::SystemConfig EightPlaneConfig(double offered_tps, int threads,
                                          uint32_t coord_groups,
                                          double cross_pct) {
  using namespace sbft;
  // The Figure 11 deployment family scaled out to 8 planes with a third
  // of the transactions cross-shard. The plane pipelines get headroom
  // (batch 4 doubles per-plane ordering capacity over the fig11 config)
  // while the coordination tier is modeled as small 2-core machines —
  // so the coordinator CPU (DS verify + sign per cross-shard request,
  // ~170us), not plane consensus, binds the knee at G=1, and
  // partitioning the gid space across G groups multiplies exactly the
  // binding resource.
  core::SystemConfig config;
  config.shard_count = 8;
  config.shim.n = 4;
  config.shim.batch_size = 4;
  config.shim.checkpoint_interval = 8;
  config.n_e = 3;
  config.f_e = 1;
  config.workload.record_count = 8000;
  config.workload.cross_shard_percentage = cross_pct;
  config.coordinator_groups = coord_groups;
  config.coordinator_cores = 2;
  config.crypto_mode = crypto::CryptoMode::kFast;
  config.seed = 2023;
  config.sim_threads = threads;
  config.traffic.open_loop = true;
  config.traffic.sources = 4;
  config.traffic.offered_tps = offered_tps;
  config.traffic.retry_timeout = Millis(400);
  config.traffic.retry_inflight_cap = 32;
  config.traffic.max_inflight = 4000;
  return config;
}

struct KneeResult {
  uint32_t coord_groups = 1;
  double knee_rate = 0;     ///< Last offered rate absorbed (>= 90%).
  double knee_goodput = 0;  ///< Goodput at that rate.
  double imbalance = 0;     ///< max/mean group decisions at the knee.
  double wall_s = 0;        ///< Wall clock of the knee point.
};

}  // namespace

int main(int argc, char** argv) {
  using namespace sbft;

  int threads = 0;
  double cross_pct = 33.0;
  std::vector<uint32_t> group_counts = {1};
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--cross") == 0 && i + 1 < argc) {
      cross_pct = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--coord-groups") == 0 && i + 1 < argc) {
      group_counts.clear();
      for (const char* p = argv[++i]; *p != '\0';) {
        char* end = nullptr;
        long g = std::strtol(p, &end, 10);
        if (end == p || g < 1 || g > 64) {
          std::fprintf(stderr, "bad --coord-groups list\n");
          return 2;
        }
        group_counts.push_back(static_cast<uint32_t>(g));
        p = *end == ',' ? end + 1 : end;
      }
      if (group_counts.empty()) return 2;
    } else {
      std::fprintf(stderr,
                   "usage: bench_fig13_parallel_scale [--threads N] "
                   "[--coord-groups G1,G2,...] [--cross PCT] "
                   "[--json FILE]\n");
      return 2;
    }
  }
  if (threads <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : static_cast<int>(hw);
  }

  bench::Banner(
      "Figure 13", "8-plane open-loop saturation on the parallel engine",
      "per-plane pipelines scale out with the planes, so goodput tracks "
      "offered load until the cross-shard fraction saturates the "
      "coordinator group; the knee is a coordinator property, not a "
      "plane property — and gid partitioning moves it");
  std::printf("\nengine: %d worker threads over 9 loops "
              "(8 planes + global), hardware_concurrency=%u\n",
              threads, std::thread::hardware_concurrency());

  const double rates[] = {4000,  8000,  16000, 24000, 32000,
                          48000, 64000, 72000, 96000, 128000};
  std::vector<KneeResult> knees;
  for (uint32_t groups : group_counts) {
    std::printf("\n--- open-loop sweep (Poisson arrivals, 4 sources, "
                "%.0f%% cross-shard, coordinator_groups=%u) ---\n",
                cross_pct, groups);
    std::printf("%-14s %12s %12s %12s %10s %10s %8s %10s\n", "offered(t/s)",
                "goodput(t/s)", "p50(ms)", "p99(ms)", "drops", "retrans",
                "imbal", "wall(s)");
    KneeResult knee;
    knee.coord_groups = groups;
    knee.knee_rate = rates[0];
    for (double rate : rates) {
      double t0 = WallSeconds();
      core::RunReport r = core::RunExperiment(
          EightPlaneConfig(rate, threads, groups, cross_pct), Seconds(0.5),
          Seconds(2.0));
      double wall = WallSeconds() - t0;
      std::printf("%-14.0f %12.0f %12.1f %12.1f %10llu %10llu %8.2f "
                  "%10.2f\n",
                  r.offered_tps, r.throughput_tps, r.latency_p50_s * 1e3,
                  r.latency_p99_s * 1e3,
                  static_cast<unsigned long long>(r.dropped_txns),
                  static_cast<unsigned long long>(r.client_retransmissions),
                  r.coord_group_imbalance, wall);
      std::fflush(stdout);
      // The knee: the last rate the system still substantially absorbs.
      if (r.throughput_tps >= 0.9 * rate) {
        knee.knee_rate = rate;
        knee.knee_goodput = r.throughput_tps;
        knee.imbalance = r.coord_group_imbalance;
        knee.wall_s = wall;
      }
    }
    std::printf("coordinator knee at G=%u: ~%.0f offered t/s "
                "(goodput %.0f t/s, group imbalance %.2f)\n",
                groups, knee.knee_rate, knee.knee_goodput, knee.imbalance);
    knees.push_back(knee);
  }

  if (knees.size() > 1) {
    std::printf("\n--- knee vs coordinator groups (%.0f%% cross-shard) ---\n",
                cross_pct);
    for (const KneeResult& k : knees) {
      std::printf("G=%-3u knee=%-8.0f goodput=%-8.0f (%.2fx the G=%u knee)\n",
                  k.coord_groups, k.knee_rate, k.knee_goodput,
                  knees[0].knee_rate > 0 ? k.knee_rate / knees[0].knee_rate
                                         : 0.0,
                  knees[0].coord_groups);
    }
  }

  // Parallel-vs-serial wall clock at the first configuration's knee.
  // Same seed, same simulated results (the audit digests match by
  // construction); only the engine changes.
  const KneeResult& first = knees[0];
  std::printf("\n--- engine wall clock at the G=%u knee point ---\n",
              first.coord_groups);
  double t0 = WallSeconds();
  core::RunReport serial = core::RunExperiment(
      EightPlaneConfig(first.knee_rate, /*threads=*/0, first.coord_groups,
                       cross_pct),
      Seconds(0.5), Seconds(2.0));
  double serial_wall = WallSeconds() - t0;
  t0 = WallSeconds();
  core::RunReport parallel = core::RunExperiment(
      EightPlaneConfig(first.knee_rate, threads, first.coord_groups,
                       cross_pct),
      Seconds(0.5), Seconds(2.0));
  double parallel_wall = WallSeconds() - t0;
  std::printf("serial   (sim_threads=0):  %7.2f s wall, %8.0f goodput t/s\n",
              serial_wall, serial.throughput_tps);
  std::printf("parallel (sim_threads=%d): %7.2f s wall, %8.0f goodput t/s\n",
              threads, parallel_wall, parallel.throughput_tps);
  std::printf("speedup: %.2fx\n",
              parallel_wall > 0 ? serial_wall / parallel_wall : 0.0);

  // Knee trajectory in the BENCH_*.json schema: one entry per group
  // count, throughput = the knee's offered rate (the quantity the §12
  // acceptance compares across G), ops = goodput there.
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   json_path.c_str());
      return 1;
    }
    char date[32];
    std::time_t now = std::time(nullptr);
    std::strftime(date, sizeof(date), "%Y-%m-%d", std::localtime(&now));
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"sbft-bench-simcore-v1\",\n");
    std::fprintf(f, "  \"date\": \"%s\",\n", date);
    std::fprintf(f, "  \"label\": \"fig13-coord-groups\",\n");
    std::fprintf(f, "  \"scale\": 1,\n");
    std::fprintf(f, "  \"reps\": 1,\n");
    std::fprintf(f, "  \"seed\": 2023,\n");
    std::fprintf(f, "  \"threads\": %d,\n", threads);
    std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"cross_shard_percentage\": %g,\n", cross_pct);
    std::fprintf(f, "  \"benchmarks\": [\n");
    for (size_t i = 0; i < knees.size(); ++i) {
      const KneeResult& k = knees[i];
      std::fprintf(f,
                   "    {\"name\": \"fig13_knee_g%u\", \"unit\": \"txn/s\", "
                   "\"throughput\": %.1f, \"ops\": %llu, "
                   "\"seconds\": %.4f, \"gate\": false}%s\n",
                   k.coord_groups, k.knee_rate,
                   static_cast<unsigned long long>(k.knee_goodput),
                   k.wall_s, i + 1 < knees.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
