// Cross-shard contention sweep (beyond the paper): abort rate over the
// conflict_percentage × cross_shard_percentage grid, abort-on-lock
// baseline versus the unified commit path's bounded prepare-lock
// queueing (ISSUE-5 acceptance experiment). A contended keyspace makes
// in-flight 2PC prepare locks visible to plain transactions; queueing
// behind the lock turns most of those forced aborts into slightly-late
// commits.

#include "bench_util.h"

namespace {

sbft::core::SystemConfig SweepConfig(double conflict_pct, double cross_pct,
                                     uint32_t queue_depth) {
  using namespace sbft;
  core::SystemConfig config = bench::BaseConfig();
  config.shard_count = 2;
  config.shim.n = 4;
  config.shim.batch_size = 50;
  config.num_clients = 1000;
  // Contended keyspace: small enough that cross-shard prepare locks
  // collide with concurrent transactions at measurable rates.
  config.workload.record_count = 2000;
  config.workload.conflict_percentage = conflict_pct;
  config.workload.hot_keys = 8;
  config.workload.cross_shard_percentage = cross_pct;
  config.conflicts_possible = true;
  config.n_e = 4;  // 3f_E + 1 (§VI-B).
  config.verifier_match_timeout = Millis(400);
  config.prepare_lock_queue_depth = queue_depth;
  return config;
}

}  // namespace

int main() {
  using namespace sbft;
  bench::Banner(
      "Cross-shard contention sweep",
      "does queueing behind prepare locks cut the abort rate?",
      "beyond the paper: abort-on-lock inflates aborts exactly where "
      "§VI-C conflict handling should shine; bounded FIFO queueing "
      "(depth 8) recovers most of them at conflict >= 30% x cross-shard "
      ">= 25%");

  const double conflict_pcts[] = {0, 10, 30, 50};

  for (double cross_pct : {25.0, 50.0}) {
    std::printf("\n--- %.0f%% cross-shard ---\n", cross_pct);
    std::printf("%-12s %16s %16s %16s %16s\n", "conflict-%",
                "abort%(no-queue)", "abort%(queue-8)", "tput(no-queue)",
                "tput(queue-8)");
    for (double conflict_pct : conflict_pcts) {
      core::RunReport baseline =
          bench::Run(SweepConfig(conflict_pct, cross_pct, 0), 0.5, 1.2);
      core::RunReport queued =
          bench::Run(SweepConfig(conflict_pct, cross_pct, 8), 0.5, 1.2);
      std::printf("%-12.0f %16.2f %16.2f %16.0f %16.0f\n", conflict_pct,
                  baseline.abort_rate * 100.0, queued.abort_rate * 100.0,
                  baseline.throughput_tps, queued.throughput_tps);
      std::fflush(stdout);
    }
  }
  return 0;
}
