// Transactional-conflict behaviour (paper §VI): unknown read-write sets
// with verifier aborts, and §VI-C best-effort conflict avoidance.

#include <gtest/gtest.h>

#include "core/serverless_bft.h"

#include "log_trail.h"

namespace sbft::core {
namespace {

SystemConfig ConflictConfig(double conflict_pct, bool rw_known) {
  SystemConfig config;
  config.shim.n = 4;
  config.shim.batch_size = 4;
  config.f_e = 1;
  config.num_clients = 16;
  config.workload.record_count = 2000;
  config.workload.conflict_percentage = conflict_pct;
  config.workload.hot_keys = 2;
  config.workload.rw_sets_known = rw_known;
  config.conflicts_possible = !rw_known;
  config.n_e = rw_known ? 3 : 4;  // 3f_E+1 under unknown rw (§VI-B).
  config.crypto_mode = crypto::CryptoMode::kFast;
  config.seed = 77;
  return config;
}

TEST(ConflictsTest, NoConflictsNoAborts) {
  // A large key space makes accidental overlaps between concurrent
  // batches negligible; only engineered conflicts should abort.
  SystemConfig config = ConflictConfig(0, /*rw_known=*/false);
  config.workload.record_count = 100000;
  RunReport report = RunExperiment(config, Seconds(0.5), Seconds(1.5));
  EXPECT_GT(report.completed_txns, 50u);
  EXPECT_LT(report.abort_rate, 0.02);
}

TEST(ConflictsTest, UnknownRwSetsSpawnThreeFePlusOne) {
  SystemConfig config = ConflictConfig(20, /*rw_known=*/false);
  EXPECT_EQ(config.EffectiveExecutors(), 4u);  // 3*1 + 1.
  Architecture arch(config);
  arch.Start();
  arch.simulator()->RunUntil(Seconds(2));
  EXPECT_EQ(arch.spawner()->executors_spawned(),
            arch.spawner()->batches_spawned() * 4);
}

TEST(ConflictsTest, ConflictingTransactionsAbortUnderUnknownRw) {
  RunReport report =
      RunExperiment(ConflictConfig(50, /*rw_known=*/false), Seconds(0.5),
                    Seconds(2.0));
  EXPECT_GT(report.completed_txns, 0u);
  // Concurrent spawning + hot keys => stale reads => aborts (Fig. 6(xi)).
  EXPECT_GT(report.aborted_txns, 0u);
}

TEST(ConflictsTest, AbortRateGrowsWithConflictPercentage) {
  RunReport low = RunExperiment(ConflictConfig(10, false), Seconds(0.5),
                                Seconds(2.0));
  RunReport high = RunExperiment(ConflictConfig(50, false), Seconds(0.5),
                                 Seconds(2.0));
  EXPECT_GT(high.abort_rate, low.abort_rate);
}

TEST(ConflictsTest, ThroughputDropsWithConflicts) {
  RunReport none = RunExperiment(ConflictConfig(0, false), Seconds(0.5),
                                 Seconds(2.0));
  RunReport heavy = RunExperiment(ConflictConfig(50, false), Seconds(0.5),
                                  Seconds(2.0));
  // Paper Fig. 6(xi): goodput decreases as conflicts rise.
  EXPECT_LT(heavy.throughput_tps, none.throughput_tps);
}

TEST(ConflictsTest, ConflictAvoidanceReducesAborts) {
  // §VI-C: with known rw sets the primary serializes conflicting batches
  // behind logical locks, trading latency for aborts.
  SystemConfig with_locks = ConflictConfig(40, /*rw_known=*/true);
  with_locks.conflict_avoidance = true;
  with_locks.conflicts_possible = true;  // Verifier still validates.
  SystemConfig without_locks = ConflictConfig(40, /*rw_known=*/false);

  RunReport locked =
      RunExperiment(with_locks, Seconds(0.5), Seconds(2.0));
  RunReport unlocked =
      RunExperiment(without_locks, Seconds(0.5), Seconds(2.0));
  EXPECT_LT(locked.abort_rate, unlocked.abort_rate + 1e-9);
  EXPECT_GT(locked.completed_txns, 0u);
}

TEST(ConflictsTest, ConflictAvoidanceQueuesConflictingBatches) {
  SystemConfig config = ConflictConfig(80, /*rw_known=*/true);
  config.conflict_avoidance = true;
  Architecture arch(config);
  arch.Start();
  arch.simulator()->RunUntil(Seconds(2));
  EXPECT_GT(arch.spawner()->batches_queued_on_conflict(), 0u);
  EXPECT_GT(arch.TotalCompleted(), 0u);
}

TEST(ConflictsTest, ConflictAvoidanceKeepsCommittingOnCrashFaultShims) {
  // A batch's §VI-C locks go when the verifier's RESPONSE reaches the
  // spawner. The crash-fault shim (CFT, and no shim, its group of one)
  // must deliver it too: otherwise the first batches keep their locks and
  // every later batch that touches a hot key queues behind them for good.
  for (Protocol protocol : {Protocol::kServerlessCft, Protocol::kNoShim}) {
    SystemConfig config = ConflictConfig(30, /*rw_known=*/true);
    config.protocol = protocol;
    config.conflict_avoidance = true;
    config.shim.batch_size = 10;
    config.num_clients = 200;
    config.workload.hot_keys = 4;
    Architecture arch(config);
    arch.Start();
    arch.simulator()->RunUntil(Seconds(2));
    const uint64_t at_two_seconds = arch.TotalCompleted();
    arch.simulator()->RunUntil(Seconds(3));
    const char* name =
        protocol == Protocol::kNoShim ? "no shim" : "ServerlessCFT";
    EXPECT_GT(at_two_seconds, 200u) << name;
    EXPECT_GT(arch.TotalCompleted(), at_two_seconds + 100) << name;
  }
}

TEST(ConflictsTest, AbortedTransactionsStillAdvanceKmax) {
  SystemConfig config = ConflictConfig(60, /*rw_known=*/false);
  Architecture arch(config);
  LogTrail trail(arch);
  arch.Start();
  arch.simulator()->RunUntil(Seconds(3));
  // k_max never stalls behind aborted sequences: the audit log's history
  // holds one entry per settled sequence with no gaps at the front.
  const LogTrail::Entries& entries = trail.audit[0];
  ASSERT_EQ(entries.size(), arch.verifier()->audit_log().size());
  ASSERT_GT(entries.size(), 0u);
  EXPECT_EQ(entries.front().seq, 1u);
  for (size_t i = 1; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].seq, entries[i - 1].seq + 1);
  }
}

}  // namespace
}  // namespace sbft::core
