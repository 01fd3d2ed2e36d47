#include <gtest/gtest.h>

#include "core/serverless_bft.h"

namespace sbft::core {
namespace {

SystemConfig SmallConfig() {
  SystemConfig config;
  config.shim.n = 4;
  config.shim.batch_size = 5;
  config.n_e = 3;
  config.f_e = 1;
  config.num_clients = 10;
  // Large key space: accidental read-write overlaps between concurrent
  // batches (which legitimately abort) are negligible.
  config.workload.record_count = 100000;
  config.crypto_mode = crypto::CryptoMode::kFast;
  config.seed = 9;
  return config;
}

TEST(EndToEndTest, HappyPathCommitsTransactions) {
  SystemConfig config = SmallConfig();
  Architecture arch(config);
  arch.Start();
  arch.simulator()->RunUntil(Seconds(2));

  EXPECT_GT(arch.TotalCompleted(), 50u);
  EXPECT_EQ(arch.TotalAborted(), 0u);
  EXPECT_EQ(arch.TotalViewChanges(), 0u);
  // Verifier applied batches in order with a verified audit chain.
  EXPECT_GT(arch.verifier()->applied_batches(), 0u);
  EXPECT_TRUE(arch.verifier()->audit_log().VerifyChain());
  // Writes actually landed in the store (the load phase writes nothing).
  EXPECT_GT(arch.store()->writes(), 50u);
}

TEST(EndToEndTest, ExecutorsSpawnedPerCommittedBatch) {
  SystemConfig config = SmallConfig();
  Architecture arch(config);
  arch.Start();
  arch.simulator()->RunUntil(Seconds(2));
  // Primary-only spawning: n_e executors per committed batch.
  EXPECT_EQ(arch.spawner()->executors_spawned(),
            arch.spawner()->batches_spawned() * config.n_e);
}

TEST(EndToEndTest, RunExperimentReportsConsistentNumbers) {
  RunReport report = RunExperiment(SmallConfig(), Seconds(0.5), Seconds(1.0));
  EXPECT_GT(report.completed_txns, 0u);
  EXPECT_NEAR(report.throughput_tps,
              static_cast<double>(report.completed_txns) / 1.0, 1.0);
  EXPECT_GT(report.latency_mean_s, 0.0);
  EXPECT_LE(report.latency_p50_s, report.latency_p99_s);
  EXPECT_GT(report.messages_sent, 0u);
  EXPECT_GT(report.cents_per_ktxn, 0.0);
}

TEST(EndToEndTest, DeterministicAcrossRuns) {
  RunReport a = RunExperiment(SmallConfig(), Seconds(0.3), Seconds(0.7));
  RunReport b = RunExperiment(SmallConfig(), Seconds(0.3), Seconds(0.7));
  EXPECT_EQ(a.completed_txns, b.completed_txns);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
}

TEST(EndToEndTest, DifferentSeedsDiffer) {
  SystemConfig c1 = SmallConfig();
  SystemConfig c2 = SmallConfig();
  c2.seed = 10;
  RunReport a = RunExperiment(c1, Seconds(0.3), Seconds(0.7));
  RunReport b = RunExperiment(c2, Seconds(0.3), Seconds(0.7));
  EXPECT_NE(a.messages_sent, b.messages_sent);
}

class ProtocolSweep : public ::testing::TestWithParam<Protocol> {};

TEST_P(ProtocolSweep, AllProtocolsMakeProgress) {
  SystemConfig config = SmallConfig();
  config.protocol = GetParam();
  RunReport report = RunExperiment(config, Seconds(0.5), Seconds(1.0));
  EXPECT_GT(report.completed_txns, 20u)
      << "protocol " << static_cast<int>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, ProtocolSweep,
    ::testing::Values(Protocol::kServerlessBft, Protocol::kServerlessCft,
                      Protocol::kPbftBaseline, Protocol::kNoShim,
                      Protocol::kServerlessBftLinear),
    [](const auto& info) {
      switch (info.param) {
        case Protocol::kServerlessBft:
          return "ServerlessBft";
        case Protocol::kServerlessCft:
          return "ServerlessCft";
        case Protocol::kPbftBaseline:
          return "PbftBaseline";
        case Protocol::kNoShim:
          return "NoShim";
        case Protocol::kServerlessBftLinear:
          return "ServerlessBftLinear";
      }
      return "Unknown";
    });

TEST(EndToEndTest, ByzantineExecutorsToleratedUpToFe) {
  SystemConfig config = SmallConfig();
  config.byzantine_executors = 1;  // f_E = 1 of 3 lies about results.
  config.byzantine_executor_behavior =
      serverless::ExecutorBehavior::kWrongResult;
  Architecture arch(config);
  arch.Start();
  arch.simulator()->RunUntil(Seconds(2));
  // The two honest executors still form the f_E+1 matching quorum.
  EXPECT_GT(arch.TotalCompleted(), 50u);
  EXPECT_TRUE(arch.verifier()->audit_log().VerifyChain());
}

TEST(EndToEndTest, SilentExecutorsToleratedUpToFe) {
  SystemConfig config = SmallConfig();
  config.byzantine_executors = 1;
  config.byzantine_executor_behavior = serverless::ExecutorBehavior::kSilent;
  Architecture arch(config);
  arch.Start();
  arch.simulator()->RunUntil(Seconds(2));
  EXPECT_GT(arch.TotalCompleted(), 50u);
}

TEST(EndToEndTest, DuplicateVerifyFloodAbsorbed) {
  SystemConfig config = SmallConfig();
  config.byzantine_executors = 1;
  config.byzantine_executor_behavior =
      serverless::ExecutorBehavior::kDuplicateVerify;
  Architecture arch(config);
  arch.Start();
  arch.simulator()->RunUntil(Seconds(2));
  EXPECT_GT(arch.TotalCompleted(), 50u);
  EXPECT_GT(arch.verifier()->flooding_ignored(), 0u);
}

TEST(EndToEndTest, DecentralizedSpawningStillCompletes) {
  SystemConfig config = SmallConfig();
  config.spawn_mode = SpawnMode::kDecentralized;
  Architecture arch(config);
  arch.Start();
  arch.simulator()->RunUntil(Seconds(2));
  EXPECT_GT(arch.TotalCompleted(), 50u);
  // Decentralized: every node spawns e=1 (n_e <= n_r), so executor count
  // is n (4) per batch instead of n_e (3).
  EXPECT_EQ(arch.spawner()->executors_spawned(),
            arch.spawner()->batches_spawned());
}

TEST(EndToEndTest, MoreExecutorRegionsStillCompletes) {
  SystemConfig config = SmallConfig();
  config.executor_regions = 11;
  config.n_e = 11;
  config.f_e = 5;
  Architecture arch(config);
  arch.Start();
  arch.simulator()->RunUntil(Seconds(3));
  EXPECT_GT(arch.TotalCompleted(), 30u);
}

TEST(EndToEndTest, LatencyHasFloorFromWanAndSpawning) {
  SystemConfig config = SmallConfig();
  RunReport report = RunExperiment(config, Seconds(0.5), Seconds(1.5));
  // Executor spawn + execution + verify leg cannot be instantaneous; the
  // paper reports a 30 ms minimum.
  EXPECT_GT(report.latency_p50_s, 0.010);
  EXPECT_LT(report.latency_p50_s, 0.500);
}

}  // namespace
}  // namespace sbft::core
