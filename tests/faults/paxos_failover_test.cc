// Fault-injected leader-crash coverage for the SERVERLESSCFT baseline:
// the MultiPaxosReplica shim must elect a new leader after the stable
// leader crash-stops, keep committing client transactions, and absorb
// the old leader's recovery without forking the slot space. (The PBFT
// and linear replicas have had this pressure since PR 1; the CFT shim
// previously had none.)

#include <gtest/gtest.h>

#include "core/serverless_bft.h"
#include "faults/controller.h"
#include "faults/schedule.h"

namespace sbft::faults {
namespace {

core::SystemConfig CftConfig() {
  core::SystemConfig config;
  config.protocol = core::Protocol::kServerlessCft;
  config.shim.n = 4;
  config.shim.batch_size = 2;
  // Tight timers so the ERROR-evidence -> failover chain fits the run.
  config.shim.view_change_timeout = Millis(400);
  config.n_e = 3;
  config.f_e = 1;
  config.num_clients = 8;
  config.client_timeout = Millis(300);
  config.workload.record_count = 5000;
  config.crypto_mode = crypto::CryptoMode::kFast;
  config.seed = 21;
  return config;
}

TEST(PaxosFailoverTest, LeaderCrashElectsNewLeaderAndKeepsCommitting) {
  core::Architecture arch(CftConfig());
  FaultController controller(&arch);
  auto schedule = FaultSchedule::Parse("at 1s crash node 0\n");
  ASSERT_TRUE(schedule.ok());
  ASSERT_TRUE(controller.Install(*schedule).ok());
  arch.Start();

  arch.simulator()->RunUntil(Seconds(1));
  uint64_t completed_before = arch.TotalCompleted();
  EXPECT_GT(completed_before, 20u);
  EXPECT_EQ(arch.CurrentPrimary(), arch.shim_ids()[0]);

  arch.simulator()->RunUntil(Seconds(6));
  // A live replica bumped the view and took over.
  EXPECT_GT(arch.TotalViewChanges(), 0u);
  EXPECT_NE(arch.CurrentPrimary(), arch.shim_ids()[0]);
  // Commits resumed under the new leader.
  EXPECT_GT(arch.TotalCompleted(), completed_before + 20u);
  EXPECT_TRUE(arch.verifier()->audit_log().VerifyChain());
}

TEST(PaxosFailoverTest, OldLeaderRecoveryDoesNotForkTheLog) {
  core::Architecture arch(CftConfig());
  FaultController controller(&arch);
  auto schedule = FaultSchedule::Parse(
      "at 1s crash node 0\n"
      "at 3s recover node 0\n");
  ASSERT_TRUE(schedule.ok());
  ASSERT_TRUE(controller.Install(*schedule).ok());
  arch.Start();
  arch.simulator()->RunUntil(Seconds(6));

  EXPECT_GT(arch.TotalViewChanges(), 0u);
  EXPECT_GT(arch.TotalCompleted(), 50u);
  // The recovered node adopted the higher ballot instead of re-leading.
  EXPECT_GT(arch.replicas()[0]->view(), 0u);
  EXPECT_FALSE(arch.replicas()[0]->IsPrimary());
  // The verifier's k_max order stayed a verified chain: no slot was
  // settled twice with diverging content.
  EXPECT_TRUE(arch.verifier()->audit_log().VerifyChain());
}

TEST(PaxosFailoverTest, CrashWithoutOutstandingWorkKeepsLeadership) {
  // Idle silence must not rotate leadership: with no clients there is no
  // stuck-work evidence, so views stay put.
  core::SystemConfig config = CftConfig();
  config.num_clients = 0;
  core::Architecture arch(config);
  FaultController controller(&arch);
  auto schedule = FaultSchedule::Parse("at 500ms crash node 0\n");
  ASSERT_TRUE(schedule.ok());
  ASSERT_TRUE(controller.Install(*schedule).ok());
  arch.Start();
  arch.simulator()->RunUntil(Seconds(4));
  EXPECT_EQ(arch.TotalViewChanges(), 0u);
}

}  // namespace
}  // namespace sbft::faults
