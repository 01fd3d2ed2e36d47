// Tests for the deterministic fault-injection subsystem (src/faults/):
// schedule parsing, the controller's runtime hooks, recovery properties
// (partition-then-heal, executor kill), and the replayability contract
// (same seed + scenario => byte-identical commit-history digest).

#include <gtest/gtest.h>

#include "core/serverless_bft.h"
#include "faults/controller.h"
#include "faults/runner.h"
#include "faults/scenario.h"
#include "faults/schedule.h"

namespace sbft::faults {
namespace {

core::SystemConfig SmallConfig(uint64_t seed = 31) {
  core::SystemConfig config;
  config.shim.n = 4;
  config.shim.batch_size = 2;
  config.shim.checkpoint_interval = 8;
  config.n_e = 3;
  config.f_e = 1;
  config.num_clients = 8;
  config.client_timeout = Millis(400);
  config.workload.record_count = 1000;
  config.crypto_mode = crypto::CryptoMode::kFast;
  config.seed = seed;
  return config;
}

// --- schedule parsing -----------------------------------------------------

TEST(FaultScheduleTest, ParsesDurations) {
  EXPECT_EQ(*ParseDurationLiteral("100ns"), Nanos(100));
  EXPECT_EQ(*ParseDurationLiteral("250us"), Micros(250));
  EXPECT_EQ(*ParseDurationLiteral("800ms"), Millis(800));
  EXPECT_EQ(*ParseDurationLiteral("2s"), Seconds(2));
  EXPECT_EQ(*ParseDurationLiteral("1.5s"), Seconds(1.5));
  EXPECT_FALSE(ParseDurationLiteral("").ok());
  EXPECT_FALSE(ParseDurationLiteral("12").ok());
  EXPECT_FALSE(ParseDurationLiteral("fast").ok());
  EXPECT_FALSE(ParseDurationLiteral("-3ms").ok());
  // A SimDuration holds less than 2^63 ns (~9223372036.85 s); a literal
  // at or past that, or not finite, is rejected instead of wrapping.
  EXPECT_EQ(*ParseDurationLiteral("9223372036s"), Seconds(9223372036));
  EXPECT_FALSE(ParseDurationLiteral("9223372037s").ok());
  EXPECT_FALSE(ParseDurationLiteral("1e30s").ok());
  EXPECT_FALSE(ParseDurationLiteral("1e300ms").ok());
  EXPECT_FALSE(ParseDurationLiteral("1e400ns").ok());
}

TEST(FaultScheduleTest, ParsesEveryEventKind) {
  auto schedule = FaultSchedule::Parse(
      "# a comment\n"
      "\n"
      "at 1s crash node 0\n"
      "at 2s recover node 0\n"
      "at 1s partition nodes 0 | 1 2 3\n"
      "at 2s heal nodes\n"
      "at 1s partition regions 0 2\n"
      "at 2s heal regions 0 2\n"
      "at 1s link 1 2 drop 0.3 dup 0.1 delay 5ms\n"
      "at 2s clear link 1 2\n"
      "at 1s skew node 2 3ms\n"
      "at 1s byzantine node 0 equivocate\n"
      "at 2s honest node 0\n"
      "at 1s kill executors\n"
      "at 1s suspend spawns\n"
      "at 2s resume spawns\n"
      "at 1s straggle executors 50ms\n");
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  EXPECT_EQ(schedule->size(), 15u);
  // Events are sorted by time.
  SimTime last = 0;
  for (const FaultEvent& e : schedule->events()) {
    EXPECT_GE(e.at, last);
    last = e.at;
  }
}

TEST(FaultScheduleTest, ParsesByzantineFlags) {
  auto schedule = FaultSchedule::Parse(
      "at 1s byzantine node 0 "
      "suppress-requests,dark=4,spawn-delay=120ms,spawn-count=1,"
      "duplicate-spawns=2\n");
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  const shim::ByzantineBehavior& b = schedule->events()[0].behavior;
  EXPECT_TRUE(b.byzantine);
  EXPECT_TRUE(b.suppress_requests);
  ASSERT_EQ(b.dark_nodes.size(), 1u);
  EXPECT_EQ(b.dark_nodes[0], 4u);
  EXPECT_EQ(b.spawn_delay, Millis(120));
  EXPECT_EQ(b.spawn_count_override, 1);
  EXPECT_EQ(b.duplicate_spawns, 2);
}

TEST(FaultScheduleTest, RejectsMalformedLines) {
  EXPECT_FALSE(FaultSchedule::Parse("crash node 0\n").ok());
  EXPECT_FALSE(FaultSchedule::Parse("at 1s explode node 0\n").ok());
  EXPECT_FALSE(FaultSchedule::Parse("at 1s crash node x\n").ok());
  EXPECT_FALSE(FaultSchedule::Parse("at 1s partition nodes 0 1\n").ok());
  EXPECT_FALSE(FaultSchedule::Parse("at 1s link 1 2 drop 1.5\n").ok());
  EXPECT_FALSE(FaultSchedule::Parse("at 1s byzantine node 0 vibes\n").ok());
  // A crash is `crash node i`, not a byzantine flag.
  EXPECT_FALSE(FaultSchedule::Parse("at 1s byzantine node 0 crash\n").ok());
  // Out-of-range numbers are rejected, not wrapped.
  EXPECT_FALSE(FaultSchedule::Parse("at 1e30s crash node 0\n").ok());
  EXPECT_FALSE(FaultSchedule::Parse("at 9223372037s crash node 0\n").ok());
  EXPECT_FALSE(
      FaultSchedule::Parse("at 1s byzantine node 0 spawn-delay=1e300ms\n")
          .ok());
  EXPECT_FALSE(
      FaultSchedule::Parse("at 1s byzantine node 0 spawn-count=4294967297\n")
          .ok());
  EXPECT_FALSE(FaultSchedule::Parse(
                   "at 1s byzantine node 0 duplicate-spawns=4294967298\n")
                   .ok());
  // Errors carry the line number.
  auto bad = FaultSchedule::Parse("at 1s crash node 0\nat 2s nonsense\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);
}

TEST(FaultScheduleTest, CoordinatorCrashIsMemberZero) {
  auto schedule = FaultSchedule::Parse(
      "at 1s crash coordinator\n"
      "at 2s recover coordinator\n");
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  ASSERT_EQ(schedule->size(), 2u);
  EXPECT_EQ(schedule->events()[0].kind, FaultKind::kCrashCoordinatorMember);
  EXPECT_EQ(schedule->events()[0].node, 0u);
  EXPECT_EQ(schedule->events()[1].kind, FaultKind::kRecoverCoordinatorMember);
  EXPECT_EQ(schedule->events()[1].node, 0u);
}

TEST(FaultScheduleTest, PartitionErrorsNameWhatIsPartitioned) {
  auto error = [](std::string_view line) {
    auto schedule = FaultSchedule::Parse(line);
    return schedule.ok() ? std::string("ok") : schedule.status().message();
  };
  EXPECT_EQ(error("at 1s partition nodes 0 1\n"),
            "scenario line 1: partition nodes needs '<i...> | <j...>'");
  EXPECT_EQ(error("at 1s partition nodes 0 | x\n"),
            "scenario line 1: bad node index in partition");
  EXPECT_EQ(error("at 1s partition coordinators 0 1\n"),
            "scenario line 1: partition coordinators needs '<i...> | <j...>'");
  EXPECT_EQ(error("at 1s partition coordinators 0 | -1\n"),
            "scenario line 1: bad member index in partition");
  EXPECT_EQ(error("at 1s partition coordinators | 1\n"),
            "scenario line 1: partition coordinators needs '<i...> | <j...>'");
}

TEST(FaultScheduleTest, RejectsNegativeNodeIndex) {
  // strtoul would happily wrap "-1"; the parser must not.
  EXPECT_FALSE(FaultSchedule::Parse("at 1s crash node -1\n").ok());
}

TEST(FaultEngineTest, InstallRejectsOutOfRangeTargets) {
  // A typo'd scenario must fail loudly, not run fault-free.
  core::Architecture arch(SmallConfig());
  FaultController controller(&arch);
  Status bad_node =
      controller.Install(*FaultSchedule::Parse("at 1s crash node 7\n"));
  EXPECT_TRUE(bad_node.IsInvalidArgument()) << bad_node.ToString();

  core::Architecture arch2(SmallConfig());
  FaultController controller2(&arch2);
  Status bad_region = controller2.Install(
      *FaultSchedule::Parse("at 1s partition regions 0 99\n"));
  EXPECT_TRUE(bad_region.IsInvalidArgument()) << bad_region.ToString();

  // Either side of a partition is checked.
  core::Architecture arch3(SmallConfig());
  FaultController controller3(&arch3);
  Status bad_side = controller3.Install(
      *FaultSchedule::Parse("at 1s partition nodes 0 | 1 9\n"));
  EXPECT_EQ(bad_side.message(), "partition nodes: bad index");
}

TEST(FaultEngineTest, InstallRefusesParallelEngine) {
  // Faults are applied on the global loop; on the parallel engine they
  // would flip plane-owned state from the wrong thread, so Install must
  // refuse in every build type rather than rely on asserts.
  core::SystemConfig config = SmallConfig();
  config.shard_count = 2;
  config.sim_threads = 2;
  core::Architecture arch(config);
  ASSERT_TRUE(arch.parallel());
  FaultController controller(&arch);
  Status status =
      controller.Install(*FaultSchedule::Parse("at 1s crash node 0\n"));
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsNotSupported()) << status.ToString();
  EXPECT_NE(status.ToString().find("sim_threads"), std::string::npos);
}

// --- recovery properties --------------------------------------------------

TEST(FaultEngineTest, PartitionThenHealTriggersViewChangeAndCommitsResume) {
  core::Architecture arch(SmallConfig());
  auto schedule = FaultSchedule::Parse(
      "at 1s partition nodes 0 | 1 2 3\n"
      "at 3s heal nodes\n");
  ASSERT_TRUE(schedule.ok());
  FaultController controller(&arch);
  ASSERT_TRUE(controller.Install(*schedule).ok());
  arch.Start();

  arch.simulator()->RunUntil(Seconds(1));
  uint64_t at_partition = arch.TotalCompleted();
  EXPECT_GT(at_partition, 0u);

  // During the partition the backups must replace the unreachable
  // primary...
  arch.simulator()->RunUntil(Seconds(3));
  EXPECT_GT(arch.TotalViewChanges(), 0u);

  // ...and after the heal commits keep flowing.
  uint64_t at_heal = arch.TotalCompleted();
  arch.simulator()->RunUntil(Seconds(6));
  EXPECT_GT(arch.TotalCompleted(), at_heal + 50);
  EXPECT_TRUE(arch.verifier()->audit_log().VerifyChain());
  EXPECT_EQ(controller.events_applied(), 2u);
}

TEST(FaultEngineTest, ExecutorKillLeadsToRespawnNotUnsafety) {
  core::Architecture arch(SmallConfig());
  auto schedule = FaultSchedule::Parse("at 1s kill executors\n");
  ASSERT_TRUE(schedule.ok());
  FaultController controller(&arch);
  ASSERT_TRUE(controller.Install(*schedule).ok());
  arch.Start();

  arch.simulator()->RunUntil(Seconds(1) + Millis(1));
  uint64_t killed = arch.cloud()->executors_killed();
  uint64_t spawned_at_kill = arch.spawner()->executors_spawned();
  uint64_t completed_at_kill = arch.TotalCompleted();
  EXPECT_GT(killed, 0u);

  arch.simulator()->RunUntil(Seconds(6));
  // The verifier's ERROR(kmax) path re-spawned executors for the orphaned
  // sequences and the system made progress — safety intact throughout.
  EXPECT_GT(arch.spawner()->executors_spawned(), spawned_at_kill);
  EXPECT_GT(arch.TotalCompleted(), completed_at_kill + 50);
  EXPECT_TRUE(arch.verifier()->audit_log().VerifyChain());
}

TEST(FaultEngineTest, SpawnSuspensionStarvesThenRecovers) {
  core::Architecture arch(SmallConfig());
  auto schedule = FaultSchedule::Parse(
      "at 1s suspend spawns\n"
      "at 2s resume spawns\n");
  ASSERT_TRUE(schedule.ok());
  FaultController controller(&arch);
  ASSERT_TRUE(controller.Install(*schedule).ok());
  arch.Start();
  arch.simulator()->RunUntil(Seconds(2));
  uint64_t at_resume = arch.TotalCompleted();
  EXPECT_GT(arch.cloud()->spawns_throttled(), 0u);
  arch.simulator()->RunUntil(Seconds(5));
  EXPECT_GT(arch.TotalCompleted(), at_resume + 50);
  EXPECT_TRUE(arch.verifier()->audit_log().VerifyChain());
}

TEST(FaultEngineTest, RuntimeByzantineToggleAffectsSpawning) {
  // Flip the primary to the fewer-executors attack at runtime, then back
  // to honest: the spawner must follow both transitions.
  core::Architecture arch(SmallConfig());
  auto schedule = FaultSchedule::Parse(
      "at 1s byzantine node 0 spawn-count=1\n"
      "at 3s honest node 0\n");
  ASSERT_TRUE(schedule.ok());
  FaultController controller(&arch);
  ASSERT_TRUE(controller.Install(*schedule).ok());
  arch.Start();
  arch.simulator()->RunUntil(Seconds(6));
  // Retransmissions spike while under-spawned sequences stall, and the
  // run still makes progress overall.
  EXPECT_GT(arch.TotalRetransmissions(), 0u);
  EXPECT_GT(arch.TotalCompleted(), 100u);
  EXPECT_TRUE(arch.verifier()->audit_log().VerifyChain());
}

// --- determinism ----------------------------------------------------------

TEST(FaultEngineTest, SameSeedSameScenarioSameDigest) {
  for (const Scenario& scenario : BuiltinScenarios(/*seed=*/7)) {
    auto first = RunScenario(scenario);
    auto second = RunScenario(scenario);
    ASSERT_TRUE(first.ok()) << scenario.name;
    ASSERT_TRUE(second.ok()) << scenario.name;
    EXPECT_EQ(first->commit_digest, second->commit_digest)
        << "scenario " << scenario.name << " is not replayable";
    EXPECT_EQ(first->completed_txns, second->completed_txns)
        << scenario.name;
    EXPECT_EQ(first->audit_entries, second->audit_entries) << scenario.name;
    EXPECT_TRUE(first->audit_chain_ok) << scenario.name;
    EXPECT_GT(first->completed_txns, 0u) << scenario.name;
  }
}

TEST(FaultEngineTest, DifferentSeedsDiverge) {
  // Not a protocol guarantee, but with jittered WAN delivery two seeds
  // virtually never produce the same commit history — a cheap guard that
  // the seed actually reaches the run.
  auto a = RunScenario(*FindScenario("lossy_wan", 7));
  auto b = RunScenario(*FindScenario("lossy_wan", 8));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->commit_digest, b->commit_digest);
}

TEST(FaultEngineTest, BundledScenariosAreWellFormed) {
  std::vector<Scenario> scenarios = BuiltinScenarios(1);
  EXPECT_GE(scenarios.size(), 6u);
  for (const Scenario& scenario : scenarios) {
    auto schedule = FaultSchedule::Parse(scenario.schedule_text);
    EXPECT_TRUE(schedule.ok())
        << scenario.name << ": " << schedule.status().ToString();
    EXPECT_FALSE(schedule->empty()) << scenario.name;
    EXPECT_FALSE(scenario.description.empty()) << scenario.name;
  }
  EXPECT_FALSE(FindScenario("no_such_scenario", 1).ok());
}

}  // namespace
}  // namespace sbft::faults
