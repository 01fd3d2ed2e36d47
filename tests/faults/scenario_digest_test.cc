// Golden determinism gate for the replayable chaos runner (ISSUE-3): the
// commit-history digest of every bundled scenario at the reference seed is
// pinned here. Any engine change that alters event ordering, network
// verdicts, rng draw sequence, or message encoding shows up as a digest
// mismatch — the byte-identical-replay contract the simulator refactor
// must preserve.
//
// If a change *intentionally* alters scheduling or encoding semantics,
// regenerate with:
//   ./build/tools/scenario_runner --all --seed 42
// and update the table below, explaining why in the commit message.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "faults/runner.h"
#include "faults/scenario.h"

namespace sbft::faults {
namespace {

constexpr uint64_t kGoldenSeed = 42;

// Captured from the pre-refactor (PR 2) engine; the allocation-free
// simulator core reproduces them bit-for-bit.
const std::vector<std::pair<std::string, std::string>> kGoldenDigests = {
    {"primary_crash",
     "e3ab0d75bf51ea9f8182d05cd7fc68ee8201da32c05bf72b48d2484fc220d836"},
    {"rolling_shim_crashes",
     "bf4da5ac41a20adec32d055ce1dcc78b09e6fe01dbab3db5dd6103e5fabb701f"},
    {"partition_heal",
     "6bbb204aed32f8345d9f164e33d9688f254497db7ccf9cf4c65d35bb904b9ffe"},
    {"equivocating_primary",
     "adb074925503779ff43a6742641c3cf6ee5158b7781d0ffe82a91f2d029a9b05"},
    {"executor_starvation",
     "2908c287ed6d83a0174bd5965b7bb7a3ebb1c2b79625610872e893bcc16849ab"},
    {"lossy_wan",
     "e894ff04faf796bd4e2615035f828c98f3e6719b9b2b3cb260de151e53e06a80"},
    {"executor_massacre",
     "d0669fdfe4ca2e67a7200057b440d36e09a3d1fadbe119f8ff7bdd26ec9742dd"},
    {"skewed_clocks",
     "fbd6dd63f7f9b4220387d68c10fd345433bd4c7fa74cef1c4731f4f12872f999"},
    // ISSUE-4 sharded-plane scenarios (2 shards, cross-shard 2PC). Their
    // digest commits to every shard's batch audit chain *and* 2PC
    // decision chain, in shard order (see faults/runner.cc).
    //
    // Regenerated for ISSUE-6: prepare-lock queueing, the fully-decided
    // watermark, calibrated 2PC costs, and share-based vote certificates
    // are now the defaults, which changes 2PC wire traffic (and thereby
    // event timing) on every sharded scenario. The eight single-plane
    // digests above are untouched — none of the flipped features emits a
    // byte without cross-shard fragments in play.
    {"shard_partition",
     "035410f1f217be03bded30ee6d0ab34a62e633e0ddb7dcbbb0a4884234e27539"},
    //
    // Regenerated with lock_contention_2pc below when the coordinator
    // became a group of one: it logs presumed aborts before answering
    // them, and on recovery takes over its own log and redirects the
    // shard verifiers, which re-send their standing votes at once.
    {"coordinator_crash_2pc",
     "f42e1410f692a89d43fb76f04eee4be02f5d1caba7173bb466fb481d92fd2d8c"},
    // ISSUE-5 unified-commit-path scenario: bounded prepare-lock queueing
    // + fully-decided watermark + calibrated 2PC costs, coordinator crash
    // mid-queue. Pins the queueing/watermark machinery end to end.
    //
    // Regenerated with thundering_herd_retry below when the spawner
    // stopped respawning executors for sequences the verifier had already
    // settled (their VERIFYs were dropped as flooding anyway), and again
    // when the group of one began logging explicit aborts and
    // redirecting the verifiers after its recovery.
    {"lock_contention_2pc",
     "8543201d69bfa60c17fa197d952d6e7e9268df17c3bdad97a4e493c567b38ef8"},
    // ISSUE-7 open-loop traffic scenarios: TrafficSource actors inject at
    // the configured rate regardless of completion (bursty above
    // capacity / diurnal peak), with the per-source retry cap bounding
    // retransmit amplification. Open-loop mode forks extra rng streams,
    // so these have their own draw sequences; the eleven closed-loop
    // digests above are untouched.
    {"thundering_herd_retry",
     "b09ccfc7fc985e254b741452e6e4c092bf070764ffccdc3db809596042f31917"},
    {"gray_straggler_peak",
     "feacd3c7af9c0e5ecac93dd9d62de5a9cfcc1d9563a59b77b7aa7ce92d842007"},
    // ISSUE-8 replicated-coordinator scenarios (coordinator_replicas=3).
    // These two pin the failover machinery itself (leader crash mid-2PC,
    // minority-partitioned leader fenced by the append quorum). They
    // stayed byte-identical when R=1 became a group of one: the group
    // path itself did not change.
    {"coordinator_leader_crash_2pc",
     "b38e48cffe5897eecd1972ea17f353be534d713c42458479e1fd7f1afed8a4cd"},
    {"coordinator_partition_minority",
     "482cf68aeb20d53564ef908cfcaf01936fdd09b61f907c71811288b5a4aad084"},
};

TEST(ScenarioDigestTest, AllBundledScenariosMatchGoldenDigests) {
  std::vector<Scenario> scenarios = BuiltinScenarios(kGoldenSeed);
  ASSERT_EQ(scenarios.size(), kGoldenDigests.size())
      << "bundled scenario set changed; update the golden table";

  for (size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = scenarios[i];
    ASSERT_EQ(s.name, kGoldenDigests[i].first)
        << "scenario order changed; update the golden table";
    auto report = RunScenario(s);
    ASSERT_TRUE(report.ok()) << s.name << ": "
                             << report.status().ToString();
    EXPECT_TRUE(report->audit_chain_ok) << s.name;
    EXPECT_EQ(report->commit_digest, kGoldenDigests[i].second)
        << s.name << ": replay determinism broken";
  }
}

}  // namespace
}  // namespace sbft::faults
