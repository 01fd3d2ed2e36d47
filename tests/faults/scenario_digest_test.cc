// Golden determinism gate for the replayable chaos runner (ISSUE-3): the
// commit-history digest of every bundled scenario at the reference seed is
// pinned here. Any engine change that alters event ordering, network
// verdicts, rng draw sequence, or message encoding shows up as a digest
// mismatch — the byte-identical-replay contract the simulator refactor
// must preserve.
//
// If a change *intentionally* alters scheduling or encoding semantics,
// run this test: its failure message prints each moved scenario's full
// 64-digit digest (`scenario_runner --all --seed 42` prints only the
// first 16). Update the table below from it, in a commit of its own
// whose message lists the parent's and the change's scenario_runner
// lines and explains why the digests moved.

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
//
// Every digest but gray_straggler_peak's was regenerated when VERIFY
// stopped carrying the batch-level union of its per-transaction
// read/write sets: the smaller message arrives sooner.
const std::vector<std::pair<std::string, std::string>> kGoldenDigests = {
    {"primary_crash",
     "28c0ae355bb74d390495f5d92ad1fe1f7642b81b625641af9f25818604aef160"},
    {"rolling_shim_crashes",
     "7021175b4321779f93fcdb769ba498a818dfc2815487607bb9f106ed0aa0eee6"},
    {"partition_heal",
     "49d77446969c3f72702543eaf775f3a415660960bf742e72f3eaac0409eaff59"},
    {"equivocating_primary",
     "a062f2439d6dd444a66e2a5d2fde1f7202c3478f07753ce84ccf8a61d4c7f08a"},
    {"executor_starvation",
     "3564b9a859f9d6b4195ac5039f7074644528b5bbb4ceb6a8f7330a050c8107c8"},
    {"lossy_wan",
     "17ee08a66a41f64c6809c48bdc49a24c3783cbaf2dcd97d95d058cd458fe5aad"},
    {"executor_massacre",
     "7bcc5ef63ceec3fa3e1cf19c0e6eafaaf07a023d9116a25884b46c734308d377"},
    {"skewed_clocks",
     "2a6702ffd82cd48eb7a5853fb1209f880de2de4c586bfaa38d2f8218a2be8fc4"},
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
     "fc10190805d3c12479c74b3aa3d6fa0695f3c3d12307f4e08fad943854e1315f"},
    //
    // Regenerated with lock_contention_2pc below when the coordinator
    // became a group of one: it logs presumed aborts before answering
    // them, and on recovery takes over its own log and redirects the
    // shard verifiers, which re-send their standing votes at once.
    {"coordinator_crash_2pc",
     "d2ad68df05bfcf965b28d8ad5035b8960adc80f4add88a4a845f3ba559c4aaee"},
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
     "47b77b3ee6482ceedd5ddcf72306c5c8e25dfa5f74e2b67652b11516765e97a7"},
    // ISSUE-7 open-loop traffic scenarios: TrafficSource actors inject at
    // the configured rate regardless of completion (bursty above
    // capacity / diurnal peak), with the per-source retry cap bounding
    // retransmit amplification. Open-loop mode forks extra rng streams,
    // so these have their own draw sequences; the eleven closed-loop
    // digests above are untouched.
    {"thundering_herd_retry",
     "7fbc8a7ceb6171e63b61bdf36b44b2a43e743a0c9b8b9f594e74b8f7b5dd0439"},
    {"gray_straggler_peak",
     "feacd3c7af9c0e5ecac93dd9d62de5a9cfcc1d9563a59b77b7aa7ce92d842007"},
    // ISSUE-8 replicated-coordinator scenarios (coordinator_replicas=3).
    // These two pin the failover machinery itself (leader crash mid-2PC,
    // minority-partitioned leader fenced by the append quorum). They
    // stayed byte-identical when R=1 became a group of one: the group
    // path itself did not change.
    {"coordinator_leader_crash_2pc",
     "92a5ac2d92361aa4cb505bbe5314674bc02378229095d4ad0c61b423f2be39e2"},
    {"coordinator_partition_minority",
     "3195e42426483dc8ed01b498149cea282d335b0d2caf7122c9d9e7c1e213b3af"},
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
