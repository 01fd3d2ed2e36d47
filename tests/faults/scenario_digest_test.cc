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
//
// All fifteen were regenerated again when every signed transaction
// began carrying its client's floor and gids became (client, id): the
// floor and the gid's client add bytes to requests, batches, VERIFYs,
// votes and decisions, and records now come only from matched refs.
const std::vector<std::pair<std::string, std::string>> kGoldenDigests = {
    {"primary_crash",
     "31eef78af65f1155d1763d8e690e407e141d44d892e2b3e429b1f70957ceb8e7"},
    {"rolling_shim_crashes",
     "76c97a3a0f304ed34fdf2b8ee5fdf71ec56339ce388d29de7bbd563a1b0eb7cb"},
    {"partition_heal",
     "13910280d11d54f79c9f0082481cb13e793bc1f9465c206a3cc8c700fa35f609"},
    {"equivocating_primary",
     "4f50832fadfda41a0f899a07a6be52614216dd6ca63edd27cf3d8f9e18732a6b"},
    {"executor_starvation",
     "deae431f5fa94f2d9e05940c47634c5471e9a7ec908b1ccf42484e914c59e070"},
    {"lossy_wan",
     "1cb3ff329517bcef4aca606d427f52ae5c2e6348fe9bcb064aa103d6da466d40"},
    {"executor_massacre",
     "9f3cc164d70edc039659004a94e3ff14fed9cb47705b5e7f5bbc1641367f09b0"},
    {"skewed_clocks",
     "9b1179450487e369ad319412e0a9812443298bc44fdd2b1ec127a24da6916d89"},
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
     "029ff2877de080639493a51bcb6e068ad4e53f2a155015fbe15e0ab6e57513e6"},
    //
    // Regenerated with lock_contention_2pc below when the coordinator
    // became a group of one: it logs presumed aborts before answering
    // them, and on recovery takes over its own log and redirects the
    // shard verifiers, which re-send their standing votes at once.
    {"coordinator_crash_2pc",
     "5ec27fa8866b62157b878519a6fe1c9fecd106172a30e904509c88acf6b0343e"},
    // ISSUE-5 unified-commit-path scenario: bounded prepare-lock queueing
    // + fully-decided watermark + calibrated 2PC costs, coordinator crash
    // mid-queue. Pins the queueing/watermark machinery end to end.
    //
    // Regenerated with thundering_herd_retry below when the spawner
    // stopped respawning executors for sequences the verifier had already
    // settled (their VERIFYs were dropped as flooding anyway), and again
    // when the group of one began logging explicit aborts and
    // redirecting the verifiers after its recovery.
    //
    // Regenerated with thundering_herd_retry below when a client
    // retransmit for a transaction parked behind a prepare lock stopped
    // broadcasting REPLACE: the false accusations had driven every one of
    // this scenario's view changes.
    {"lock_contention_2pc",
     "b31c87fbb0d99ac56871c57b93cfd5f96710335d3b20b348c58ea31d8ccd4ac4"},
    // ISSUE-7 open-loop traffic scenarios: TrafficSource actors inject at
    // the configured rate regardless of completion (bursty above
    // capacity / diurnal peak), with the per-source retry cap bounding
    // retransmit amplification. Open-loop mode forks extra rng streams,
    // so these have their own draw sequences; the eleven closed-loop
    // digests above are untouched.
    {"thundering_herd_retry",
     "77e13c42e973a5bf217446dfa175715163701902b69b698c450a00bd6dab7770"},
    {"gray_straggler_peak",
     "fdda39e5ddf9729bed2bdfdf4ae5857a804a59f35cbe096919350184e953d135"},
    // ISSUE-8 replicated-coordinator scenarios (coordinator_replicas=3).
    // These two pin the failover machinery itself (leader crash mid-2PC,
    // minority-partitioned leader fenced by the append quorum). They
    // stayed byte-identical when R=1 became a group of one: the group
    // path itself did not change.
    {"coordinator_leader_crash_2pc",
     "43b468c09d2c4ffda3725db00ecdbb708c826dae56542513a68a9c5775ae0524"},
    {"coordinator_partition_minority",
     "37230e71a4d86d3418b0c2b4ab7a100dfb1f31a52b00421c59174b575c09c3f9"},
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
