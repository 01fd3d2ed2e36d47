// Replicated-coordinator failover (DESIGN.md §10): a standby must take
// over mid-2PC when the serving leader crash-stops, re-derive the
// volatile vote/ack state from retransmitted shard votes plus the
// replicated decision log, and finish every decidable in-flight
// transaction — atomically, with every prepare lock released, and
// without inflating the abort rate beyond the crash window itself. The
// singleton configuration, by contrast, must demonstrably stall until
// its one coordinator returns.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/serverless_bft.h"
#include "faults/controller.h"
#include "faults/schedule.h"

#include "twopc_evidence.h"

namespace sbft::core {
namespace {

SystemConfig FailoverConfig(uint64_t seed, uint32_t replicas) {
  SystemConfig config;
  config.shard_count = 2;
  config.shim.n = 4;
  config.shim.batch_size = 2;
  config.shim.checkpoint_interval = 8;
  config.n_e = 3;
  config.f_e = 1;
  config.num_clients = 16;
  config.workload.record_count = 2000;
  config.workload.cross_shard_percentage = 10.0;
  config.coordinator_vote_timeout = Millis(600);
  config.coordinator_replicas = replicas;
  config.coordinator_heartbeat = Millis(100);
  config.coordinator_failover_timeout = Millis(400);
  config.crypto_mode = crypto::CryptoMode::kFast;
  config.seed = seed;
  return config;
}

/// The serving member right now: synced leader first, else any live
/// member (its durable log is still evidence), else member 0.
TxnCoordinator* ServingCoordinator(Architecture& arch) {
  for (uint32_t r = 0; r < arch.coordinator_replicas(); ++r) {
    TxnCoordinator* c = arch.coordinator(r);
    if (!c->crashed() && c->leader_synced()) return c;
  }
  for (uint32_t r = 0; r < arch.coordinator_replicas(); ++r) {
    TxnCoordinator* c = arch.coordinator(r);
    if (!c->crashed()) return c;
  }
  return arch.coordinator();
}

/// Group-aware atomicity audit. Fragment evidence: no global id applied
/// on one shard and aborted on another. Log evidence, read from the
/// members' trails because the logs truncate: every applied id is
/// COMMIT-logged on some group member, and members never hold
/// *conflicting* outcomes at the same maximum view (the quorum fence
/// plus max-view sync resolution must keep the logs reconcilable).
void ExpectAtomicAcrossGroup(Architecture& arch, const LogTrail& trail) {
  const TwoPcEvidence evidence = CollectTwoPcEvidence(arch, trail);
  for (const crypto::Digest& key : evidence.SplitOutcomes()) {
    ADD_FAILURE() << "global txn " << key.ToHex()
                  << " applied on one shard, aborted on another";
  }
  for (const TxnKey& gid : evidence.applied_gids) {
    bool commit_logged = false;
    uint64_t best_view = 0;
    bool best_commit = false;
    for (uint32_t r = 0; r < arch.coordinator_replicas(); ++r) {
      const LogTrail::CoordOutcome* logged = trail.CoordinatorOutcome(r, gid);
      if (logged == nullptr) continue;
      if (logged->commit) commit_logged = true;
      if (logged->view >= best_view) {
        best_view = logged->view;
        best_commit = logged->commit;
      }
    }
    EXPECT_TRUE(commit_logged)
        << "applied gtxn " << gid << " not COMMIT-logged on any member";
    EXPECT_TRUE(best_commit)
        << "applied gtxn " << gid << " overridden by a higher-view ABORT";
  }
}

uint64_t GroupCommits(Architecture& arch) {
  uint64_t total = 0;
  for (uint32_t r = 0; r < arch.coordinator_replicas(); ++r) {
    total += arch.coordinator(r)->commits_decided();
  }
  return total;
}

// Tentpole acceptance, phase one: crash the serving leader while votes
// are being collected (steady cross-shard traffic guarantees in-flight
// rounds at any instant) and never bring it back. Across five seeds the
// group must fail over, keep committing, hold atomicity, release every
// prepare lock, and keep the abort-rate delta vs an undisturbed run
// small.
TEST(CoordinatorFailoverTest, LeaderCrashMidVoteCollectionAcrossSeeds) {
  for (uint64_t seed : {7u, 11u, 23u, 42u, 91u}) {
    // Baseline: same seed, no fault — the abort-delta yardstick.
    SystemConfig config = FailoverConfig(seed, 3);
    Architecture baseline(config);
    baseline.Start();
    baseline.simulator()->RunUntil(Seconds(4));
    uint64_t baseline_aborts = baseline.TotalAborted();

    Architecture arch(config);
    LogTrail trail(arch);
    auto schedule = faults::FaultSchedule::Parse(
        "at 1s crash coordinator leader\n");
    ASSERT_TRUE(schedule.ok());
    faults::FaultController controller(&arch);
    ASSERT_TRUE(controller.Install(*schedule).ok());
    arch.Start();
    arch.simulator()->RunUntil(Seconds(4));

    // A standby took over and is serving.
    EXPECT_GE(arch.CoordinatorViewChanges(), 1u) << "seed " << seed;
    TxnCoordinator* serving = ServingCoordinator(arch);
    EXPECT_TRUE(serving->leader_synced()) << "seed " << seed;
    EXPECT_NE(serving, arch.coordinator(0)) << "seed " << seed;
    // Cross-shard commits continued after the crash (the crashed
    // member's log froze at the crash; the group total kept growing).
    EXPECT_GT(GroupCommits(arch),
              arch.coordinator(0)->commits_decided())
        << "seed " << seed;
    EXPECT_GT(arch.TotalCompleted(), 100u) << "seed " << seed;

    // No stuck prepare locks: whatever is held at the horizon is
    // in-flight work, not an orphan of the dead leader.
    for (uint32_t s = 0; s < arch.shard_count(); ++s) {
      EXPECT_LE(arch.plane(s)->verifier()->prepare_locks_held(), 64u)
          << "seed " << seed << " shard " << s;
      EXPECT_TRUE(arch.plane(s)->verifier()->audit_log().VerifyChain());
      EXPECT_TRUE(arch.plane(s)->verifier()->decision_log().VerifyChain());
    }
    ExpectAtomicAcrossGroup(arch, trail);

    // Bounded abort inflation: only transactions caught in the crash
    // window may abort beyond the baseline.
    EXPECT_LE(arch.TotalAborted(), baseline_aborts + 50)
        << "seed " << seed << ": failover inflated the abort rate";
  }
}

// Failover costs no goodput: after the serving leader crash-stops at 1 s
// and a standby takes over, the group commits about as much over
// [1.5 s, 3.5 s] as the same run without the crash. Members park the
// requests caught in the takeover window and replay them to the new
// leader, so no client waits out its retransmission timeout; a build
// that drops the parked requests reads about 55% of the no-crash rate.
TEST(CoordinatorFailoverTest, PostCrashGoodputMatchesTheNoCrashRun) {
  SystemConfig config = FailoverConfig(2023, 3);
  // The default checkpoint interval, not FailoverConfig's 8: this is the
  // deployment whose post-crash goodput DESIGN.md §10 quotes.
  config.shim.checkpoint_interval = shim::ShimConfig{}.checkpoint_interval;
  auto window_goodput = [&config](bool crash) {
    Architecture arch(config);
    faults::FaultController controller(&arch);
    if (crash) {
      auto schedule =
          faults::FaultSchedule::Parse("at 1s crash coordinator leader\n");
      EXPECT_TRUE(schedule.ok() && controller.Install(*schedule).ok());
    }
    arch.Start();
    arch.simulator()->RunUntil(Seconds(1.5));
    const uint64_t before = arch.TotalCompleted();
    arch.simulator()->RunUntil(Seconds(3.5));
    return static_cast<double>(arch.TotalCompleted() - before) / 2.0;
  };
  const double crashed = window_goodput(true);
  const double undisturbed = window_goodput(false);
  EXPECT_GE(crashed, 0.9 * undisturbed);
  // An absolute floor too, so a slower yardstick cannot lower the bar.
  EXPECT_GE(crashed, 240.0);
}

// Tentpole acceptance, phase two: crash the leader *after* decisions
// started flowing (mid-decision-broadcast) — some shards hold a
// decision the others have not seen. The successor must finish the
// broadcast from the replicated log, never contradict it, and the
// deposed member must rejoin as a follower on recovery.
TEST(CoordinatorFailoverTest, MidDecisionBroadcastCrashAndRejoin) {
  for (uint64_t seed : {7u, 11u, 23u, 42u, 91u}) {
    SystemConfig config = FailoverConfig(seed, 3);
    Architecture arch(config);
    LogTrail trail(arch);
    auto schedule = faults::FaultSchedule::Parse(
        "at 1250ms crash coordinator leader\n"
        "at 3s recover coordinator 0\n");
    ASSERT_TRUE(schedule.ok());
    faults::FaultController controller(&arch);
    ASSERT_TRUE(controller.Install(*schedule).ok());
    arch.Start();
    arch.simulator()->RunUntil(Seconds(5));

    EXPECT_GE(arch.CoordinatorViewChanges(), 1u) << "seed " << seed;
    TxnCoordinator* serving = ServingCoordinator(arch);
    EXPECT_TRUE(serving->leader_synced()) << "seed " << seed;
    // The recovered member 0 is back but demoted: a live follower under
    // the successor's (or a later) view.
    EXPECT_FALSE(arch.coordinator(0)->crashed()) << "seed " << seed;
    EXPECT_GE(arch.coordinator(0)->view(), 1u) << "seed " << seed;
    ExpectAtomicAcrossGroup(arch, trail);
    for (uint32_t s = 0; s < arch.shard_count(); ++s) {
      EXPECT_LE(arch.plane(s)->verifier()->prepare_locks_held(), 64u)
          << "seed " << seed << " shard " << s;
    }
  }
}

// The contrast the tentpole exists for: under the same crash the
// singleton stalls every cross-shard transaction until recovery, while
// the replicated group keeps deciding. Decision evidence, same seed.
TEST(CoordinatorFailoverTest, SingletonStallsWhereGroupFailsOver) {
  SystemConfig singleton_config = FailoverConfig(42, 1);
  Architecture singleton(singleton_config);
  auto singleton_schedule =
      faults::FaultSchedule::Parse("at 1s crash coordinator\n");
  ASSERT_TRUE(singleton_schedule.ok());
  faults::FaultController singleton_controller(&singleton);
  ASSERT_TRUE(singleton_controller.Install(*singleton_schedule).ok());
  singleton.Start();
  singleton.simulator()->RunUntil(Seconds(4));
  // The singleton's decision log froze at the crash: nothing decided in
  // the last three simulated seconds.
  uint64_t singleton_commits = singleton.coordinator()->commits_decided();

  SystemConfig group_config = FailoverConfig(42, 3);
  Architecture group(group_config);
  LogTrail group_trail(group);
  auto group_schedule =
      faults::FaultSchedule::Parse("at 1s crash coordinator leader\n");
  ASSERT_TRUE(group_schedule.ok());
  faults::FaultController group_controller(&group);
  ASSERT_TRUE(group_controller.Install(*group_schedule).ok());
  group.Start();
  group.simulator()->RunUntil(Seconds(4));

  EXPECT_GT(GroupCommits(group), 2 * singleton_commits)
      << "replicated group did not outlive its leader";
  ExpectAtomicAcrossGroup(group, group_trail);
}

// Satellite: the watermark/cseq bookkeeping is re-derivable. The
// successor adopts cseq/watermark maxima from the majority sync, issues
// only fresh cseqs above everything synced, and its watermark never
// regresses below what the dead leader had durably advanced — the
// monotonicity the pruning machinery depends on.
TEST(CoordinatorFailoverTest, WatermarkRederivedAfterTakeover) {
  SystemConfig config = FailoverConfig(23, 3);
  Architecture arch(config);
  LogTrail trail(arch);
  arch.Start();
  arch.simulator()->RunUntil(Seconds(1));

  // The logs truncate, so the cseqs logged so far come from the trail.
  auto max_cseq_logged = [&](uint32_t member) {
    uint64_t max_cseq = 0;
    for (const auto& [gid, logged] : trail.coordinator_decisions[member]) {
      max_cseq = std::max(max_cseq, logged.cseq);
    }
    return max_cseq;
  };
  TxnCoordinator* old_leader = arch.coordinator(0);
  uint64_t watermark_at_crash = old_leader->watermark();
  uint64_t max_cseq_at_crash = max_cseq_logged(0);
  old_leader->SetCrashed(true);
  arch.simulator()->RunUntil(Seconds(4));

  TxnCoordinator* serving = ServingCoordinator(arch);
  ASSERT_NE(serving, old_leader);
  EXPECT_TRUE(serving->leader_synced());
  EXPECT_GE(serving->watermark(), watermark_at_crash)
      << "takeover regressed the fully-decided watermark";
  // Fresh decisions got cseqs strictly above every pre-crash cseq, and
  // the watermark kept advancing over them (acks re-derived from the
  // successor's own decision traffic).
  uint64_t max_cseq_after = 0;
  for (uint32_t r = 0; r < arch.coordinator_replicas(); ++r) {
    if (arch.coordinator(r) == serving) max_cseq_after = max_cseq_logged(r);
  }
  EXPECT_GT(max_cseq_after, max_cseq_at_crash)
      << "successor never decided (or reused cseqs)";
  EXPECT_GT(serving->watermark(), watermark_at_crash)
      << "watermark stalled after takeover";
  ExpectAtomicAcrossGroup(arch, trail);
}

// R = 1 is a group of one: it runs the group protocol as its own
// majority. It logs explicit ABORTs and truncates them by the same rule
// as COMMITs (settled, and below the client's floor); on recovery it
// takes over its own log at
// once (no view change, no peer to sync with) and redirects every shard
// verifier exactly once; and it never sends a group message.
TEST(CoordinatorFailoverTest, GroupOfOneRecoversThroughItsOwnTakeover) {
  SystemConfig config = FailoverConfig(42, 1);
  // Hot cross-shard traffic with no lock queue: a fragment that meets a
  // foreign prepare lock votes NO, so explicit ABORTs are frequent.
  config.workload.record_count = 200;
  config.workload.cross_shard_percentage = 50.0;
  config.prepare_lock_queue_depth = 0;
  Architecture arch(config);
  LogTrail trail(arch);
  TxnCoordinator* coordinator = arch.coordinator();
  std::map<ActorId, int> redirects;
  int group_messages = 0;
  arch.network()->SetDeliveryObserver([&](const sim::Envelope& env) {
    const auto* msg = static_cast<const shim::Message*>(env.message.get());
    switch (msg->kind) {
      case shim::MsgKind::kCoordRedirect:
        if (env.from == coordinator->id()) ++redirects[env.to];
        break;
      case shim::MsgKind::kCoordAppend:
      case shim::MsgKind::kCoordAck:
      case shim::MsgKind::kCoordSyncRequest:
      case shim::MsgKind::kCoordSyncReply:
        ++group_messages;
        break;
      default:
        break;
    }
  });
  auto schedule = faults::FaultSchedule::Parse(
      "at 1s crash coordinator\n"
      "at 1.5s recover coordinator\n");
  ASSERT_TRUE(schedule.ok());
  faults::FaultController controller(&arch);
  ASSERT_TRUE(controller.Install(*schedule).ok());
  arch.Start();

  // Explicit ABORTs (vote NO or vote timeout) carry a cseq and are logged;
  // the gids seen logged are later truncated.
  std::set<TxnKey> logged_aborts;
  auto sample_aborts = [&]() {
    for (const auto& [gid, rec] : coordinator->decisions()) {
      if (!rec.commit && rec.cseq > 0) logged_aborts.insert(gid);
    }
  };
  for (SimTime t = Millis(50); t < Millis(1500); t += Millis(50)) {
    arch.simulator()->RunUntil(t);
    sample_aborts();
  }
  arch.simulator()->RunUntil(Millis(1501));
  EXPECT_FALSE(coordinator->crashed());
  EXPECT_TRUE(coordinator->leader_synced())
      << "a recovered group of one serves at once";
  EXPECT_EQ(coordinator->view_changes(), 0u);
  for (SimTime t = Millis(1550); t <= Seconds(5); t += Millis(50)) {
    arch.simulator()->RunUntil(t);
    sample_aborts();
  }

  EXPECT_GT(coordinator->aborts_decided(), 0u);
  EXPECT_FALSE(logged_aborts.empty()) << "explicit ABORTs are not logged";
  EXPECT_GT(coordinator->decisions_pruned(), 0u);
  size_t pruned_aborts = 0;
  for (const TxnKey& gid : logged_aborts) {
    if (!coordinator->decisions().contains(gid)) ++pruned_aborts;
  }
  EXPECT_GT(pruned_aborts, 0u) << "logged ABORTs never prune";
  EXPECT_LT(coordinator->decisions().size(),
            coordinator->commits_decided() + coordinator->aborts_decided());

  for (uint32_t s = 0; s < arch.shard_count(); ++s) {
    EXPECT_EQ(redirects[ShardPlane::VerifierId(s)], 1) << "shard " << s;
  }
  EXPECT_EQ(redirects.size(), arch.shard_count());
  EXPECT_EQ(group_messages, 0);
  EXPECT_TRUE(CollectTwoPcEvidence(arch, trail).SplitOutcomes().empty());
}

// Followers truncate with their leader. The leader carries the gids it
// truncated (settled, and at or below the client's floor) on its next
// append or heartbeat, and each follower drops them, so no member's log
// grows with the run and a takeover's sync reply stays small.
TEST(CoordinatorFailoverTest, FollowersTruncateWithTheLeader) {
  SystemConfig config = FailoverConfig(1, 3);
  config.workload.cross_shard_percentage = 20.0;
  Architecture arch(config);
  arch.Start();
  uint64_t decided = 0;
  for (SimTime until : {Seconds(2), Seconds(8)}) {
    SCOPED_TRACE("at " + std::to_string(until / Seconds(1)) + " s");
    arch.simulator()->RunUntil(until);
    const TxnCoordinator* leader = arch.coordinator(0);
    ASSERT_TRUE(leader->leader_synced());
    EXPECT_GT(leader->commits_decided() + leader->aborts_decided(),
              decided + 64);
    decided = leader->commits_decided() + leader->aborts_decided();
    for (uint32_t r = 0; r < arch.coordinator_replicas(); ++r) {
      const TxnCoordinator* member = arch.coordinator(r);
      EXPECT_LE(member->decisions().size(), 48u) << "member " << r;
      EXPECT_GT(member->decisions_pruned(), decided / 2) << "member " << r;
    }
  }
}

// Exactly-once across a long client partition: a cross-shard
// transaction commits, but its source is cut off from the coordinator
// before the RESPONSE lands, for longer than the 5 s retention window the
// log used to truncate by, and then healed. The source issues nothing
// new while it waits, so its floor stays below the transaction and the
// decision is still logged: the retransmit is answered from the log with
// the logged outcome, the gid applies at most once on every shard, and
// nothing is relaunched. The other source keeps traffic running through
// the partition, so the watermark advances and the shards prune.
TEST(CoordinatorFailoverTest, ExactlyOnceAcrossALongClientPartition) {
  SystemConfig config = FailoverConfig(5, 1);
  config.workload.cross_shard_percentage = 30.0;
  config.traffic.open_loop = true;
  config.traffic.sources = 2;
  config.traffic.offered_tps = 200.0;
  config.traffic.retry_timeout = Millis(400);
  config.traffic.retry_inflight_cap = 64;
  Architecture arch(config);
  LogTrail trail(arch);
  TxnCoordinator* coordinator = arch.coordinator();
  TxnKey gid;
  SimTime cut_at = 0;
  std::vector<bool> answers;  // RESPONSE outcomes for gid: committed?
  std::map<TxnKey, std::set<TxnId>> launches;  // gid -> launch numbers
  arch.network()->SetDeliveryObserver([&](const sim::Envelope& env) {
    const auto* msg = static_cast<const shim::Message*>(env.message.get());
    if (cut_at == 0 && env.to == coordinator->id() &&
        msg->kind == shim::MsgKind::kClientRequest &&
        env.from >= Architecture::kFirstSourceId &&
        arch.simulator()->now() >= Seconds(1)) {
      // The coordinator just launched this request: cut its source off.
      const auto& request = static_cast<const shim::ClientRequestMsg&>(*msg);
      gid = {request.txn.client, request.txn.id};
      cut_at = arch.simulator()->now();
      arch.network()->SetLinkEnabled(gid.client, coordinator->id(), false);
      for (const auto& source : arch.sources()) {
        if (source->id() == gid.client) source->Pause();
      }
    }
    if (env.from == coordinator->id() &&
        msg->kind == shim::MsgKind::kClientRequest) {
      // A fragment: its id is the coordinator's launch number.
      const auto& fragment = static_cast<const shim::ClientRequestMsg&>(*msg);
      launches[fragment.txn.global_id].insert(fragment.txn.id);
    }
    if (cut_at != 0 && env.to == gid.client && env.from == coordinator->id() &&
        msg->kind == shim::MsgKind::kResponse &&
        static_cast<const shim::ResponseMsg&>(*msg).txn_id == gid.id) {
      answers.push_back(!static_cast<const shim::ResponseMsg&>(*msg).aborted);
    }
  });
  arch.Start();
  arch.simulator()->RunUntil(Seconds(2));
  ASSERT_NE(cut_at, 0);
  // The source retransmits 0.4, 1.2, 2.8 and 6.0 s after its request
  // (the timeout doubles); the partition outlasts 5 s, and the other
  // source's traffic stops in time to drain before the heal.
  arch.simulator()->RunUntil(cut_at + Millis(5300));
  for (const auto& source : arch.sources()) source->Pause();
  arch.simulator()->RunUntil(cut_at + Millis(5800));
  EXPECT_TRUE(answers.empty()) << "the partition let the RESPONSE through";
  const LogTrail::CoordOutcome* logged = trail.CoordinatorOutcome(0, gid);
  ASSERT_NE(logged, nullptr) << "gid " << gid << " was never decided";
  EXPECT_TRUE(logged->commit);
  EXPECT_TRUE(coordinator->decisions().contains(gid))
      << "the decision left the log while its client still waited";
  arch.network()->SetLinkEnabled(gid.client, coordinator->id(), true);
  arch.simulator()->RunUntil(cut_at + Seconds(16));

  ASSERT_FALSE(answers.empty()) << "the retransmit was never answered";
  for (bool committed : answers) EXPECT_EQ(committed, logged->commit);
  // Nothing is relaunched: the gid went out in one launch, and every
  // launch the coordinator counted is a distinct gid's first one (the
  // other source's requests that the partition held back launch after
  // the heal, for the first time).
  EXPECT_EQ(launches[gid].size(), 1u) << "gid " << gid << " relaunched";
  EXPECT_EQ(coordinator->txns_coordinated(), launches.size());
  for (const auto& [launched_gid, numbers] : launches) {
    EXPECT_EQ(numbers.size(), 1u) << "gid " << launched_gid << " relaunched";
  }
  const crypto::Digest key = GidKey(gid);
  for (uint32_t s = 0; s < arch.shard_count(); ++s) {
    int applied = 0;
    for (const storage::AuditLog::Entry& entry : trail.decisions[s]) {
      if (entry.txn_digest == key &&
          entry.outcome == storage::AuditLog::Outcome::kApplied) {
        ++applied;
      }
    }
    EXPECT_LE(applied, 1) << "gid applied twice on shard " << s;
  }
  EXPECT_TRUE(CollectTwoPcEvidence(arch, trail).SplitOutcomes().empty());
}

// Workflow chains keep their exactly-once guarantee across a failover:
// dedup state lives in the shard verifiers, so a leader change must not
// let any hop apply twice — even while the successor re-answers retried
// votes from the replicated log.
TEST(CoordinatorFailoverTest, WorkflowHopsExactlyOnceAcrossFailover) {
  SystemConfig config;
  config.shard_count = 2;
  config.shim.n = 4;
  config.shim.batch_size = 2;
  config.shim.checkpoint_interval = 8;
  config.n_e = 3;
  config.f_e = 1;
  config.coordinator_vote_timeout = Millis(600);
  config.coordinator_replicas = 3;
  config.coordinator_heartbeat = Millis(100);
  config.coordinator_failover_timeout = Millis(400);
  config.crypto_mode = crypto::CryptoMode::kFast;
  config.seed = 33;
  config.traffic.open_loop = true;
  config.traffic.sources = 2;
  config.traffic.offered_tps = 120.0;
  config.traffic.family = workload::TrafficFamily::kWorkflow;
  config.traffic.workflow.functions = 4;
  config.traffic.workflow.state_keys_per_function = 200;
  config.traffic.workflow.chain_hops = 3;
  config.traffic.retry_timeout = Millis(400);
  config.traffic.retry_inflight_cap = 32;

  Architecture arch(config);
  LogTrail trail(arch);
  auto schedule = faults::FaultSchedule::Parse(
      "at 1s crash coordinator leader\n");
  ASSERT_TRUE(schedule.ok());
  faults::FaultController controller(&arch);
  ASSERT_TRUE(controller.Install(*schedule).ok());
  arch.Start();
  arch.simulator()->RunUntil(Seconds(6));
  for (const auto& source : arch.sources()) source->Pause();
  arch.simulator()->RunUntil(Seconds(9));

  // Exactly-once is audited from the shards' whole decision logs.
  const TwoPcEvidence evidence = CollectTwoPcEvidence(arch, trail);
  EXPECT_TRUE(evidence.SplitOutcomes().empty());

  uint64_t chains_completed = 0;
  uint64_t chains_seen = 0;
  for (const auto& source : arch.sources()) {
    for (const TrafficSource::ChainRecord& chain : source->chains()) {
      ++chains_seen;
      if (chain.completed) ++chains_completed;
      for (size_t hop = 0; hop < chain.hop_attempts.size(); ++hop) {
        const auto& attempts = chain.hop_attempts[hop];
        int applied_attempts = 0;
        for (TxnId id : attempts) {
          if (evidence.Applied({source->id(), id})) ++applied_attempts;
        }
        EXPECT_LE(applied_attempts, 1)
            << "chain " << chain.chain_id << " hop " << hop
            << " applied twice across the failover";
        if (chain.completed) {
          EXPECT_EQ(applied_attempts, 1)
              << "chain " << chain.chain_id << " hop " << hop
              << " completed without an applied attempt";
        }
      }
    }
  }
  EXPECT_GE(arch.CoordinatorViewChanges(), 1u);
  EXPECT_GT(chains_seen, 100u);
  EXPECT_GT(chains_completed, 50u);
}

}  // namespace
}  // namespace sbft::core
