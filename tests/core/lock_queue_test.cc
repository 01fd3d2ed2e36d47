// Property tests for bounded prepare-lock queueing (the unified commit
// path replacing abort-on-prepare-locked-key): across seeds, the lock
// queue must be deadlock-free — every queued waiter resolves (applied or
// aborted), none outlives the decisions that release its locks — and
// bounded by the configured cap; and queueing must cut the cross-shard-
// induced abort rate versus the abort-on-lock baseline on an identical
// contended workload.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/serverless_bft.h"

#include "twopc_evidence.h"

namespace sbft::core {
namespace {

/// Small keyspace + a high cross-shard fraction so fragment prepare
/// locks collide with plain transactions often.
SystemConfig ContendedConfig(uint64_t seed, uint32_t queue_depth) {
  SystemConfig config;
  config.shard_count = 2;
  config.shim.n = 4;
  config.shim.batch_size = 2;
  config.n_e = 3;
  config.f_e = 1;
  config.num_clients = 16;
  config.workload.record_count = 400;
  config.workload.cross_shard_percentage = 40.0;
  config.crypto_mode = crypto::CryptoMode::kFast;
  config.seed = seed;
  config.prepare_lock_queue_depth = queue_depth;
  return config;
}

struct QueueStats {
  uint64_t queued = 0;
  uint64_t applied = 0;
  uint64_t aborted = 0;
  uint64_t voted = 0;
  uint64_t unresolved = 0;
  uint32_t peak_depth = 0;
  uint64_t client_aborts = 0;
  uint64_t client_completed = 0;
};

QueueStats RunContended(const SystemConfig& config, SimDuration duration) {
  Architecture arch(config);
  LogTrail trail(arch);
  arch.Start();
  arch.simulator()->RunUntil(duration);
  QueueStats stats;
  for (uint32_t s = 0; s < arch.shard_count(); ++s) {
    const verifier::Verifier* v = arch.plane(s)->verifier();
    stats.queued += v->lock_waits_queued();
    stats.applied += v->lock_waits_applied();
    stats.aborted += v->lock_waits_aborted();
    stats.voted += v->lock_waits_voted();
    stats.unresolved += v->lock_waiters();
    stats.peak_depth = std::max(stats.peak_depth, v->lock_queue_peak_depth());
    EXPECT_TRUE(v->audit_log().VerifyChain());
    EXPECT_TRUE(v->decision_log().VerifyChain());
  }
  stats.client_aborts = arch.TotalAborted();
  stats.client_completed = arch.TotalCompleted();

  // Atomicity must survive queueing: no gid applied on one shard and
  // aborted on another.
  EXPECT_TRUE(CollectTwoPcEvidence(arch, trail).SplitOutcomes().empty());
  return stats;
}

TEST(LockQueueTest, WaitersResolveBoundedAcrossSeeds) {
  constexpr uint32_t kDepth = 4;
  for (uint64_t seed : {3u, 11u, 29u, 57u, 101u}) {
    SystemConfig config = ContendedConfig(seed, kDepth);
    QueueStats stats = RunContended(config, Seconds(3));
    SCOPED_TRACE("seed " + std::to_string(seed));
    // Conservation: every waiter ever queued either resolved — a plain
    // transaction applied or aborted, a fragment moved on to its
    // prepare/vote step — or is still parked behind an in-flight 2PC
    // fragment at the horizon. None vanishes. A waiter can only be
    // parked while its blocking fragment awaits a decision, so
    // `unresolved` is bounded by in-flight 2PC, not by history.
    EXPECT_EQ(stats.queued, stats.applied + stats.aborted + stats.voted +
                                stats.unresolved);
    EXPECT_LE(stats.unresolved, 64u);
    // Bounded: no key's FIFO ever exceeded the configured cap.
    EXPECT_LE(stats.peak_depth, kDepth);
  }
}

TEST(LockQueueTest, QueueingExercisedAndMostWaitersApply) {
  // At least one seed must actually drive the queue machinery (otherwise
  // the properties above pass vacuously), and queued waiters should
  // overwhelmingly apply — the lock-holder's decision arrives in
  // milliseconds and the data is still current.
  uint64_t total_queued = 0;
  uint64_t total_resolved_useful = 0;
  for (uint64_t seed : {3u, 11u, 29u}) {
    QueueStats stats = RunContended(ContendedConfig(seed, 4), Seconds(3));
    total_queued += stats.queued;
    total_resolved_useful += stats.applied + stats.voted;
  }
  EXPECT_GT(total_queued, 20u) << "workload too tame to exercise queueing";
  EXPECT_GT(total_resolved_useful * 2, total_queued)
      << "queued waiters mostly aborting defeats the point of queueing";
}

TEST(LockQueueTest, ConflictAvoidanceHoldsBatchesOnPrepareLocks) {
  // The spawner tier of the unified path: in §VI-C conflict-avoidance
  // mode the primary's lock stage reads the verifier's prepare-lock
  // table, so batches colliding with in-flight 2PC fragments are held
  // back (and re-driven by the decision-release callback) instead of
  // being proposed into a certain abort.
  SystemConfig config = ContendedConfig(/*seed=*/17, /*queue_depth=*/4);
  config.conflict_avoidance = true;
  config.conflicts_possible = true;
  config.n_e = 4;
  config.workload.rw_sets_known = true;
  Architecture arch(config);
  arch.Start();
  arch.simulator()->RunUntil(Seconds(3));

  uint64_t held = 0;
  uint64_t spawned = 0;
  for (uint32_t s = 0; s < arch.shard_count(); ++s) {
    held += arch.plane(s)->spawner()->batches_held_on_prepare_locks();
    spawned += arch.plane(s)->spawner()->batches_spawned();
  }
  EXPECT_GT(held, 0u) << "lock stage never consulted the prepare locks";
  EXPECT_GT(spawned, 100u) << "held batches must be re-driven, not stuck";
  EXPECT_GT(arch.TotalCompleted(), 100u);
}

TEST(LockQueueTest, QueueingCutsAbortRateVersusAbortOnLock) {
  // The headline claim: on the same contended cross-shard workload,
  // bounded queueing strictly reduces client-visible aborts versus the
  // abort-on-prepare-locked-key baseline (queue depth 0).
  uint64_t baseline_aborts = 0;
  uint64_t queueing_aborts = 0;
  for (uint64_t seed : {3u, 11u, 29u}) {
    QueueStats baseline = RunContended(ContendedConfig(seed, 0), Seconds(3));
    QueueStats queueing = RunContended(ContendedConfig(seed, 4), Seconds(3));
    baseline_aborts += baseline.client_aborts;
    queueing_aborts += queueing.client_aborts;
    EXPECT_EQ(baseline.queued, 0u);  // Depth 0 must never queue.
  }
  EXPECT_LT(queueing_aborts, baseline_aborts)
      << "queueing failed to cut the cross-shard-induced abort rate";
}

TEST(LockQueueTest, AbortRateUnderCeilingOnHotCrossShardWorkload) {
  // Hot-key conflicts on a third of the transactions and half of them
  // cross-shard, at batch 50 and 400 clients: ccheck conflicts and
  // prepare-lock collisions both bind. Queueing at depth 8 keeps the
  // abort rate at or below 45% and under the abort-on-lock rate.
  auto abort_rate = [](uint32_t queue_depth) {
    SystemConfig config;
    config.shard_count = 2;
    config.shim.n = 4;
    config.shim.batch_size = 50;
    config.shim.pipeline_width = 96;
    config.n_e = 4;  // 3f_E + 1 (§VI-B).
    config.f_e = 1;
    config.num_clients = 400;
    config.client_timeout = Seconds(12);
    config.shim.request_timeout = Seconds(4);
    config.shim.retransmit_timeout = Seconds(3);
    config.shim.view_change_timeout = Seconds(6);
    config.workload.record_count = 2000;
    config.workload.conflict_percentage = 30.0;
    config.workload.hot_keys = 8;
    config.workload.cross_shard_percentage = 50.0;
    config.conflicts_possible = true;
    config.verifier_match_timeout = Millis(400);
    config.prepare_lock_queue_depth = queue_depth;
    config.crypto_mode = crypto::CryptoMode::kFast;
    config.seed = 2023;
    return RunExperiment(config, Seconds(0.4), Seconds(1.0)).abort_rate;
  };
  const double queueing = abort_rate(8);
  const double abort_on_lock = abort_rate(0);
  EXPECT_LE(queueing, 0.45);
  EXPECT_LT(queueing, abort_on_lock);
}

}  // namespace
}  // namespace sbft::core
