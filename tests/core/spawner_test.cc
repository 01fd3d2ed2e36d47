// Unit tests for the spawner: §VI-B decentralized-spawning arithmetic
// (eq. (1)/(2)), §VI-C lock-stage ordering, respawn caching, and the
// byzantine spawning policies.

#include "core/spawner.h"

#include <gtest/gtest.h>

#include "core/architecture.h"
#include "sim/region.h"
#include "verifier/verifier.h"

namespace sbft::core {
namespace {

class SpawnerTest : public ::testing::Test {
 protected:
  SpawnerTest()
      : sim_(5),
        net_(&sim_, sim::RegionTable::Aws11(), {}),
        keys_(crypto::CryptoMode::kFast, 9) {
    for (ActorId id = 1; id <= 8; ++id) keys_.RegisterNode(id);
  }

  Spawner MakeSpawner(SystemConfig config) {
    config_ = config;
    cloud_ = std::make_unique<serverless::CloudSimulator>(
        &sim_, &net_, &keys_, config.cloud, 7000);
    return Spawner(config_, cloud_.get(), &keys_, &sim_, /*verifier=*/901,
                   /*storage=*/902);
  }

  workload::TransactionBatch MakeBatch(std::vector<std::string> write_keys) {
    workload::TransactionBatch batch;
    workload::Transaction txn;
    txn.id = next_txn_id_++;
    txn.client = 500;
    for (const std::string& key : write_keys) {
      workload::Operation op;
      op.type = workload::OpType::kWrite;
      op.key = key;
      op.value = ToBytes("v");
      txn.ops.push_back(op);
    }
    batch.txns.push_back(workload::ShareTxn(txn));
    return batch;
  }

  // The registry holds the keys of live executors and of finished ones
  // whose sequence has not settled, not of every executor ever spawned.
  // Batches without operations skip the storage fetch, so their
  // executors finish within one step.
  Spawner ExpectExecutorKeysBoundedBySettleLag(Protocol protocol) {
    SystemConfig config;
    config.protocol = protocol;
    config.shim.n = 4;
    config.n_e = 3;
    Spawner spawner = MakeSpawner(config);
    const size_t static_keys = keys_.size();
    constexpr SeqNum kWidth = 8;
    constexpr SeqNum kLag = 20;
    SeqNum committed = 0;
    for (SeqNum base = 1; base <= 400; base += kWidth) {
      for (SeqNum i = kWidth; i-- > 0;) Commit(spawner, base + i, {});
      committed = base + kWidth - 1;
      sim_.RunUntil(sim_.now() + Millis(200));
      if (committed > kLag) spawner.OnResponse(committed - kLag);
      EXPECT_LE(keys_.size() - static_keys,
                (committed - spawner.settled_seq()) * config.n_e +
                    cloud_->active_executors());
    }
    EXPECT_EQ(spawner.executors_spawned(), 400u * config.n_e);
    sim_.RunUntil(sim_.now() + Seconds(1));
    EXPECT_EQ(cloud_->active_executors(), 0);
    EXPECT_EQ(keys_.size() - static_keys, kLag * config.n_e);
    return spawner;
  }

  crypto::CertPtr MakeCert(SeqNum seq, const workload::BatchPtr& b) {
    auto cert = std::make_shared<crypto::CommitCertificate>();
    cert->seq = seq;
    cert->digest = b->Hash();
    Bytes signing = crypto::CommitSigningBytes(0, seq, cert->digest);
    for (ActorId id = 1; id <= 3; ++id) {
      cert->signatures.push_back({id, keys_.Sign(id, signing)});
    }
    return cert;
  }

  void Commit(Spawner& spawner, SeqNum seq,
              std::vector<std::string> write_keys, bool is_primary = true,
              shim::ByzantineBehavior behavior = {}) {
    workload::BatchPtr batch =
        workload::ShareBatch(MakeBatch(std::move(write_keys)));
    spawner.OnCommit(1, is_primary, behavior, seq, 0, batch,
                     MakeCert(seq, batch));
  }

  sim::Simulator sim_;
  sim::Network net_;
  crypto::KeyRegistry keys_;
  SystemConfig config_;
  std::unique_ptr<serverless::CloudSimulator> cloud_;
  TxnId next_txn_id_ = 1;
};

TEST_F(SpawnerTest, PrimaryOnlySpawnsNeExecutors) {
  SystemConfig config;
  config.shim.n = 4;
  config.n_e = 3;
  config.f_e = 1;
  Spawner spawner = MakeSpawner(config);
  Commit(spawner, 1, {"a"});
  EXPECT_EQ(spawner.executors_spawned(), 3u);
  Commit(spawner, 2, {"b"}, /*is_primary=*/false);
  EXPECT_EQ(spawner.executors_spawned(), 3u);  // Non-primary: none.
}

TEST_F(SpawnerTest, ConflictModeSpawnsThreeFePlusOne) {
  SystemConfig config;
  config.shim.n = 4;
  config.n_e = 3;
  config.f_e = 1;
  config.conflicts_possible = true;  // §VI-B: 3f_E+1.
  Spawner spawner = MakeSpawner(config);
  Commit(spawner, 1, {"a"});
  EXPECT_EQ(spawner.executors_spawned(), 4u);
}

TEST_F(SpawnerTest, DecentralizedEquationOne) {
  // n_E <= n_R: every node spawns exactly one executor (eq. (1)).
  SystemConfig config;
  config.shim.n = 4;
  config.n_e = 3;
  config.f_e = 1;
  config.spawn_mode = SpawnMode::kDecentralized;
  Spawner spawner = MakeSpawner(config);
  Commit(spawner, 1, {"a"}, /*is_primary=*/true);
  EXPECT_EQ(spawner.executors_spawned(), 1u);
  Commit(spawner, 1, {"a"}, /*is_primary=*/false);  // Another node.
  EXPECT_EQ(spawner.executors_spawned(), 2u);
}

TEST_F(SpawnerTest, DecentralizedEquationOneCeiling) {
  // n_E > n_R: each node spawns ceil(n_E / (2f_R+1)) (eq. (1) second case).
  SystemConfig config;
  config.shim.n = 4;  // quorum = 3.
  config.n_e = 7;
  config.f_e = 3;
  config.spawn_mode = SpawnMode::kDecentralized;
  Spawner spawner = MakeSpawner(config);
  Commit(spawner, 1, {"a"}, /*is_primary=*/false);
  EXPECT_EQ(spawner.executors_spawned(), 3u);  // ceil(7/3).
}

TEST_F(SpawnerTest, ByzantineFewerExecutors) {
  SystemConfig config;
  config.shim.n = 4;
  config.n_e = 3;
  Spawner spawner = MakeSpawner(config);
  shim::ByzantineBehavior behavior;
  behavior.byzantine = true;
  behavior.spawn_count_override = 1;
  Commit(spawner, 1, {"a"}, true, behavior);
  EXPECT_EQ(spawner.executors_spawned(), 1u);
}

TEST_F(SpawnerTest, ByzantineDuplicateSpawns) {
  SystemConfig config;
  config.shim.n = 4;
  config.n_e = 3;
  Spawner spawner = MakeSpawner(config);
  shim::ByzantineBehavior behavior;
  behavior.byzantine = true;
  behavior.duplicate_spawns = 2;
  Commit(spawner, 1, {"a"}, true, behavior);
  EXPECT_EQ(spawner.executors_spawned(), 9u);  // 3 sets of 3.
}

TEST_F(SpawnerTest, ByzantineDelayedSpawning) {
  SystemConfig config;
  config.shim.n = 4;
  config.n_e = 3;
  Spawner spawner = MakeSpawner(config);
  shim::ByzantineBehavior behavior;
  behavior.byzantine = true;
  behavior.spawn_delay = Millis(100);
  Commit(spawner, 1, {"a"}, true, behavior);
  EXPECT_EQ(spawner.executors_spawned(), 0u);  // Still pending.
  sim_.RunUntil(Millis(150));
  EXPECT_EQ(spawner.executors_spawned(), 3u);
}

TEST_F(SpawnerTest, RespawnUsesCachedWork) {
  SystemConfig config;
  config.shim.n = 4;
  config.n_e = 3;
  Spawner spawner = MakeSpawner(config);
  Commit(spawner, 1, {"a"});
  EXPECT_EQ(spawner.executors_spawned(), 3u);
  spawner.OnRespawn(1);
  EXPECT_EQ(spawner.executors_spawned(), 6u);
  spawner.OnRespawn(99);  // Unknown sequence: no-op.
  EXPECT_EQ(spawner.executors_spawned(), 6u);
}

TEST_F(SpawnerTest, RespawnWorksEvenIfOnlyBackupCommitted) {
  // A backup's commit records the EXECUTE payload, so a new primary can
  // respawn work the old primary never spawned.
  SystemConfig config;
  config.shim.n = 4;
  config.n_e = 3;
  Spawner spawner = MakeSpawner(config);
  Commit(spawner, 5, {"x"}, /*is_primary=*/false);
  EXPECT_EQ(spawner.executors_spawned(), 0u);
  spawner.OnRespawn(5);
  EXPECT_EQ(spawner.executors_spawned(), 3u);
}

TEST_F(SpawnerTest, RespawnSkipsSettledSequences) {
  // The verifier drops VERIFYs of a settled sequence, so only an
  // unsettled one is worth new executors.
  SystemConfig config;
  config.shim.n = 4;
  config.n_e = 3;
  Spawner spawner = MakeSpawner(config);
  Commit(spawner, 1, {"a"});
  Commit(spawner, 2, {"b"});
  EXPECT_EQ(spawner.executors_spawned(), 6u);
  spawner.OnResponse(1);  // The verifier settled seq 1.
  EXPECT_EQ(spawner.settled_seq(), 1u);
  spawner.OnRespawn(2);  // Unsettled: n_E executors.
  EXPECT_EQ(spawner.executors_spawned(), 9u);
  spawner.OnRespawn(1);  // Settled: none.
  EXPECT_EQ(spawner.executors_spawned(), 9u);
  // A late backup commit of a settled sequence is not cached again.
  Commit(spawner, 1, {"a"}, /*is_primary=*/false);
  spawner.OnRespawn(1);
  EXPECT_EQ(spawner.executors_spawned(), 9u);
  EXPECT_EQ(spawner.respawn_cache_size(), 1u);  // Seq 2 only.
}

TEST_F(SpawnerTest, RespawnCacheBoundedBySettleLag) {
  // Hundreds of batches, committed out of order within a pipeline window
  // and settled `kLag` sequences behind: the cache holds only what the
  // verifier has not settled, not the run's history.
  SystemConfig config;
  config.shim.n = 4;
  config.n_e = 3;
  Spawner spawner = MakeSpawner(config);
  constexpr SeqNum kWidth = 8;
  constexpr SeqNum kLag = 20;
  SeqNum committed = 0;
  for (SeqNum base = 1; base <= 400; base += kWidth) {
    for (SeqNum i = kWidth; i-- > 0;) {
      Commit(spawner, base + i, {"k"}, /*is_primary=*/false);
    }
    committed = base + kWidth - 1;
    if (committed > kLag) spawner.OnResponse(committed - kLag);
    EXPECT_LE(spawner.respawn_cache_size(),
              committed - spawner.settled_seq() + kWidth);
  }
  EXPECT_EQ(committed, 400u);
  EXPECT_EQ(spawner.respawn_cache_size(), kLag);
}

TEST_F(SpawnerTest, ExecutorKeysBoundedBySettleLag) {
  ExpectExecutorKeysBoundedBySettleLag(Protocol::kServerlessBft);
}

TEST_F(SpawnerTest, CftPlaneExecutorKeysBoundedBySettleLag) {
  // The crash-fault shim reports settles too, so its executors' keys
  // retire at the same bound; it never asks for respawns, so it caches
  // no EXECUTE payload.
  Spawner spawner =
      ExpectExecutorKeysBoundedBySettleLag(Protocol::kServerlessCft);
  EXPECT_EQ(spawner.respawn_cache_size(), 0u);
}

TEST(ExecutorKeyRetirementTest, ReplayedVerifyFromRetiredExecutorIsFlooding) {
  // An honest run retires executor keys as sequences settle. Every
  // VERIFY the verifier received from an executor whose key is gone must,
  // replayed, meet the flooding filter (§V-C) before any signature
  // lookup: counted in flooding_ignored, never in rejected_verifies.
  SystemConfig config;
  config.shim.n = 4;
  config.shim.batch_size = 2;
  config.n_e = 3;
  config.f_e = 1;
  config.num_clients = 8;
  config.workload.record_count = 1000;
  config.crypto_mode = crypto::CryptoMode::kFast;
  config.seed = 31;
  Architecture arch(config);
  const size_t static_keys = arch.keys()->size();
  const ActorId verifier_id = arch.plane(0)->verifier_id();
  std::vector<sim::Envelope> verifies;
  arch.network()->SetDeliveryObserver([&](const sim::Envelope& env) {
    const auto* msg = static_cast<const shim::Message*>(env.message.get());
    if (env.to == verifier_id && msg->kind == shim::MsgKind::kVerify) {
      verifies.push_back(env);
    }
  });
  arch.Start();
  arch.RunUntil(Seconds(3));

  verifier::Verifier* verifier = arch.verifier();
  EXPECT_EQ(verifier->rejected_verifies(), 0u);
  const uint64_t spawned = arch.spawner()->executors_spawned();
  ASSERT_GT(spawned, 600u);
  EXPECT_LT(arch.keys()->size() - static_keys, spawned / 10);

  const uint64_t ignored = verifier->flooding_ignored();
  uint64_t replayed = 0;
  for (const sim::Envelope& env : verifies) {
    if (arch.keys()->IsRegistered(env.from)) continue;
    verifier->OnMessage(env);
    ++replayed;
  }
  EXPECT_GT(replayed, 600u);
  EXPECT_EQ(verifier->flooding_ignored(), ignored + replayed);
  EXPECT_EQ(verifier->rejected_verifies(), 0u);
}

TEST_F(SpawnerTest, LockStageSerializesConflictingBatches) {
  SystemConfig config;
  config.shim.n = 4;
  config.n_e = 3;
  config.conflict_avoidance = true;
  config.workload.rw_sets_known = true;
  Spawner spawner = MakeSpawner(config);

  Commit(spawner, 1, {"hot"});
  EXPECT_EQ(spawner.batches_spawned(), 1u);
  Commit(spawner, 2, {"hot"});  // Conflicts with seq 1: queued.
  EXPECT_EQ(spawner.batches_spawned(), 1u);
  EXPECT_EQ(spawner.batches_queued_on_conflict(), 1u);

  spawner.OnResponse(1);  // Verifier settles seq 1 -> unlock -> drain.
  EXPECT_EQ(spawner.batches_spawned(), 2u);
  EXPECT_EQ(spawner.locked_keys(), 1u);  // Seq 2 now holds "hot".
}

TEST_F(SpawnerTest, LockStageAllowsSafeOvertaking) {
  SystemConfig config;
  config.shim.n = 4;
  config.n_e = 3;
  config.conflict_avoidance = true;
  config.workload.rw_sets_known = true;
  Spawner spawner = MakeSpawner(config);

  Commit(spawner, 1, {"hot"});       // Spawns, holds "hot".
  Commit(spawner, 2, {"hot"});       // Waits on seq 1.
  Commit(spawner, 3, {"cold"});      // Independent: may overtake seq 2.
  EXPECT_EQ(spawner.batches_spawned(), 2u);  // Seqs 1 and 3.

  Commit(spawner, 4, {"hot"});       // Must NOT overtake waiting seq 2.
  EXPECT_EQ(spawner.batches_spawned(), 2u);

  spawner.OnResponse(1);
  EXPECT_EQ(spawner.batches_spawned(), 3u);  // Seq 2 goes.
  spawner.OnResponse(2);
  EXPECT_EQ(spawner.batches_spawned(), 4u);  // Then seq 4.
}

TEST_F(SpawnerTest, LockStageAdmitsInSequenceOrder) {
  // Out-of-order commits must not leapfrog the lock stage.
  SystemConfig config;
  config.shim.n = 4;
  config.n_e = 3;
  config.conflict_avoidance = true;
  config.workload.rw_sets_known = true;
  Spawner spawner = MakeSpawner(config);

  Commit(spawner, 2, {"k"});  // Arrives before seq 1.
  EXPECT_EQ(spawner.batches_spawned(), 0u);  // Held back.
  Commit(spawner, 1, {"k"});
  // Seq 1 locks and spawns; seq 2 conflicts and waits.
  EXPECT_EQ(spawner.batches_spawned(), 1u);
  spawner.OnResponse(1);
  EXPECT_EQ(spawner.batches_spawned(), 2u);
}

TEST_F(SpawnerTest, ThrottledSpawnsCounted) {
  SystemConfig config;
  config.shim.n = 4;
  config.n_e = 3;
  config.cloud.max_concurrent = 2;
  Spawner spawner = MakeSpawner(config);
  Commit(spawner, 1, {"a"});
  EXPECT_EQ(spawner.executors_spawned(), 2u);
  EXPECT_EQ(spawner.spawn_throttled(), 1u);
}

}  // namespace
}  // namespace sbft::core
