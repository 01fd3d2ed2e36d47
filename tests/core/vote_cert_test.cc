// Tests for the share-based 2PC vote-certificate transport (ISSUE-6):
// shard verifiers sign each prepare vote as a VoteShare and batch one
// kShardVoteCert message per coordinator per settle round; the
// coordinator batch-verifies the shares, guards every share's sender,
// and attaches the full quorum certificate to COMMIT decisions, which
// participants validate before applying. The headline properties: a
// forged or mis-attributed share can never enter a quorum, a COMMIT
// without a valid proof can never release prepare state, and the
// aggregation genuinely reduces vote messages below vote count.

#include <gtest/gtest.h>

#include "core/serverless_bft.h"
#include "crypto/certificate.h"
#include "crypto/sha256.h"
#include "sim/region.h"
#include "verifier/verifier.h"

namespace sbft::core {
namespace {

SystemConfig CertConfig(uint32_t shards, double cross_pct) {
  SystemConfig config;
  config.shard_count = shards;
  config.shim.n = 4;
  config.shim.batch_size = 4;
  config.n_e = 3;
  config.f_e = 1;
  config.num_clients = 16;
  config.workload.record_count = 20000;
  config.workload.cross_shard_percentage = cross_pct;
  config.crypto_mode = crypto::CryptoMode::kFast;
  config.seed = 11;
  return config;
}

TEST(VoteCertTest, CommitDecisionsCarryValidatedQuorumProof) {
  Architecture arch(CertConfig(2, 30.0));
  arch.Start();
  arch.simulator()->RunUntil(Seconds(3));

  TxnCoordinator* coord = arch.coordinator();
  ASSERT_NE(coord, nullptr);
  EXPECT_GT(coord->commits_decided(), 0u);
  EXPECT_GT(coord->vote_cert_msgs(), 0u);
  EXPECT_EQ(coord->vote_certs_rejected(), 0u);

  size_t commits_checked = 0;
  for (const auto& [gid, rec] : coord->decisions()) {
    if (!rec.commit) continue;
    ++commits_checked;
    ASSERT_FALSE(rec.proof.shares.empty())
        << "COMMIT for gtxn " << gid.id << " logged without a quorum proof";
    EXPECT_TRUE(rec.proof.Validate(*arch.keys()).ok());
    for (const crypto::VoteShare& share : rec.proof.shares) {
      EXPECT_EQ(share.global_id, gid.id);
      EXPECT_EQ(share.client, gid.client);
      EXPECT_TRUE(share.commit) << "a NO share inside a COMMIT proof";
    }
  }
  EXPECT_GT(commits_checked, 0u);
  // Every decision the coordinator actually sent validated at the
  // shards — an honest pairing never trips the proof check.
  for (uint32_t s = 0; s < arch.shard_count(); ++s) {
    EXPECT_EQ(arch.plane(s)->verifier()->decisions_rejected(), 0u);
    EXPECT_GT(arch.plane(s)->verifier()->vote_certs_sent(), 0u);
  }
}

TEST(VoteCertTest, SharesAggregateIntoFewerMessages) {
  // High cross-shard share + bigger batches so settle rounds carry
  // several fragments: the acceptance property is K shares per
  // certificate message, not one message per vote.
  SystemConfig config = CertConfig(2, 60.0);
  config.shim.batch_size = 8;
  Architecture arch(config);
  arch.Start();
  arch.simulator()->RunUntil(Seconds(3));

  TxnCoordinator* coord = arch.coordinator();
  ASSERT_NE(coord, nullptr);
  EXPECT_GT(coord->vote_cert_msgs(), 0u);
  // Strictly more logical votes than certificate messages = real
  // aggregation happened (certs with a single share, e.g. retries,
  // are allowed but cannot dominate).
  EXPECT_GT(coord->votes_received(), coord->vote_cert_msgs());
  uint64_t certs_sent = 0;
  for (uint32_t s = 0; s < arch.shard_count(); ++s) {
    certs_sent += arch.plane(s)->verifier()->vote_certs_sent();
  }
  EXPECT_GE(certs_sent, coord->vote_cert_msgs());
}

TEST(VoteCertTest, MisattributedShareRejectsWholeCertificate) {
  Architecture arch(CertConfig(2, 30.0));
  arch.Start();
  arch.simulator()->RunUntil(Seconds(1));
  TxnCoordinator* coord = arch.coordinator();
  ASSERT_NE(coord, nullptr);
  uint64_t votes_before = coord->votes_received();
  uint64_t rejected_before = coord->vote_certs_rejected();

  // Shard 1's verifier casting shard 0's vote: the per-share sender
  // guard must drop the certificate before any share is processed.
  auto msg =
      std::make_shared<shim::ShardVoteCertMsg>(ShardPlane::VerifierId(1));
  crypto::VoteShare share;
  share.global_id = 424242;
  share.shard = 0;
  share.seq = 1;
  share.commit = true;
  share.signer = ShardPlane::VerifierId(0);
  share.sig = arch.keys()->Sign(
      ShardPlane::VerifierId(0),
      crypto::VoteSigningBytes(share.gid(), 0, 1, true));
  msg->cert.shares.push_back(share);
  sim::Envelope env;
  env.from = ShardPlane::VerifierId(1);
  env.to = coord->id();
  env.wire_bytes = msg->WireSize();
  env.message = msg;
  coord->OnMessage(env);

  EXPECT_EQ(coord->votes_received(), votes_before);
  EXPECT_EQ(coord->vote_certs_rejected(), rejected_before + 1);
}

TEST(VoteCertTest, TamperedShareSignatureRejectsWholeCertificate) {
  Architecture arch(CertConfig(2, 30.0));
  arch.Start();
  arch.simulator()->RunUntil(Seconds(1));
  TxnCoordinator* coord = arch.coordinator();
  ASSERT_NE(coord, nullptr);
  uint64_t votes_before = coord->votes_received();
  uint64_t rejected_before = coord->vote_certs_rejected();

  // Right sender, right shard slot — garbage signature. The sender
  // guard passes; the batch verification must not.
  auto msg =
      std::make_shared<shim::ShardVoteCertMsg>(ShardPlane::VerifierId(0));
  crypto::VoteShare share;
  share.global_id = 424242;
  share.shard = 0;
  share.seq = 1;
  share.commit = true;
  share.signer = ShardPlane::VerifierId(0);
  share.sig = Bytes(16, 0xff);
  msg->cert.shares.push_back(share);
  sim::Envelope env;
  env.from = ShardPlane::VerifierId(0);
  env.to = coord->id();
  env.wire_bytes = msg->WireSize();
  env.message = msg;
  coord->OnMessage(env);

  EXPECT_EQ(coord->votes_received(), votes_before);
  EXPECT_EQ(coord->vote_certs_rejected(), rejected_before + 1);
}

// ---------------------------------------------------------------------------
// Verifier-side proof enforcement, driven directly: a prepared fragment
// must not apply on a COMMIT whose quorum proof is absent or forged.
// ---------------------------------------------------------------------------

struct SinkActor : sim::Actor {
  explicit SinkActor(ActorId id) : Actor(id, "sink") {}
  void OnMessage(const sim::Envelope& env) override {
    msgs.push_back(
        std::static_pointer_cast<const shim::Message>(env.message));
  }
  size_t CountKind(shim::MsgKind kind) const {
    size_t n = 0;
    for (const auto& m : msgs) n += m->kind == kind ? 1 : 0;
    return n;
  }
  std::vector<std::shared_ptr<const shim::Message>> msgs;
};

TEST(VoteCertTest, ProoflessCommitDecisionNeverAppliesAtVerifier) {
  constexpr ActorId kVerifier = 999;
  constexpr ActorId kCoordinator = kCoordinatorBaseId;
  constexpr ActorId kExec1 = 200;
  constexpr ActorId kExec2 = 201;
  constexpr TxnKey kGid{Architecture::kFirstClientId, 777};
  constexpr TxnId kFragId = 1;  // The coordinator's first launch.

  sim::Simulator sim(7);
  sim::Network net(&sim, sim::RegionTable::Aws11(), {});
  crypto::KeyRegistry keys(crypto::CryptoMode::kFast, 5);
  for (ActorId id = 1; id <= 4; ++id) keys.RegisterNode(id);
  keys.RegisterNode(kVerifier);
  keys.RegisterNode(kCoordinator);
  keys.RegisterNode(kExec1);
  keys.RegisterNode(kExec2);
  storage::KvStore store;
  store.Put("user1", ToBytes("a"));

  verifier::VerifierConfig vconfig;
  vconfig.f_e = 1;
  vconfig.shim_quorum = 3;
  vconfig.shard = 0;
  verifier::Verifier verifier(kVerifier, vconfig, &store, &keys, &sim, &net,
                              std::vector<ActorId>{1, 2, 3, 4});
  net.Register(&verifier, 0);
  SinkActor coordinator(kCoordinator);
  net.Register(&coordinator, 0);

  // A quorum (f_E+1 = 2) of identical VERIFYs carrying one cross-shard
  // fragment: the verifier prepares it, locks its keys, and votes YES
  // through the certificate transport.
  crypto::Digest digest = crypto::Sha256::Hash("frag-batch");
  storage::RwSet rw;
  rw.reads.push_back({"user1", store.VersionOf("user1")});
  rw.writes.push_back({"user1", ToBytes("committed")});
  crypto::CommitCertificate cert;
  cert.view = 0;
  cert.seq = 1;
  cert.digest = digest;
  Bytes commit_bytes = crypto::CommitSigningBytes(0, 1, digest);
  for (ActorId id = 1; id <= 3; ++id) {
    cert.signatures.push_back({id, keys.Sign(id, commit_bytes)});
  }
  for (ActorId executor : {kExec1, kExec2}) {
    auto msg = std::make_shared<shim::VerifyMsg>(executor);
    msg->view = 0;
    msg->seq = 1;
    msg->batch_digest = digest;
    msg->cert = std::make_shared<const crypto::CommitCertificate>(cert);
    msg->txn_refs.push_back(
        {kFragId, kCoordinator, kFragId - 1, kGid, kCoordinator});
    msg->txn_rws.push_back(rw);
    msg->result = ToBytes("r");
    msg->executor_sig = keys.Sign(
        executor,
        shim::VerifyMsg::SigningBytes(0, 1, digest, msg->txn_rws, msg->result));
    sim::Envelope env;
    env.from = executor;
    env.to = kVerifier;
    env.wire_bytes = msg->WireSize();
    env.message = msg;
    verifier.OnMessage(env);
  }
  sim.RunUntil(Millis(100));  // Flush the vote send.
  EXPECT_EQ(verifier.twopc_votes_yes(), 1u);
  EXPECT_GT(verifier.prepare_locks_held(), 0u);
  EXPECT_GE(coordinator.CountKind(shim::MsgKind::kShardVoteCert), 1u);

  auto decide = [&](const crypto::VoteCertificate* proof) {
    auto decision = std::make_shared<shim::ShardCommitDecisionMsg>(
        kCoordinator);
    decision->global_id = kGid;
    decision->commit = true;
    if (proof != nullptr) decision->proof = *proof;
    sim::Envelope env;
    env.from = kCoordinator;
    env.to = kVerifier;
    env.wire_bytes = decision->WireSize();
    env.message = decision;
    verifier.OnMessage(env);
  };

  // 1. COMMIT without any proof: dropped, nothing applies.
  decide(nullptr);
  EXPECT_EQ(verifier.twopc_committed(), 0u);
  EXPECT_EQ(verifier.decisions_rejected(), 1u);
  EXPECT_GT(verifier.prepare_locks_held(), 0u);

  // 2. COMMIT with a proof whose share signature is forged: dropped.
  crypto::VoteCertificate forged;
  crypto::VoteShare bad;
  bad.global_id = kGid.id;
  bad.client = kGid.client;
  bad.shard = 0;
  bad.seq = 1;
  bad.commit = true;
  bad.signer = kVerifier;
  bad.sig = Bytes(16, 0xab);
  forged.shares.push_back(bad);
  decide(&forged);
  EXPECT_EQ(verifier.twopc_committed(), 0u);
  EXPECT_EQ(verifier.decisions_rejected(), 2u);

  // 3. COMMIT with the genuine share: applies and releases the locks.
  crypto::VoteCertificate good = forged;
  good.shares[0].sig =
      keys.Sign(kVerifier, crypto::VoteSigningBytes(kGid, 0, 1, true));
  decide(&good);
  EXPECT_EQ(verifier.twopc_committed(), 1u);
  EXPECT_EQ(verifier.prepare_locks_held(), 0u);
  storage::VersionedValue vv;
  ASSERT_TRUE(store.Get("user1", &vv).ok());
  EXPECT_EQ(vv.value, ToBytes("committed"));
}

}  // namespace
}  // namespace sbft::core
