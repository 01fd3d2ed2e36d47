#include "verifier/verifier.h"

#include <gtest/gtest.h>

#include "crypto/certificate.h"
#include "crypto/sha256.h"
#include "sim/region.h"

namespace sbft::verifier {
namespace {

constexpr ActorId kClient = 300;
constexpr ActorId kFirstExecutor = 200;

/// Records every message delivered to it.
struct RecorderActor : sim::Actor {
  explicit RecorderActor(ActorId id) : Actor(id, "recorder") {}
  void OnMessage(const sim::Envelope& env) override {
    msgs.push_back(std::static_pointer_cast<const shim::Message>(env.message));
  }
  size_t CountKind(shim::MsgKind kind) const {
    size_t n = 0;
    for (const auto& m : msgs) {
      if (m->kind == kind) ++n;
    }
    return n;
  }
  std::vector<std::shared_ptr<const shim::Message>> msgs;
};

class VerifierTest : public ::testing::Test {
 protected:
  VerifierTest()
      : sim_(321),
        net_(&sim_, sim::RegionTable::Aws11(), {}),
        keys_(crypto::CryptoMode::kFast, 5),
        client_(kClient),
        shim_sink_(400) {
    for (ActorId id = 1; id <= 4; ++id) keys_.RegisterNode(id);  // Shim.
    for (ActorId id = kFirstExecutor; id < kFirstExecutor + 10; ++id) {
      keys_.RegisterNode(id);
    }
    keys_.RegisterNode(kClient);
    store_.Put("user1", ToBytes("a"));  // version 1.
    store_.Put("user2", ToBytes("b"));  // version 1.

    BuildVerifier(/*conflicts=*/false);
    net_.Register(&client_, 0);
    net_.Register(&shim_sink_, 0);
    // Route shim broadcasts to one observable sink by aliasing node 1.
  }

  /// (Re)builds the verifier; `conflicts` enables the §VI regime with
  /// abort timer `timeout`, and `queue_depth` caps each prepare-lock
  /// queue.
  void BuildVerifier(
      bool conflicts, SimDuration timeout = Millis(50),
      uint32_t queue_depth = VerifierConfig{}.prepare_lock_queue_depth) {
    if (verifier_ != nullptr) net_.Unregister(999);
    VerifierConfig config;
    config.f_e = 1;
    config.shim_quorum = 3;
    config.conflicts_possible = conflicts;
    config.match_timeout = timeout;
    config.prepare_lock_queue_depth = queue_depth;
    verifier_ = std::make_unique<Verifier>(999, config, &store_, &keys_,
                                           &sim_, &net_,
                                           std::vector<ActorId>{1, 2, 3, 4});
    net_.Register(verifier_.get(), 0);
  }

  /// Rebuilds the verifier with conflict handling enabled.
  void EnableConflicts(SimDuration timeout = Millis(50)) {
    BuildVerifier(/*conflicts=*/true, timeout);
  }

  /// Re-signs `msg` after a test edits its sets or result.
  void Resign(shim::VerifyMsg* msg) {
    msg->executor_sig = keys_.Sign(
        msg->sender,
        shim::VerifyMsg::SigningBytes(msg->view, msg->seq, msg->batch_digest,
                                      msg->txn_rws, msg->result));
  }

  crypto::CertPtr MakeCert(SeqNum seq, const crypto::Digest& digest) {
    auto cert = std::make_shared<crypto::CommitCertificate>();
    cert->view = 0;
    cert->seq = seq;
    cert->digest = digest;
    Bytes to_sign = crypto::CommitSigningBytes(0, seq, digest);
    for (ActorId id = 1; id <= 3; ++id) {
      cert->signatures.push_back({id, keys_.Sign(id, to_sign)});
    }
    return cert;
  }

  std::shared_ptr<shim::VerifyMsg> MakeVerify(
      SeqNum seq, ActorId executor, const storage::RwSet& rw,
      const Bytes& result, TxnId txn_id = 0) {
    crypto::Digest digest = crypto::Sha256::Hash("batch-" +
                                                 std::to_string(seq));
    auto msg = std::make_shared<shim::VerifyMsg>(executor);
    msg->view = 0;
    msg->seq = seq;
    msg->batch_digest = digest;
    msg->cert = MakeCert(seq, digest);
    msg->txn_rws = {rw};
    msg->txn_refs.push_back({txn_id == 0 ? seq * 100 : txn_id, kClient});
    msg->result = result;
    Resign(msg.get());
    return msg;
  }

  /// The ref of a fragment of `gid`: the coordinator's first launch.
  static shim::VerifyMsg::TxnRef FragmentRef(const TxnKey& gid,
                                             ActorId coordinator) {
    return {1, coordinator, 0, gid, coordinator};
  }

  void Deliver(std::shared_ptr<shim::VerifyMsg> msg) {
    // Executors are ephemeral and not registered on the test network;
    // inject the envelope directly, as the network would deliver it.
    sim::Envelope env;
    env.from = msg->sender;
    env.to = 999;
    env.wire_bytes = msg->WireSize();
    env.message = msg;
    sim_.Schedule(0, [this, env]() { verifier_->OnMessage(env); });
  }

  /// The per-transaction sets merged into one, in order.
  static storage::RwSet Concat(const std::vector<storage::RwSet>& txn_rws) {
    storage::RwSet rw;
    for (const storage::RwSet& t : txn_rws) {
      rw.reads.insert(rw.reads.end(), t.reads.begin(), t.reads.end());
      rw.writes.insert(rw.writes.end(), t.writes.begin(), t.writes.end());
    }
    return rw;
  }

  storage::RwSet CurrentRw() {
    storage::RwSet rw;
    rw.reads.push_back({"user1", store_.VersionOf("user1")});
    rw.writes.push_back({"user1", ToBytes("updated")});
    return rw;
  }

  sim::Simulator sim_;
  sim::Network net_;
  crypto::KeyRegistry keys_;
  storage::KvStore store_;
  RecorderActor client_;
  RecorderActor shim_sink_;
  std::unique_ptr<Verifier> verifier_;
};

TEST_F(VerifierTest, StaleReadsApplyWhenConflictFree) {
  // Without conflict mode the verifier trusts the matched result (§IV-D
  // note) — read-version drift between executors must not abort.
  storage::RwSet rw = CurrentRw();
  store_.Put("user1", ToBytes("concurrent-write"));
  Bytes result = ToBytes("r");
  Deliver(MakeVerify(1, kFirstExecutor, rw, result));
  Deliver(MakeVerify(1, kFirstExecutor + 1, rw, result));
  sim_.RunUntil(Millis(20));
  EXPECT_EQ(verifier_->applied_batches(), 1u);
  EXPECT_EQ(verifier_->aborted_batches(), 0u);
}

TEST_F(VerifierTest, DivergentReadVersionsStillMatchWhenConflictFree) {
  // Two executors fetched at different times: same writes and result,
  // different read versions. §IV-D: they must still form a quorum.
  Bytes result = ToBytes("r");
  storage::RwSet rw1, rw2;
  rw1.reads.push_back({"user1", 1});
  rw2.reads.push_back({"user1", 2});
  rw1.writes.push_back({"user2", ToBytes("w")});
  rw2.writes.push_back({"user2", ToBytes("w")});
  Deliver(MakeVerify(1, kFirstExecutor, rw1, result));
  Deliver(MakeVerify(1, kFirstExecutor + 1, rw2, result));
  sim_.RunUntil(Millis(20));
  EXPECT_EQ(verifier_->applied_batches(), 1u);
}

TEST_F(VerifierTest, QuorumOfMatchingVerifiesAppliesWrites) {
  storage::RwSet rw = CurrentRw();
  Bytes result = ToBytes("r");
  Deliver(MakeVerify(1, kFirstExecutor, rw, result));
  sim_.RunUntil(Millis(10));
  // One VERIFY is below f_E+1 = 2: nothing applied yet.
  EXPECT_EQ(verifier_->applied_batches(), 0u);
  Deliver(MakeVerify(1, kFirstExecutor + 1, rw, result));
  sim_.RunUntil(Millis(20));
  EXPECT_EQ(verifier_->applied_batches(), 1u);
  EXPECT_EQ(verifier_->kmax(), 2u);
  EXPECT_EQ(BytesToString([&] {
              storage::VersionedValue v;
              store_.Get("user1", &v).ok();
              return v.value;
            }()),
            "updated");
  EXPECT_EQ(client_.CountKind(shim::MsgKind::kResponse), 1u);
}

TEST_F(VerifierTest, OutOfOrderSequenceWaitsInPi) {
  storage::RwSet rw;  // Empty rw: no conflicts.
  Bytes result = ToBytes("r");
  // Sequence 2 matches first...
  Deliver(MakeVerify(2, kFirstExecutor, rw, result));
  Deliver(MakeVerify(2, kFirstExecutor + 1, rw, result));
  sim_.RunUntil(Millis(10));
  EXPECT_EQ(verifier_->applied_batches(), 0u);  // Held in π.
  EXPECT_EQ(verifier_->kmax(), 1u);
  // ...then sequence 1 arrives and both drain in order.
  Deliver(MakeVerify(1, kFirstExecutor + 2, rw, result));
  Deliver(MakeVerify(1, kFirstExecutor + 3, rw, result));
  sim_.RunUntil(Millis(20));
  EXPECT_EQ(verifier_->applied_batches(), 2u);
  EXPECT_EQ(verifier_->kmax(), 3u);
  // Audit order is by sequence.
  EXPECT_TRUE(verifier_->audit_log().VerifyChain());
  EXPECT_EQ(verifier_->audit_log().entries()[0].seq, 1u);
  EXPECT_EQ(verifier_->audit_log().entries()[1].seq, 2u);
}

TEST_F(VerifierTest, MatchedSequenceKeepsOnlyItsWinner) {
  // A byzantine executor's divergent VERIFY comes first, then two honest
  // ones. Seq 2 matches while it waits in π for seq 1: it drops its vote
  // lists, ignores a later VERIFY as flooding, and settles from the
  // honest winner once seq 1 lands.
  storage::RwSet honest;
  honest.writes.push_back({"user2", ToBytes("honest")});
  storage::RwSet divergent;
  divergent.writes.push_back({"user2", ToBytes("forged")});
  Deliver(MakeVerify(2, kFirstExecutor, divergent, ToBytes("bad")));
  Deliver(MakeVerify(2, kFirstExecutor + 1, honest, ToBytes("r")));
  sim_.RunUntil(Millis(10));
  EXPECT_EQ(verifier_->votes_held(2), 2u);
  Deliver(MakeVerify(2, kFirstExecutor + 2, honest, ToBytes("r")));
  sim_.RunUntil(Millis(20));
  EXPECT_EQ(verifier_->kmax(), 1u);  // Matched, held in π.
  EXPECT_EQ(verifier_->votes_held(2), 0u);
  const uint64_t flooding = verifier_->flooding_ignored();
  Deliver(MakeVerify(2, kFirstExecutor + 3, honest, ToBytes("r")));
  sim_.RunUntil(Millis(30));
  EXPECT_EQ(verifier_->flooding_ignored(), flooding + 1);

  storage::RwSet empty;
  Deliver(MakeVerify(1, kFirstExecutor + 4, empty, ToBytes("r1")));
  Deliver(MakeVerify(1, kFirstExecutor + 5, empty, ToBytes("r1")));
  sim_.RunUntil(Millis(40));
  EXPECT_EQ(verifier_->kmax(), 3u);
  EXPECT_EQ(verifier_->applied_batches(), 2u);
  ASSERT_EQ(verifier_->audit_log().entries().size(), 2u);
  EXPECT_EQ(verifier_->audit_log().entries()[1].result_digest,
            crypto::Sha256::Hash(ToBytes("r")));
  storage::VersionedValue v;
  ASSERT_TRUE(store_.Get("user2", &v).ok());
  EXPECT_EQ(BytesToString(v.value), "honest");
}

TEST_F(VerifierTest, StaleReadsAbort) {
  // The rw ccheck only runs when transactions may conflict (§IV-D).
  EnableConflicts(Millis(500));
  storage::RwSet rw = CurrentRw();
  store_.Put("user1", ToBytes("concurrent-write"));  // Invalidate the read.
  Bytes result = ToBytes("r");
  Deliver(MakeVerify(1, kFirstExecutor, rw, result));
  Deliver(MakeVerify(1, kFirstExecutor + 1, rw, result));
  sim_.RunUntil(Millis(20));
  EXPECT_EQ(verifier_->aborted_batches(), 1u);
  EXPECT_EQ(verifier_->applied_batches(), 0u);
  EXPECT_EQ(verifier_->kmax(), 2u);  // Aborts still consume the sequence.
  // Client told about the abort.
  ASSERT_EQ(client_.msgs.size(), 1u);
  auto resp = std::static_pointer_cast<const shim::ResponseMsg>(client_.msgs[0]);
  EXPECT_TRUE(resp->aborted);
}

TEST_F(VerifierTest, MismatchedResultsDoNotMatch) {
  storage::RwSet rw;
  Deliver(MakeVerify(1, kFirstExecutor, rw, ToBytes("honest")));
  Deliver(MakeVerify(1, kFirstExecutor + 1, rw, ToBytes("byzantine")));
  sim_.RunUntil(Millis(20));
  EXPECT_EQ(verifier_->applied_batches(), 0u);
  // A third honest verify creates the f_E+1 matching set.
  Deliver(MakeVerify(1, kFirstExecutor + 2, rw, ToBytes("honest")));
  sim_.RunUntil(Millis(30));
  EXPECT_EQ(verifier_->applied_batches(), 1u);
}

TEST_F(VerifierTest, BadExecutorSignatureRejected) {
  storage::RwSet rw;
  auto msg = MakeVerify(1, kFirstExecutor, rw, ToBytes("r"));
  msg->executor_sig[0] ^= 0x1;
  Deliver(msg);
  sim_.RunUntil(Millis(10));
  EXPECT_EQ(verifier_->rejected_verifies(), 1u);
}

TEST_F(VerifierTest, SubQuorumCertificateRejected) {
  storage::RwSet rw;
  auto msg = MakeVerify(1, kFirstExecutor, rw, ToBytes("r"));
  auto mutated = std::make_shared<shim::VerifyMsg>(*msg);
  auto cert = std::make_shared<crypto::CommitCertificate>(*msg->cert);
  cert->signatures.pop_back();  // 2 < 2f_R+1 = 3.
  mutated->cert = cert;
  Resign(mutated.get());
  Deliver(mutated);
  sim_.RunUntil(Millis(10));
  EXPECT_EQ(verifier_->rejected_verifies(), 1u);
}

TEST_F(VerifierTest, DuplicateSenderIgnored) {
  storage::RwSet rw;
  auto msg = MakeVerify(1, kFirstExecutor, rw, ToBytes("r"));
  Deliver(msg);
  Deliver(msg);
  Deliver(msg);
  sim_.RunUntil(Millis(10));
  EXPECT_GE(verifier_->flooding_ignored(), 2u);
  EXPECT_EQ(verifier_->applied_batches(), 0u);  // Still one distinct sender.
}

TEST_F(VerifierTest, PostMatchFloodingIgnored) {
  storage::RwSet rw;
  Bytes result = ToBytes("r");
  Deliver(MakeVerify(1, kFirstExecutor, rw, result));
  Deliver(MakeVerify(1, kFirstExecutor + 1, rw, result));
  sim_.RunUntil(Millis(10));
  EXPECT_EQ(verifier_->applied_batches(), 1u);
  uint64_t before = verifier_->flooding_ignored();
  Deliver(MakeVerify(1, kFirstExecutor + 2, rw, result));
  sim_.RunUntil(Millis(20));
  EXPECT_GT(verifier_->flooding_ignored(), before);
  EXPECT_EQ(verifier_->applied_batches(), 1u);
}

TEST_F(VerifierTest, ConflictTimerBlamesPrimaryWhenTooFewVerifies) {
  EnableConflicts(Millis(50));
  storage::RwSet rw;
  Deliver(MakeVerify(1, kFirstExecutor, rw, ToBytes("r")));
  sim_.RunUntil(Millis(200));
  // |V| = 1 < 2f_E+1 = 3 at timeout -> REPLACE broadcast to shim node 1
  // (all shim sinks share the recorder via node id 1..4; we observe the
  // counter instead).
  EXPECT_GE(verifier_->replace_broadcasts(), 1u);
  EXPECT_EQ(verifier_->aborted_batches(), 0u);
}

TEST_F(VerifierTest, ConflictTimerAbortsOnDivergentQuorum) {
  EnableConflicts(Millis(50));
  storage::RwSet rw;
  // 3 distinct executors = 2f_E+1, but all three results differ.
  Deliver(MakeVerify(1, kFirstExecutor, rw, ToBytes("a")));
  Deliver(MakeVerify(1, kFirstExecutor + 1, rw, ToBytes("b")));
  Deliver(MakeVerify(1, kFirstExecutor + 2, rw, ToBytes("c")));
  sim_.RunUntil(Millis(200));
  EXPECT_EQ(verifier_->aborted_batches(), 1u);
  EXPECT_EQ(verifier_->kmax(), 2u);
}

TEST_F(VerifierTest, PerTxnSettleAbortsOnlyStaleTransactions) {
  // §VI with per-transaction granularity: a batch carrying one stale
  // transaction and one fresh one settles with exactly one abort.
  EnableConflicts(Millis(500));
  crypto::Digest digest = crypto::Sha256::Hash("batch-1");
  auto make = [&](ActorId executor) {
    auto msg = std::make_shared<shim::VerifyMsg>(executor);
    msg->view = 0;
    msg->seq = 1;
    msg->batch_digest = digest;
    msg->cert = MakeCert(1, digest);
    storage::RwSet fresh;  // Reads current version of user1.
    fresh.reads.push_back({"user1", store_.VersionOf("user1")});
    fresh.writes.push_back({"user1", ToBytes("fresh-write")});
    storage::RwSet stale;  // Claims an outdated version of user2.
    stale.reads.push_back({"user2", store_.VersionOf("user2") + 7});
    stale.writes.push_back({"user2", ToBytes("stale-write")});
    msg->txn_rws = {fresh, stale};
    msg->txn_refs.push_back({101, kClient});
    msg->txn_refs.push_back({102, kClient});
    msg->result = ToBytes("r");
    Resign(msg.get());
    return msg;
  };
  Deliver(make(kFirstExecutor));
  Deliver(make(kFirstExecutor + 1));
  sim_.RunUntil(Millis(50));

  EXPECT_EQ(verifier_->applied_txns(), 1u);
  EXPECT_EQ(verifier_->aborted_txns(), 1u);
  EXPECT_EQ(verifier_->kmax(), 2u);
  // The fresh write landed; the stale one did not.
  storage::VersionedValue v;
  ASSERT_TRUE(store_.Get("user1", &v).ok());
  EXPECT_EQ(BytesToString(v.value), "fresh-write");
  ASSERT_TRUE(store_.Get("user2", &v).ok());
  EXPECT_NE(BytesToString(v.value), "stale-write");
  // Both clients were answered: one ok, one abort.
  ASSERT_EQ(client_.CountKind(shim::MsgKind::kResponse), 2u);
}

TEST_F(VerifierTest, PerTxnTimerAbortsOnlyDivergentTransactions) {
  // 3 executors agree on txn 0 but diverge on txn 1: at timeout txn 0
  // applies and txn 1 aborts.
  EnableConflicts(Millis(50));
  crypto::Digest digest = crypto::Sha256::Hash("batch-1");
  auto make = [&](ActorId executor, uint64_t divergent_version) {
    auto msg = std::make_shared<shim::VerifyMsg>(executor);
    msg->view = 0;
    msg->seq = 1;
    msg->batch_digest = digest;
    msg->cert = MakeCert(1, digest);
    storage::RwSet agreed;
    agreed.reads.push_back({"user1", store_.VersionOf("user1")});
    agreed.writes.push_back({"user1", ToBytes("agreed")});
    storage::RwSet divergent;
    divergent.reads.push_back({"user2", divergent_version});
    msg->txn_rws = {agreed, divergent};
    msg->txn_refs.push_back({201, kClient});
    msg->txn_refs.push_back({202, kClient});
    msg->result = ToBytes("r");
    Resign(msg.get());
    return msg;
  };
  Deliver(make(kFirstExecutor, 1));
  Deliver(make(kFirstExecutor + 1, 2));  // Diverges on txn 1.
  Deliver(make(kFirstExecutor + 2, 3));  // Diverges again.
  sim_.RunUntil(Millis(200));

  EXPECT_EQ(verifier_->applied_txns(), 1u);
  EXPECT_EQ(verifier_->aborted_txns(), 1u);
  EXPECT_EQ(verifier_->kmax(), 2u);
}

TEST_F(VerifierTest, TxnRwsMiscountedOrNotSignedRejected) {
  // A VERIFY must carry one set per transaction ref, and its executor
  // must have signed exactly those sets. The extra set is signed, so only
  // the count rejects it; the cleared write is not.
  storage::RwSet rw = CurrentRw();
  auto extra = MakeVerify(1, kFirstExecutor, rw, ToBytes("r"));
  extra->txn_rws.push_back(storage::RwSet{});
  Resign(extra.get());
  Deliver(extra);
  auto missing_write = MakeVerify(1, kFirstExecutor + 1, rw, ToBytes("r"));
  missing_write->txn_rws[0].writes.clear();
  Deliver(missing_write);
  sim_.RunUntil(Millis(10));
  EXPECT_EQ(verifier_->rejected_verifies(), 2u);
}

TEST_F(VerifierTest, TamperedTxnRwsOnFragmentBatchNeverPrepareOrApply) {
  // A sharded fragment batch settles from the matched VERIFY's per-txn
  // sets. A quorum-completing VERIFY whose sets were tampered with after
  // its executor signed them is rejected, so its unmatched write is
  // never prepared — and, on COMMIT, never applied.
  constexpr ActorId kCoordinator = core::kCoordinatorBaseId;
  constexpr TxnKey kGid{kClient, 777};
  keys_.RegisterNode(999);  // The verifier signs its vote share.
  RecorderActor coordinator(kCoordinator);
  net_.Register(&coordinator, 0);

  storage::RwSet rw = CurrentRw();
  auto fragment = [&](ActorId executor) {
    auto msg = MakeVerify(1, executor, rw, ToBytes("r"));
    msg->txn_refs[0] = FragmentRef(kGid, kCoordinator);
    return msg;
  };
  Deliver(fragment(kFirstExecutor));
  auto tampered = fragment(kFirstExecutor + 1);
  tampered->txn_rws[0].writes.push_back({"user2", ToBytes("tampered")});
  Deliver(tampered);
  sim_.RunUntil(Millis(10));
  EXPECT_EQ(verifier_->rejected_verifies(), 1u);
  EXPECT_EQ(verifier_->twopc_votes_yes(), 0u);

  // An honest VERIFY completes the quorum; the fragment prepares.
  Deliver(fragment(kFirstExecutor + 2));
  sim_.RunUntil(Millis(20));
  EXPECT_EQ(verifier_->twopc_votes_yes(), 1u);

  // COMMIT carrying this shard's genuine YES share.
  auto decision = std::make_shared<shim::ShardCommitDecisionMsg>(kCoordinator);
  decision->global_id = kGid;
  decision->commit = true;
  decision->proof.shares.push_back(
      {kGid.id, kGid.client, 0, 1, true, 999,
       keys_.Sign(999, crypto::VoteSigningBytes(kGid, 0, 1, true))});
  sim::Envelope env;
  env.from = kCoordinator;
  env.to = 999;
  env.wire_bytes = decision->WireSize();
  env.message = decision;
  verifier_->OnMessage(env);
  EXPECT_EQ(verifier_->twopc_committed(), 1u);

  storage::VersionedValue v;
  ASSERT_TRUE(store_.Get("user1", &v).ok());
  EXPECT_EQ(BytesToString(v.value), "updated");
  ASSERT_TRUE(store_.Get("user2", &v).ok());
  EXPECT_EQ(BytesToString(v.value), "b") << "unmatched write applied";
}

TEST_F(VerifierTest, ResplitTxnRwsNeverCompleteAQuorum) {
  // Same concatenation, signed by its executor — but the
  // quorum-completing VERIFY moves the fragment's write into the plain
  // transaction's set, which would apply it directly instead of
  // preparing it. Only the per-transaction match stops it.
  constexpr ActorId kCoordinator = 888;
  constexpr TxnKey kGid{kClient, 777};
  keys_.RegisterNode(999);
  RecorderActor coordinator(kCoordinator);
  net_.Register(&coordinator, 0);

  storage::RwSet plain = CurrentRw();
  storage::RwSet frag;
  frag.reads.push_back({"user2", store_.VersionOf("user2")});
  frag.writes.push_back({"user2", ToBytes("fragment")});
  crypto::Digest digest = crypto::Sha256::Hash("batch-1");
  auto make = [&](ActorId executor, std::vector<storage::RwSet> txn_rws) {
    auto msg = std::make_shared<shim::VerifyMsg>(executor);
    msg->seq = 1;
    msg->batch_digest = digest;
    msg->cert = MakeCert(1, digest);
    msg->txn_rws = std::move(txn_rws);
    msg->txn_refs.push_back({101, kClient});
    msg->txn_refs.push_back(FragmentRef(kGid, kCoordinator));
    msg->result = ToBytes("r");
    Resign(msg.get());
    return msg;
  };
  Deliver(make(kFirstExecutor, {plain, frag}));
  Deliver(make(kFirstExecutor + 1, {Concat({plain, frag}), storage::RwSet{}}));
  sim_.RunUntil(Millis(10));
  EXPECT_EQ(verifier_->kmax(), 1u) << "re-split VERIFY completed a quorum";
  storage::VersionedValue v;
  ASSERT_TRUE(store_.Get("user2", &v).ok());
  EXPECT_EQ(BytesToString(v.value), "b");

  Deliver(make(kFirstExecutor + 2, {plain, frag}));
  sim_.RunUntil(Millis(20));
  EXPECT_EQ(verifier_->applied_txns(), 1u);
  EXPECT_EQ(verifier_->twopc_votes_yes(), 1u);
  ASSERT_TRUE(store_.Get("user1", &v).ok());
  EXPECT_EQ(BytesToString(v.value), "updated");
  ASSERT_TRUE(store_.Get("user2", &v).ok());
  EXPECT_EQ(BytesToString(v.value), "b") << "fragment write applied unprepared";
}

TEST_F(VerifierTest, SignatureBindsEachTxnRw) {
  // The executor signs each transaction's set, not their concatenation.
  // Moving the fragment's write into the plain transaction's set after
  // signing keeps the concatenation but breaks the signature, so the
  // VERIFY is rejected before it votes.
  constexpr ActorId kCoordinator = core::kCoordinatorBaseId;
  constexpr TxnKey kGid{kClient, 777};
  keys_.RegisterNode(999);
  RecorderActor coordinator(kCoordinator);
  net_.Register(&coordinator, 0);

  storage::RwSet plain = CurrentRw();
  storage::RwSet frag;
  frag.reads.push_back({"user2", store_.VersionOf("user2")});
  frag.writes.push_back({"user2", ToBytes("fragment")});
  crypto::Digest digest = crypto::Sha256::Hash("batch-1");
  auto honest = [&](ActorId executor) {
    auto msg = std::make_shared<shim::VerifyMsg>(executor);
    msg->seq = 1;
    msg->batch_digest = digest;
    msg->cert = MakeCert(1, digest);
    msg->txn_rws = {plain, frag};
    msg->txn_refs.push_back({101, kClient});
    msg->txn_refs.push_back(
        FragmentRef(kGid, kCoordinator));
    msg->result = ToBytes("r");
    Resign(msg.get());
    return msg;
  };
  Deliver(honest(kFirstExecutor));
  auto moved = honest(kFirstExecutor + 1);
  moved->txn_rws[0].writes.push_back(moved->txn_rws[1].writes[0]);
  moved->txn_rws[1].writes.clear();
  ASSERT_EQ(Concat(moved->txn_rws), Concat({plain, frag}));
  Deliver(moved);
  sim_.RunUntil(Millis(10));
  EXPECT_EQ(verifier_->rejected_verifies(), 1u);
  EXPECT_EQ(verifier_->kmax(), 1u);
  EXPECT_EQ(verifier_->applied_txns(), 0u);
  EXPECT_EQ(verifier_->twopc_votes_yes(), 0u);
  EXPECT_EQ(verifier_->prepare_locks_held(), 0u);
  storage::VersionedValue v;
  ASSERT_TRUE(store_.Get("user1", &v).ok());
  EXPECT_EQ(BytesToString(v.value), "a");
  ASSERT_TRUE(store_.Get("user2", &v).ok());
  EXPECT_EQ(BytesToString(v.value), "b");
}

TEST_F(VerifierTest, UnmatchedReadKeysNeverCompleteAQuorum) {
  // Conflict-free regime: read versions may differ, but read keys and
  // writes must agree. Otherwise whichever VERIFY completed the quorum
  // would pick the keys a fragment prepare-locks, or the writes it
  // prepares. Each input tampers one VERIFY, re-signed, same result.
  constexpr ActorId kCoordinator = core::kCoordinatorBaseId;
  constexpr TxnKey kGid{kClient, 777};
  keys_.RegisterNode(999);  // The verifier signs its vote share.
  RecorderActor coordinator(kCoordinator);
  net_.Register(&coordinator, 0);

  for (bool tamper_write : {false, true}) {
    SCOPED_TRACE(tamper_write ? "different write value" : "extra read key");
    BuildVerifier(/*conflicts=*/false);
    storage::RwSet rw;
    rw.reads.push_back({"user2", store_.VersionOf("user2")});
    rw.writes.push_back({"user2", ToBytes("fragment")});
    auto fragment = [&](ActorId executor) {
      auto msg = MakeVerify(1, executor, rw, ToBytes("r"));
      msg->txn_refs[0] = FragmentRef(kGid, kCoordinator);
      return msg;
    };
    Deliver(fragment(kFirstExecutor));
    auto tampered = fragment(kFirstExecutor + 1);
    storage::RwSet& tampered_rw = tampered->txn_rws[0];
    if (tamper_write) {
      tampered_rw.writes[0].value = ToBytes("tampered");
    } else {
      tampered_rw.reads.push_back({"user9", 1});
    }
    Resign(tampered.get());
    Deliver(tampered);
    sim_.RunUntil(sim_.now() + Millis(10));
    EXPECT_EQ(verifier_->rejected_verifies(), 0u);
    EXPECT_EQ(verifier_->kmax(), 1u) << "tampered VERIFY completed a quorum";
    EXPECT_EQ(verifier_->twopc_votes_yes(), 0u);

    Deliver(fragment(kFirstExecutor + 2));
    sim_.RunUntil(sim_.now() + Millis(10));
    EXPECT_EQ(verifier_->kmax(), 2u);
    EXPECT_EQ(verifier_->twopc_votes_yes(), 1u);
    const core::LockTable* locks = verifier_->prepare_lock_table();
    EXPECT_TRUE(locks->LockedByOther("user2", 0));
    EXPECT_FALSE(locks->LockedByOther("user9", 0)) << "unmatched read locked";
  }
}

TEST_F(VerifierTest, UnmatchedTxnRefsNeverCompleteAQuorum) {
  // A transaction's ref (client, id, global id, coordinator) is not
  // signed, so only the match vouches for it. A VERIFY that arrives
  // second of f_E+1 with the honest sets and result but another ref
  // must not complete the quorum: its ref would pick where the RESPONSE
  // goes, or turn a 2PC fragment into a plain transaction that applies
  // without 2PC. Neither input needs re-signing.
  constexpr ActorId kCoordinator = core::kCoordinatorBaseId;
  constexpr ActorId kThief = kClient + 1;
  constexpr TxnKey kGid{kClient, 777};
  keys_.RegisterNode(999);  // The verifier signs its vote share.
  RecorderActor coordinator(kCoordinator);
  RecorderActor thief(kThief);
  net_.Register(&coordinator, 0);
  net_.Register(&thief, 0);

  {
    SCOPED_TRACE("redirected client");
    BuildVerifier(/*conflicts=*/false);
    storage::RwSet rw = CurrentRw();
    Deliver(MakeVerify(1, kFirstExecutor, rw, ToBytes("r")));
    auto redirected = MakeVerify(1, kFirstExecutor + 1, rw, ToBytes("r"));
    redirected->txn_refs[0].client = kThief;
    Deliver(redirected);
    sim_.RunUntil(sim_.now() + Millis(10));
    EXPECT_EQ(verifier_->rejected_verifies(), 0u);
    EXPECT_EQ(verifier_->kmax(), 1u) << "redirected VERIFY completed a quorum";
    EXPECT_EQ(thief.CountKind(shim::MsgKind::kResponse), 0u);

    Deliver(MakeVerify(1, kFirstExecutor + 2, rw, ToBytes("r")));
    sim_.RunUntil(sim_.now() + Millis(10));
    EXPECT_EQ(verifier_->kmax(), 2u);
    EXPECT_EQ(client_.CountKind(shim::MsgKind::kResponse), 1u);
    EXPECT_EQ(thief.CountKind(shim::MsgKind::kResponse), 0u)
        << "RESPONSE redirected";
  }
  {
    SCOPED_TRACE("cleared global id");
    BuildVerifier(/*conflicts=*/false);
    storage::RwSet rw;
    rw.reads.push_back({"user2", store_.VersionOf("user2")});
    rw.writes.push_back({"user2", ToBytes("fragment")});
    auto fragment = [&](ActorId executor) {
      auto msg = MakeVerify(1, executor, rw, ToBytes("r"));
      msg->txn_refs[0] = FragmentRef(kGid, kCoordinator);
      return msg;
    };
    Deliver(fragment(kFirstExecutor));
    auto plain = fragment(kFirstExecutor + 1);
    plain->txn_refs[0].global_id = TxnKey{};
    Deliver(plain);
    sim_.RunUntil(sim_.now() + Millis(10));
    EXPECT_EQ(verifier_->rejected_verifies(), 0u);
    EXPECT_EQ(verifier_->kmax(), 1u) << "plain VERIFY completed a quorum";
    EXPECT_EQ(verifier_->applied_txns(), 0u);

    Deliver(fragment(kFirstExecutor + 2));
    sim_.RunUntil(sim_.now() + Millis(10));
    EXPECT_EQ(verifier_->kmax(), 2u);
    EXPECT_EQ(verifier_->twopc_votes_yes(), 1u);
    EXPECT_EQ(verifier_->applied_txns(), 0u);
    storage::VersionedValue v;
    ASSERT_TRUE(store_.Get("user2", &v).ok());
    EXPECT_EQ(BytesToString(v.value), "b") << "fragment applied without 2PC";
  }
  {
    // Two transactions: the redirecting VERIFY completes transaction 0's
    // quorum honestly, so it supplies the batch's digest and result, but
    // transaction 1 must still take its ref from its own quorum.
    SCOPED_TRACE("redirected second transaction");
    BuildVerifier(/*conflicts=*/false);
    client_.msgs.clear();
    crypto::Digest digest = crypto::Sha256::Hash("batch-1");
    auto make = [&](ActorId executor, ActorId second_client) {
      auto msg = std::make_shared<shim::VerifyMsg>(executor);
      msg->seq = 1;
      msg->batch_digest = digest;
      msg->cert = MakeCert(1, digest);
      msg->txn_rws = {storage::RwSet{}, storage::RwSet{}};
      msg->txn_refs = {{101, kClient}, {102, second_client}};
      msg->result = ToBytes("r");
      Resign(msg.get());
      return msg;
    };
    Deliver(make(kFirstExecutor, kClient));
    Deliver(make(kFirstExecutor + 1, kThief));
    sim_.RunUntil(sim_.now() + Millis(10));
    EXPECT_EQ(verifier_->kmax(), 1u);
    Deliver(make(kFirstExecutor + 2, kClient));
    sim_.RunUntil(sim_.now() + Millis(10));
    EXPECT_EQ(verifier_->kmax(), 2u);
    EXPECT_EQ(client_.CountKind(shim::MsgKind::kResponse), 2u);
    EXPECT_EQ(thief.CountKind(shim::MsgKind::kResponse), 0u)
        << "RESPONSE redirected";
  }
}

TEST_F(VerifierTest, WrongTxnCountFromFirstVerifyCannotAbortBatch) {
  // A byzantine VERIFY that arrives first claims one extra transaction.
  // It carries one signed set per ref, so it passes every check; but it
  // votes only in the quorums of its own batch shape, so the honest
  // VERIFYs still match their one transaction. In the conflict regime
  // τ_m (50 ms) fires with |V| = 4 and must abort nothing; without
  // conflicts nothing else would unstick the sequence.
  for (bool conflicts : {false, true}) {
    SCOPED_TRACE(conflicts ? "conflict regime" : "conflict-free");
    BuildVerifier(conflicts);
    storage::RwSet rw = CurrentRw();
    auto byzantine = MakeVerify(1, kFirstExecutor, rw, ToBytes("r"));
    storage::RwSet extra;
    extra.writes.push_back({"user2", ToBytes("extra")});
    byzantine->txn_rws.push_back(extra);
    byzantine->txn_refs.push_back({101, kClient});
    Resign(byzantine.get());
    Deliver(byzantine);
    for (ActorId executor = kFirstExecutor + 1;
         executor <= kFirstExecutor + 3; ++executor) {
      Deliver(MakeVerify(1, executor, rw, ToBytes("r")));
    }
    sim_.RunUntil(sim_.now() + Millis(200));
    EXPECT_EQ(verifier_->rejected_verifies(), 0u);
    EXPECT_EQ(verifier_->applied_txns(), 1u);
    EXPECT_EQ(verifier_->aborted_txns(), 0u);
    EXPECT_EQ(verifier_->aborted_batches(), 0u);
    EXPECT_EQ(verifier_->kmax(), 2u);
    storage::VersionedValue v;
    ASSERT_TRUE(store_.Get("user2", &v).ok());
    EXPECT_EQ(BytesToString(v.value), "b");
  }
}

TEST_F(VerifierTest, ClientResendAfterResponseIsReanswered) {
  storage::RwSet rw;
  Bytes result = ToBytes("r");
  Deliver(MakeVerify(1, kFirstExecutor, rw, result, /*txn_id=*/555));
  Deliver(MakeVerify(1, kFirstExecutor + 1, rw, result, /*txn_id=*/555));
  sim_.RunUntil(Millis(10));
  EXPECT_EQ(client_.CountKind(shim::MsgKind::kResponse), 1u);

  auto resend = std::make_shared<shim::ClientRequestMsg>(kClient);
  resend->txn.id = 555;
  resend->txn.client = kClient;
  resend->client_sig =
      keys_.Sign(kClient, shim::ClientRequestMsg::SigningBytes(resend->txn));
  net_.Send(kClient, 999, resend, resend->WireSize());
  sim_.RunUntil(Millis(20));
  EXPECT_EQ(client_.CountKind(shim::MsgKind::kResponse), 2u);
}

TEST_F(VerifierTest, ClientResendUnknownTxnBroadcastsMissingError) {
  auto resend = std::make_shared<shim::ClientRequestMsg>(kClient);
  resend->txn.id = 777;
  resend->txn.client = kClient;
  resend->client_sig =
      keys_.Sign(kClient, shim::ClientRequestMsg::SigningBytes(resend->txn));
  net_.Send(kClient, 999, resend, resend->WireSize());
  sim_.RunUntil(Millis(10));
  EXPECT_EQ(verifier_->error_broadcasts(), 1u);
}

TEST_F(VerifierTest, OnlyMatchedRefsLeaveRecordsAndRaiseFloors) {
  // Refs are unsigned: only a quorum vouches for one. A byzantine
  // executor's VERIFY that no quorum matches names the honest client's id
  // 555 under sequence 7. It must leave no outcome record, so the
  // client's retransmit of 555 reads as a request no VERIFY vouched for
  // (Fig. 4 line 12), not as case (iii), which broadcasts REPLACE and
  // accuses an honest primary.
  storage::RwSet rw;
  Deliver(MakeVerify(7, kFirstExecutor, rw, ToBytes("r"), /*txn_id=*/555));
  sim_.RunUntil(Millis(10));
  EXPECT_EQ(verifier_->txn_records(), 0u);

  auto resend = std::make_shared<shim::ClientRequestMsg>(kClient);
  resend->txn.id = 555;
  resend->txn.client = kClient;
  resend->txn.floor = 554;
  resend->client_sig =
      keys_.Sign(kClient, shim::ClientRequestMsg::SigningBytes(resend->txn));
  net_.Send(kClient, 999, resend, resend->WireSize());
  sim_.RunUntil(Millis(20));
  EXPECT_EQ(verifier_->replace_broadcasts(), 0u);
  EXPECT_EQ(verifier_->error_broadcasts(), 1u);

  // A matched ref leaves a record and teaches the client's floor; an
  // unmatched one with a higher floor changes neither.
  Deliver(MakeVerify(1, kFirstExecutor, rw, ToBytes("r"), /*txn_id=*/100));
  Deliver(MakeVerify(1, kFirstExecutor + 1, rw, ToBytes("r"), /*txn_id=*/100));
  sim_.RunUntil(Millis(30));
  EXPECT_EQ(verifier_->txn_records(), 1u);
  auto lying = MakeVerify(2, kFirstExecutor, rw, ToBytes("r"), 900);
  lying->txn_refs[0].floor = 899;
  Deliver(lying);
  sim_.RunUntil(Millis(40));
  EXPECT_EQ(verifier_->client_floor(kClient), 0u);
  EXPECT_EQ(verifier_->txn_records(), 1u);
}

TEST_F(VerifierTest, ClientResendForPiEntryBroadcastsGapError) {
  storage::RwSet rw;
  Bytes result = ToBytes("r");
  // Txn 888 matched at seq 5, but seqs 1-4 missing: it waits in π.
  Deliver(MakeVerify(5, kFirstExecutor, rw, result, 888));
  Deliver(MakeVerify(5, kFirstExecutor + 1, rw, result, 888));
  sim_.RunUntil(Millis(10));
  EXPECT_EQ(verifier_->kmax(), 1u);

  auto resend = std::make_shared<shim::ClientRequestMsg>(kClient);
  resend->txn.id = 888;
  resend->txn.client = kClient;
  resend->client_sig =
      keys_.Sign(kClient, shim::ClientRequestMsg::SigningBytes(resend->txn));
  net_.Send(kClient, 999, resend, resend->WireSize());
  sim_.RunUntil(Millis(20));
  EXPECT_GE(verifier_->error_broadcasts(), 1u);
}

TEST_F(VerifierTest, AuditLogCoversEverySettledSequence) {
  storage::RwSet rw;
  for (SeqNum s = 1; s <= 5; ++s) {
    Bytes result = ToBytes("r" + std::to_string(s));
    Deliver(MakeVerify(s, kFirstExecutor, rw, result));
    Deliver(MakeVerify(s, kFirstExecutor + 1, rw, result));
  }
  sim_.RunUntil(Millis(50));
  EXPECT_EQ(verifier_->audit_log().size(), 5u);
  EXPECT_TRUE(verifier_->audit_log().VerifyChain());
}

/// A 2PC fragment settles at seq 1 and prepare-locks user1 until its
/// COMMIT; plain writes to user1 settle behind it.
class VerifierLockQueueTest : public VerifierTest {
 protected:
  static constexpr ActorId kCoordinator = core::kCoordinatorBaseId;
  static constexpr TxnKey kLockGid{kClient, 777};

  VerifierLockQueueTest() : coordinator_(kCoordinator) {
    keys_.RegisterNode(999);  // The verifier signs its vote shares.
    net_.Register(&coordinator_, 0);
  }

  /// Two matching VERIFYs of one fragment of `gid` at `seq`.
  void DeliverFragment(SeqNum seq, const TxnKey& gid,
                       const storage::RwSet& rw) {
    for (ActorId executor : {kFirstExecutor, kFirstExecutor + 1}) {
      auto msg = MakeVerify(seq, executor, rw, ToBytes("r"));
      msg->txn_refs[0] = FragmentRef(gid, kCoordinator);
      Deliver(msg);
    }
  }

  /// kLockGid's fragment votes YES at seq 1 and locks user1.
  void LockUser1() {
    DeliverFragment(1, kLockGid, CurrentRw());
    sim_.RunUntil(sim_.now() + Millis(10));
    ASSERT_EQ(verifier_->twopc_votes_yes(), 1u);
    ASSERT_TRUE(verifier_->prepare_lock_table()->LockedByOther("user1", 0));
  }

  /// Two matching VERIFYs of a plain transaction (id seq * 100) that
  /// writes `value` to user1.
  void DeliverWriteUser1(SeqNum seq, const std::string& value) {
    storage::RwSet rw;
    rw.writes.push_back({"user1", ToBytes(value)});
    Deliver(MakeVerify(seq, kFirstExecutor, rw, ToBytes("r")));
    Deliver(MakeVerify(seq, kFirstExecutor + 1, rw, ToBytes("r")));
  }

  /// The coordinator's COMMIT for `gid`, whose fragment voted YES here
  /// at `seq`, proved by this shard's share.
  void Commit(const TxnKey& gid, SeqNum seq) {
    auto decision =
        std::make_shared<shim::ShardCommitDecisionMsg>(kCoordinator);
    decision->global_id = gid;
    decision->commit = true;
    decision->proof.shares.push_back(
        {gid.id, gid.client, 0, seq, true, 999,
         keys_.Sign(999, crypto::VoteSigningBytes(gid, 0, seq, true))});
    sim::Envelope env;
    env.from = kCoordinator;
    env.to = 999;
    env.wire_bytes = decision->WireSize();
    env.message = decision;
    verifier_->OnMessage(env);
  }

  /// The COMMIT that releases kLockGid's lock on user1.
  void CommitLockGid() { Commit(kLockGid, 1); }

  std::string User1() {
    storage::VersionedValue v;
    EXPECT_TRUE(store_.Get("user1", &v).ok());
    return BytesToString(v.value);
  }

  /// RESPONSEs the client got for transaction `id`, and how many of them
  /// were aborts.
  std::pair<size_t, size_t> ResponsesFor(TxnId id) const {
    std::pair<size_t, size_t> n;
    for (const auto& m : client_.msgs) {
      if (m->kind != shim::MsgKind::kResponse) continue;
      const auto& resp = static_cast<const shim::ResponseMsg&>(*m);
      if (resp.txn_id != id) continue;
      ++n.first;
      if (resp.aborted) ++n.second;
    }
    return n;
  }

  RecorderActor coordinator_;
};

TEST_F(VerifierLockQueueTest, ParkedTransactionsApplyInArrivalOrder) {
  LockUser1();
  DeliverWriteUser1(2, "first");
  DeliverWriteUser1(3, "second");
  sim_.RunUntil(sim_.now() + Millis(10));
  EXPECT_EQ(verifier_->kmax(), 4u);
  EXPECT_EQ(verifier_->lock_waiters(), 2u);
  EXPECT_EQ(verifier_->lock_waits_queued(), 2u);
  EXPECT_EQ(verifier_->applied_txns(), 0u);
  EXPECT_EQ(verifier_->aborted_txns(), 0u);
  // A parked transaction keeps its batch alive.
  EXPECT_EQ(verifier_->applied_batches(), 3u);
  EXPECT_EQ(client_.CountKind(shim::MsgKind::kResponse), 0u);

  CommitLockGid();
  sim_.RunUntil(sim_.now() + Millis(10));
  EXPECT_EQ(verifier_->twopc_committed(), 1u);
  EXPECT_EQ(verifier_->lock_waiters(), 0u);
  EXPECT_EQ(verifier_->lock_waits_applied(), 2u);
  EXPECT_EQ(verifier_->lock_waits_aborted(), 0u);
  EXPECT_EQ(verifier_->applied_txns(), 2u);
  // The fragment's write, then seq 2's, then seq 3's.
  EXPECT_EQ(User1(), "second");
  EXPECT_EQ(store_.VersionOf("user1"), 4u);
  EXPECT_EQ(ResponsesFor(200), std::make_pair(size_t{1}, size_t{0}));
  EXPECT_EQ(ResponsesFor(300), std::make_pair(size_t{1}, size_t{0}));
  EXPECT_EQ(client_.CountKind(shim::MsgKind::kResponse), 2u);
}

TEST_F(VerifierLockQueueTest, DepthZeroAbortsABlockedTransactionAtOnce) {
  BuildVerifier(/*conflicts=*/false, Millis(50), /*queue_depth=*/0);
  LockUser1();
  DeliverWriteUser1(2, "blocked");
  sim_.RunUntil(sim_.now() + Millis(10));
  EXPECT_EQ(verifier_->kmax(), 3u);
  EXPECT_EQ(verifier_->aborted_txns(), 1u);
  EXPECT_EQ(verifier_->aborted_batches(), 1u);
  EXPECT_EQ(verifier_->lock_waits_queued(), 0u);
  EXPECT_EQ(verifier_->lock_waits_aborted(), 0u);
  EXPECT_EQ(verifier_->lock_waiters(), 0u);
  EXPECT_EQ(ResponsesFor(200), std::make_pair(size_t{1}, size_t{1}));
  EXPECT_EQ(User1(), "a");
}

TEST_F(VerifierLockQueueTest, DepthOneParksTheFirstAndAbortsTheSecond) {
  BuildVerifier(/*conflicts=*/false, Millis(50), /*queue_depth=*/1);
  LockUser1();
  DeliverWriteUser1(2, "parked");
  DeliverWriteUser1(3, "refused");
  sim_.RunUntil(sim_.now() + Millis(10));
  EXPECT_EQ(verifier_->lock_waiters(), 1u);
  EXPECT_EQ(verifier_->lock_waits_queued(), 1u);
  EXPECT_EQ(verifier_->aborted_txns(), 1u);
  EXPECT_EQ(verifier_->lock_waits_aborted(), 0u);
  EXPECT_EQ(ResponsesFor(200), std::make_pair(size_t{0}, size_t{0}));
  EXPECT_EQ(ResponsesFor(300), std::make_pair(size_t{1}, size_t{1}));

  CommitLockGid();
  sim_.RunUntil(sim_.now() + Millis(10));
  EXPECT_EQ(verifier_->lock_waiters(), 0u);
  EXPECT_EQ(verifier_->lock_waits_applied(), 1u);
  EXPECT_EQ(verifier_->applied_txns(), 1u);
  EXPECT_EQ(ResponsesFor(200), std::make_pair(size_t{1}, size_t{0}));
  EXPECT_EQ(User1(), "parked");
}

TEST_F(VerifierLockQueueTest, RetransmitForParkedTransactionAccusesNoOne) {
  // A parked transaction's sequence has settled, so its record is
  // unanswered below k_max. Its RESPONSE comes when the lock is
  // released: a retransmit meanwhile gets no answer, and it is not case
  // (iii), which would broadcast REPLACE and accuse an honest primary.
  // This is also all a retransmit gets while the lock is never released.
  LockUser1();
  DeliverWriteUser1(2, "parked");
  sim_.RunUntil(sim_.now() + Millis(10));
  ASSERT_EQ(verifier_->lock_waiters(), 1u);
  auto resend = std::make_shared<shim::ClientRequestMsg>(kClient);
  resend->txn.id = 200;
  resend->txn.client = kClient;
  resend->client_sig =
      keys_.Sign(kClient, shim::ClientRequestMsg::SigningBytes(resend->txn));
  for (int i = 0; i < 2; ++i) {
    net_.Send(kClient, 999, resend, resend->WireSize());
    sim_.RunUntil(sim_.now() + Millis(10));
  }
  EXPECT_EQ(verifier_->replace_broadcasts(), 0u);
  EXPECT_EQ(verifier_->error_broadcasts(), 0u);
  EXPECT_EQ(client_.CountKind(shim::MsgKind::kResponse), 0u);
  EXPECT_EQ(verifier_->applied_txns(), 0u);
  EXPECT_EQ(User1(), "a");

  CommitLockGid();
  sim_.RunUntil(sim_.now() + Millis(10));
  EXPECT_EQ(verifier_->applied_txns(), 1u);
  EXPECT_EQ(ResponsesFor(200), std::make_pair(size_t{1}, size_t{0}));
  EXPECT_EQ(User1(), "parked");
  EXPECT_EQ(store_.VersionOf("user1"), 3u);

  // Case (i): answered from its record, and applied only once.
  net_.Send(kClient, 999, resend, resend->WireSize());
  sim_.RunUntil(sim_.now() + Millis(10));
  EXPECT_EQ(ResponsesFor(200), std::make_pair(size_t{2}, size_t{0}));
  EXPECT_EQ(verifier_->applied_txns(), 1u);
  EXPECT_EQ(store_.VersionOf("user1"), 3u);
  EXPECT_EQ(verifier_->replace_broadcasts(), 0u);
}

TEST_F(VerifierLockQueueTest, DrainedWaiterParksAgainWhileStillBlocked) {
  // A drained waiter runs the same step as a fresh transaction, so one
  // still blocked parks again: behind the key it just left, which a
  // fragment ahead of it in the drain re-took, and then behind another
  // key. It applies only when its last lock is released.
  constexpr TxnKey kAheadGid{kClient, 778};
  constexpr TxnKey kUser2Gid{kClient, 779};
  storage::RwSet ahead;
  ahead.writes.push_back({"user1", ToBytes("ahead")});
  storage::RwSet user2;
  user2.writes.push_back({"user2", ToBytes("fragment")});
  storage::RwSet both;
  both.writes.push_back({"user1", ToBytes("both")});
  both.writes.push_back({"user2", ToBytes("both")});
  LockUser1();
  DeliverFragment(2, kUser2Gid, user2);
  DeliverFragment(3, kAheadGid, ahead);
  Deliver(MakeVerify(4, kFirstExecutor, both, ToBytes("r")));
  Deliver(MakeVerify(4, kFirstExecutor + 1, both, ToBytes("r")));
  sim_.RunUntil(sim_.now() + Millis(10));
  EXPECT_EQ(verifier_->twopc_votes_yes(), 2u);
  EXPECT_EQ(verifier_->lock_waiters(), 2u);

  // The fragment ahead prepares and re-takes user1: the plain waiter
  // parks behind it again.
  CommitLockGid();
  sim_.RunUntil(sim_.now() + Millis(10));
  EXPECT_EQ(verifier_->lock_waits_voted(), 1u);
  EXPECT_EQ(verifier_->twopc_votes_yes(), 3u);
  EXPECT_EQ(verifier_->lock_waiters(), 1u);
  EXPECT_EQ(verifier_->lock_waits_queued(), 2u);

  // user1 is released; the waiter hops to user2, still locked.
  Commit(kAheadGid, 3);
  sim_.RunUntil(sim_.now() + Millis(10));
  EXPECT_EQ(verifier_->lock_waiters(), 1u);
  EXPECT_EQ(verifier_->applied_txns(), 0u);
  EXPECT_EQ(ResponsesFor(400), std::make_pair(size_t{0}, size_t{0}));

  Commit(kUser2Gid, 2);
  sim_.RunUntil(sim_.now() + Millis(10));
  EXPECT_EQ(verifier_->lock_waiters(), 0u);
  EXPECT_EQ(verifier_->lock_waits_applied(), 1u);
  EXPECT_EQ(verifier_->lock_waits_queued(), 2u);
  EXPECT_EQ(ResponsesFor(400), std::make_pair(size_t{1}, size_t{0}));
  EXPECT_EQ(User1(), "both");
  storage::VersionedValue v;
  ASSERT_TRUE(store_.Get("user2", &v).ok());
  EXPECT_EQ(BytesToString(v.value), "both");
}

TEST_F(VerifierLockQueueTest, ParkedFragmentGidParksOnce) {
  // A second instance of a parked fragment (a coordinator re-drive) does
  // not park again: it votes at once, NO while the lock is held. When the
  // lock is released, the parked instance finds that standing vote and
  // casts no other.
  constexpr TxnKey kOtherGid{kClient, 778};
  storage::RwSet rw;
  rw.writes.push_back({"user1", ToBytes("other")});
  LockUser1();
  DeliverFragment(2, kOtherGid, rw);
  sim_.RunUntil(sim_.now() + Millis(10));
  EXPECT_EQ(verifier_->lock_waiters(), 1u);
  EXPECT_EQ(verifier_->twopc_votes_no(), 0u);

  DeliverFragment(3, kOtherGid, rw);
  sim_.RunUntil(sim_.now() + Millis(10));
  EXPECT_EQ(verifier_->kmax(), 4u);
  EXPECT_EQ(verifier_->lock_waiters(), 1u);
  EXPECT_EQ(verifier_->lock_waits_queued(), 1u);
  EXPECT_EQ(verifier_->twopc_votes_yes(), 1u);
  EXPECT_EQ(verifier_->twopc_votes_no(), 1u);
  EXPECT_EQ(coordinator_.CountKind(shim::MsgKind::kShardVoteCert), 2u);

  CommitLockGid();
  sim_.RunUntil(sim_.now() + Millis(10));
  EXPECT_EQ(verifier_->lock_waiters(), 0u);
  EXPECT_EQ(verifier_->lock_waits_voted(), 1u);
  EXPECT_EQ(verifier_->twopc_votes_yes(), 1u);
  EXPECT_EQ(verifier_->twopc_votes_no(), 1u);
  EXPECT_EQ(verifier_->prepare_locks_held(), 0u);
  EXPECT_EQ(User1(), "updated");
}

TEST(StorageActorTest, ServesReadsWithVersions) {
  sim::Simulator sim(1);
  sim::Network net(&sim, sim::RegionTable::Aws11(), {});
  storage::KvStore store;
  store.Put("k1", ToBytes("v1"));
  store.Put("k1", ToBytes("v2"));
  StorageActor storage_actor(50, &store, &net);
  net.Register(&storage_actor, 0);

  RecorderActor executor(60);
  net.Register(&executor, 0);

  auto read = std::make_shared<shim::StorageReadMsg>(60);
  read->request_id = 7;
  read->keys = {"k1", "missing"};
  net.Send(60, 50, read, read->WireSize());
  sim.RunUntil(Millis(10));

  ASSERT_EQ(executor.msgs.size(), 1u);
  auto reply =
      std::static_pointer_cast<const shim::StorageReadReplyMsg>(executor.msgs[0]);
  EXPECT_EQ(reply->request_id, 7u);
  ASSERT_EQ(reply->items.size(), 2u);
  EXPECT_TRUE(reply->items[0].found);
  EXPECT_EQ(BytesToString(reply->items[0].value), "v2");
  EXPECT_EQ(reply->items[0].version, 2u);
  EXPECT_FALSE(reply->items[1].found);
  EXPECT_EQ(storage_actor.read_requests(), 1u);
}

}  // namespace
}  // namespace sbft::verifier
