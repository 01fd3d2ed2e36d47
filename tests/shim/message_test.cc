#include "shim/message.h"

#include <gtest/gtest.h>

#include <set>

#include "crypto/sha256.h"

namespace sbft::shim {
namespace {

workload::Transaction MakeTxn(TxnId id) {
  workload::Transaction txn;
  txn.id = id;
  txn.client = 100;
  workload::Operation read;
  read.type = workload::OpType::kRead;
  read.key = "user1";
  workload::Operation write;
  write.type = workload::OpType::kWrite;
  write.key = "user2";
  write.value = ToBytes("12345678");
  txn.ops = {read, write};
  return txn;
}

workload::TransactionBatch MakeBatch(size_t n) {
  workload::TransactionBatch batch;
  for (size_t i = 0; i < n; ++i) {
    batch.txns.push_back(workload::ShareTxn(MakeTxn(i + 1)));
  }
  return batch;
}

TEST(MessageTest, KindNames) {
  EXPECT_STREQ(MsgKindName(MsgKind::kPrePrepare), "PREPREPARE");
  EXPECT_STREQ(MsgKindName(MsgKind::kVerify), "VERIFY");
  EXPECT_STREQ(MsgKindName(MsgKind::kViewChange), "VIEWCHANGE");
}

TEST(MessageTest, WireSizeIsStableAcrossCalls) {
  PrepareMsg msg(3);
  msg.view = 1;
  msg.seq = 2;
  msg.digest = crypto::Sha256::Hash("x");
  size_t first = msg.WireSize();
  EXPECT_EQ(msg.WireSize(), first);
  EXPECT_GT(first, 0u);
}

TEST(MessageTest, SerializedIsTheEncoding) {
  PrepareMsg msg(3);
  msg.view = 1;
  msg.seq = 2;
  msg.digest = crypto::Sha256::Hash("x");
  // Kind and sender (5 bytes), view and seq (16), the digest (32).
  EXPECT_EQ(msg.Serialized().size(), 53u);
}

TEST(MessageTest, MacMessagesIncludeTagAllowance) {
  PrepareMsg msg(3);
  EXPECT_EQ(msg.WireSize(), msg.Serialized().size() + Message::kMacTagBytes);
}

TEST(MessageTest, PrePrepareSizeScalesWithBatch) {
  PrePrepareMsg small(1);
  small.batch = workload::ShareBatch(MakeBatch(1));
  small.digest = small.batch->Hash();
  PrePrepareMsg large(1);
  large.batch = workload::ShareBatch(MakeBatch(100));
  large.digest = large.batch->Hash();
  EXPECT_GT(large.WireSize(), small.WireSize() + 90 * 30);
}

TEST(MessageTest, PrepareAndCommitAreSmall) {
  // Paper reports PREPARE 216 B and COMMIT 220 B; ours must be the same
  // order of magnitude and COMMIT (DS) >= PREPARE (MAC).
  PrepareMsg prepare(1);
  prepare.digest = crypto::Sha256::Hash("b");
  CommitMsg commit(1);
  commit.digest = prepare.digest;
  commit.ds.assign(32, 0xab);
  EXPECT_LT(prepare.WireSize(), 300u);
  EXPECT_LT(commit.WireSize(), 300u);
  EXPECT_GE(commit.WireSize() + Message::kMacTagBytes,
            prepare.WireSize());
}

TEST(MessageTest, ClientRequestSigningBytesBindTxn) {
  workload::Transaction a = MakeTxn(1);
  workload::Transaction b = MakeTxn(2);
  EXPECT_NE(ClientRequestMsg::SigningBytes(a),
            ClientRequestMsg::SigningBytes(b));
}

TEST(MessageTest, ExecuteSigningBytesBindAllFields) {
  crypto::Digest d = crypto::Sha256::Hash("batch");
  Bytes base = ExecuteMsg::SigningBytes(1, 2, d);
  EXPECT_NE(base, ExecuteMsg::SigningBytes(2, 2, d));
  EXPECT_NE(base, ExecuteMsg::SigningBytes(1, 3, d));
  EXPECT_NE(base, ExecuteMsg::SigningBytes(1, 2, crypto::Sha256::Hash("o")));
}

TEST(MessageTest, TwoPcWatermarkAndViewSectionsAreAlwaysPresent) {
  // Every vote certificate carries its ack list (count marker included)
  // and an 8-byte view stamp; every decision carries (cseq, watermark)
  // and a 12-byte view stamp. No presence bit gates either, so the wire
  // size depends only on how many acks and proof shares there are.
  crypto::VoteShare share{42, 1000000, 1, 7, true, 9, ToBytes("sig")};
  ShardVoteCertMsg no_acks(9);
  no_acks.cert.shares.push_back(share);
  EXPECT_EQ(no_acks.WireSize(), 5 + EncodedSize(no_acks.cert) + 1 + 8);

  ShardVoteCertMsg acks(9);
  acks.cert.shares.push_back(share);
  acks.acked_cseqs = {3, 4, 9};
  acks.coord_view = 5;
  EXPECT_EQ(acks.WireSize(), no_acks.WireSize() + 3 * 8);

  ShardCommitDecisionMsg zero_decision(9);
  zero_decision.global_id = {1000000, 42};
  zero_decision.commit = true;
  EXPECT_EQ(zero_decision.WireSize(), 18u + 16 + 12);

  ShardCommitDecisionMsg stamped_decision(9);
  stamped_decision.global_id = {1000000, 42};
  stamped_decision.commit = true;
  stamped_decision.cseq = 11;
  stamped_decision.watermark = 8;
  stamped_decision.coord_view = 3;
  stamped_decision.coord_leader = 890001;
  EXPECT_EQ(stamped_decision.WireSize(), zero_decision.WireSize());
  stamped_decision.proof.shares.push_back(share);
  EXPECT_EQ(stamped_decision.WireSize(),
            zero_decision.WireSize() + EncodedSize(stamped_decision.proof));
}

TEST(MessageTest, AllKindsEncodeNonEmpty) {
  std::vector<std::unique_ptr<Message>> msgs;
  msgs.push_back(std::make_unique<ClientRequestMsg>(1));
  msgs.push_back(std::make_unique<PrePrepareMsg>(1));
  msgs.push_back(std::make_unique<PrepareMsg>(1));
  msgs.push_back(std::make_unique<CommitMsg>(1));
  msgs.push_back(std::make_unique<ExecuteMsg>(1));
  msgs.push_back(std::make_unique<VerifyMsg>(1));
  msgs.push_back(std::make_unique<ResponseMsg>(1));
  msgs.push_back(std::make_unique<ErrorMsg>(1));
  msgs.push_back(std::make_unique<ReplaceMsg>(1));
  msgs.push_back(std::make_unique<AckMsg>(1));
  msgs.push_back(std::make_unique<ViewChangeMsg>(1));
  msgs.push_back(std::make_unique<NewViewMsg>(1));
  msgs.push_back(std::make_unique<CheckpointMsg>(1));
  msgs.push_back(std::make_unique<StorageReadMsg>(1));
  msgs.push_back(std::make_unique<StorageReadReplyMsg>(1));
  msgs.push_back(std::make_unique<PaxosAcceptMsg>(1));
  msgs.push_back(std::make_unique<PaxosAcceptedMsg>(1));
  msgs.push_back(std::make_unique<LinearVoteMsg>(1));
  msgs.push_back(std::make_unique<LinearCertMsg>(1));
  msgs.push_back(std::make_unique<ShardVoteCertMsg>(1));
  msgs.push_back(std::make_unique<ShardCommitDecisionMsg>(1));
  msgs.push_back(std::make_unique<CoordAppendMsg>(1));
  msgs.push_back(std::make_unique<CoordAckMsg>(1));
  msgs.push_back(std::make_unique<CoordSyncRequestMsg>(1));
  msgs.push_back(std::make_unique<CoordSyncReplyMsg>(1));
  msgs.push_back(std::make_unique<CoordRedirectMsg>(1));
  msgs.push_back(std::make_unique<PaxosPrepareMsg>(1));
  msgs.push_back(std::make_unique<PaxosPromiseMsg>(1));
  std::set<MsgKind> kinds;
  for (const auto& msg : msgs) {
    kinds.insert(msg->kind);
    EXPECT_GT(msg->Serialized().size(), 0u) << MsgKindName(msg->kind);
    // The size the network charges is exactly the encoded bytes plus the
    // MAC allowance of the two MAC-authenticated kinds.
    const bool mac =
        msg->kind == MsgKind::kPrePrepare || msg->kind == MsgKind::kPrepare;
    EXPECT_EQ(msg->WireSize(),
              msg->Serialized().size() + (mac ? Message::kMacTagBytes : 0))
        << MsgKindName(msg->kind);
  }
  EXPECT_EQ(kinds.size(), 28u);
}

}  // namespace
}  // namespace sbft::shim
