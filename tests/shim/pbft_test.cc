#include "shim/pbft_replica.h"

#include <gtest/gtest.h>

#include <map>

#include "replica_harness.h"

namespace sbft::shim {
namespace {

/// Runs under both vote patterns: the view change, checkpoint and
/// byzantine-behaviour code these tests exercise is shared.
class PbftPatternTest : public ::testing::TestWithParam<VotePattern> {};

TEST(PbftTest, SingleRequestCommitsOnAllNodes) {
  PbftHarness h(4);
  h.SendTxn(1);
  h.sim_.RunUntil(Seconds(1));
  EXPECT_EQ(h.CommitCount(1), 4u);
  EXPECT_TRUE(h.DigestsAgree(1));
  EXPECT_EQ(h.batch_sizes_[1], 1u);
}

TEST(PbftTest, ManyRequestsCommitInOrder) {
  PbftHarness h(4);
  for (TxnId t = 1; t <= 20; ++t) h.SendTxn(t);
  h.sim_.RunUntil(Seconds(2));
  for (SeqNum s = 1; s <= 20; ++s) {
    EXPECT_EQ(h.CommitCount(s), 4u) << "seq " << s;
    EXPECT_TRUE(h.DigestsAgree(s));
  }
}

TEST(PbftTest, BatchingGroupsTransactions) {
  ShimConfig config = PbftHarness::DefaultShimConfig();
  config.batch_size = 5;
  PbftHarness h(4, {}, {}, config);
  for (TxnId t = 1; t <= 10; ++t) h.SendTxn(t);
  h.sim_.RunUntil(Seconds(1));
  EXPECT_EQ(h.batch_sizes_[1], 5u);
  EXPECT_EQ(h.batch_sizes_[2], 5u);
  EXPECT_EQ(h.CommitCount(3), 0u);
}

TEST(PbftTest, PartialBatchFlushesOnTimeout) {
  ShimConfig config = PbftHarness::DefaultShimConfig();
  config.batch_size = 100;
  config.batch_timeout = Millis(5);
  PbftHarness h(4, {}, {}, config);
  h.SendTxn(1);
  h.SendTxn(2);
  h.sim_.RunUntil(Seconds(1));
  EXPECT_EQ(h.CommitCount(1), 4u);
  EXPECT_EQ(h.batch_sizes_[1], 2u);
}

TEST(PbftTest, DuplicateClientRequestsCommitOnce) {
  PbftHarness h(4);
  h.SendTxn(7);
  h.SendTxn(7);
  h.SendTxn(7);
  h.sim_.RunUntil(Seconds(1));
  EXPECT_EQ(h.CommitCount(1), 4u);
  EXPECT_EQ(h.CommitCount(2), 0u);
}

TEST(PbftTest, RequestToBackupIsForwardedToPrimary) {
  PbftHarness h(4);
  h.SendTxn(1, /*to=*/h.ids_[2]);
  h.sim_.RunUntil(Seconds(1));
  EXPECT_EQ(h.CommitCount(1), 4u);
}

TEST(PbftTest, ToleratesCrashedBackups) {
  PbftHarness h(4);
  h.replicas_[2]->SetCrashed(true);
  for (TxnId t = 1; t <= 5; ++t) h.SendTxn(t);
  h.sim_.RunUntil(Seconds(1));
  // 3 of 4 nodes (the quorum) still commit.
  for (SeqNum s = 1; s <= 5; ++s) {
    EXPECT_GE(h.CommitCount(s), 3u) << "seq " << s;
  }
}

TEST_P(PbftPatternTest, CrashedPrimaryTriggersViewChange) {
  PbftHarness h(4, {}, {}, PbftHarness::DefaultShimConfig(), GetParam());
  h.replicas_[0]->SetCrashed(true);
  // Requests go to the dead primary; backups never see PREPREPAREs, so
  // nothing commits — the τ_m path needs an accepted preprepare. Instead
  // the client (or verifier) escalates; here we emulate the REPLACE path.
  h.SendReplaceToAll();
  h.sim_.RunUntil(Seconds(1));
  // View moved to 1; node 1 is the new primary.
  EXPECT_TRUE(h.replicas_[1]->IsPrimary());
  // New primary accepts and commits requests.
  h.SendTxn(1, h.ids_[1]);
  h.sim_.RunUntil(Seconds(2));
  EXPECT_GE(h.CommitCount(1), 3u);
}

TEST_P(PbftPatternTest, EscalatesPastTwoCrashedPrimaries) {
  // The primaries of views 0 and 1 are both down: the view change to 1
  // can never complete, so the view-change timer must escalate to 2.
  PbftHarness h(7, {}, {}, PbftHarness::DefaultShimConfig(), GetParam());
  h.replicas_[0]->SetCrashed(true);
  h.replicas_[1]->SetCrashed(true);
  h.SendReplaceToAll();
  h.sim_.RunUntil(Seconds(2));
  for (uint32_t i = 2; i < 7; ++i) {
    EXPECT_EQ(h.replicas_[i]->view(), 2u) << "node " << i;
  }
  EXPECT_TRUE(h.replicas_[2]->IsPrimary());
  h.SendTxn(1, h.ids_[2]);
  h.sim_.RunUntil(Seconds(3));
  EXPECT_GE(h.CommitCount(1), 5u);
}

TEST_P(PbftPatternTest, SuppressingPrimaryReplacedViaTimeouts) {
  std::map<uint32_t, ByzantineBehavior> byz;
  byz[0].byzantine = true;
  byz[0].suppress_requests = true;
  PbftHarness h(4, byz, {}, PbftHarness::DefaultShimConfig(), GetParam());
  h.SendTxn(1);
  // No consensus starts; REPLACE from the verifier path resolves it
  // (tested end-to-end in attacks_test); here exercise ERROR handling:
  auto error = std::make_shared<ErrorMsg>(kClientId);
  error->reason = ErrorMsg::Reason::kMissingRequest;
  for (ActorId id : h.ids_) {
    h.net_.Send(kClientId, id, error, error->WireSize());
  }
  h.sim_.RunUntil(Seconds(2));
  // Υ expired at the backups without an ACK -> view change completed.
  EXPECT_GE(h.replicas_[1]->view(), 1u);
  h.SendTxn(2, h.ids_[1]);
  h.sim_.RunUntil(Seconds(3));
  EXPECT_GE(h.CommitCount(1), 3u);
}

TEST_P(PbftPatternTest, EquivocationNeverSplitsCommits) {
  std::map<uint32_t, ByzantineBehavior> byz;
  byz[0].byzantine = true;
  byz[0].equivocate = true;
  PbftHarness h(4, byz, {}, PbftHarness::DefaultShimConfig(), GetParam());
  for (TxnId t = 1; t <= 5; ++t) h.SendTxn(t);
  h.sim_.RunUntil(Seconds(3));
  // Safety: no sequence commits two different digests anywhere.
  for (SeqNum s = 1; s <= 10; ++s) {
    EXPECT_TRUE(h.DigestsAgree(s)) << "seq " << s;
  }
}

TEST_P(PbftPatternTest, DarkNodeRecoversViaCheckpoint) {
  std::map<uint32_t, ByzantineBehavior> byz;
  byz[0].byzantine = true;
  byz[0].dark_nodes = {4};  // Node index 3 (id 4) kept in the dark.
  PbftHarness h(4, byz, {}, PbftHarness::DefaultShimConfig(), GetParam());
  // Need >= checkpoint_interval commits to trigger a checkpoint.
  for (TxnId t = 1; t <= 12; ++t) h.SendTxn(t);
  h.sim_.RunUntil(Seconds(3));
  // The dark node cannot commit live (it gets PREPARE/COMMIT but no
  // PREPREPARE); featherweight checkpoints bring it up to date.
  EXPECT_GT(h.replicas_[3]->dark_recoveries() +
                h.replicas_[3]->committed_batches(),
            0u);
  // Quorum nodes committed everything.
  for (SeqNum s = 1; s <= 8; ++s) {
    EXPECT_GE(h.CommitCount(s), 3u);
  }
}

TEST_P(PbftPatternTest, CheckpointAdvancesStableSeq) {
  ShimConfig config = PbftHarness::DefaultShimConfig();
  config.checkpoint_interval = 4;
  PbftHarness h(4, {}, {}, config, GetParam());
  for (TxnId t = 1; t <= 10; ++t) h.SendTxn(t);
  h.sim_.RunUntil(Seconds(2));
  for (const auto& replica : h.replicas_) {
    EXPECT_GE(replica->stable_seq(), 4u);
    EXPECT_GE(replica->checkpoints_taken(), 1u);
  }
}

TEST_P(PbftPatternTest, SurvivesLossyNetwork) {
  sim::NetworkConfig net;
  net.drop_probability = 0.05;
  net.duplicate_probability = 0.05;
  PbftHarness h(4, {}, net, PbftHarness::DefaultShimConfig(), GetParam());
  for (TxnId t = 1; t <= 10; ++t) h.SendTxn(t);
  h.sim_.RunUntil(Seconds(5));
  for (SeqNum s = 1; s <= 10; ++s) {
    EXPECT_TRUE(h.DigestsAgree(s));
  }
  // Liveness under 5% loss: most requests settle (retries via timers).
  EXPECT_GE(h.CommitCount(1), 3u);
}

TEST(PbftTest, LargerShimCommits) {
  PbftHarness h(7);  // f = 2.
  for (TxnId t = 1; t <= 5; ++t) h.SendTxn(t);
  h.sim_.RunUntil(Seconds(2));
  for (SeqNum s = 1; s <= 5; ++s) {
    EXPECT_EQ(h.CommitCount(s), 7u);
    EXPECT_TRUE(h.DigestsAgree(s));
  }
}

TEST_P(PbftPatternTest, TwoCrashedOfSevenStillLive) {
  PbftHarness h(7, {}, {}, PbftHarness::DefaultShimConfig(), GetParam());
  h.replicas_[3]->SetCrashed(true);
  h.replicas_[5]->SetCrashed(true);
  for (TxnId t = 1; t <= 5; ++t) h.SendTxn(t);
  h.sim_.RunUntil(Seconds(2));
  for (SeqNum s = 1; s <= 5; ++s) {
    EXPECT_GE(h.CommitCount(s), 5u);
  }
}

TEST_P(PbftPatternTest, CommittedSlotHoldsNoVotesAndIgnoresLateOnes) {
  // Node 3 is down while seq 1 commits, so its votes arrive late. The
  // committed slot holds no votes and ignores the late ones, and its
  // prepared proof and compact certificate are what it committed.
  PbftHarness h(4, {}, {}, PbftHarness::DefaultShimConfig(), GetParam());
  std::map<SeqNum, int> calls;
  crypto::CertPtr cert;
  workload::BatchPtr batch;
  h.replicas_[0]->SetCommitCallback(
      [&](SeqNum seq, ViewNum, const workload::BatchPtr& b,
          const crypto::CertPtr& c) {
        ++calls[seq];
        if (seq == 1) {
          cert = c;
          batch = b;
        }
      });
  std::vector<PreparedProof> proofs;
  std::vector<crypto::CompactCertificate> compact;
  h.net_.SetDeliveryObserver([&](const sim::Envelope& env) {
    if (env.from != h.ids_[0]) return;
    if (const auto* vc = MessageAs<ViewChangeMsg>(env, MsgKind::kViewChange)) {
      for (const PreparedProof& p : vc->prepared) {
        if (p.seq == 1) proofs.push_back(p);
      }
    } else if (const auto* cp =
                   MessageAs<CheckpointMsg>(env, MsgKind::kCheckpoint)) {
      for (const crypto::CompactCertificate& c : cp->certs) {
        if (c.seq == 1) compact.push_back(c);
      }
    }
  });
  h.replicas_[3]->SetCrashed(true);
  h.SendTxn(1);
  h.sim_.RunUntil(Millis(200));
  ASSERT_EQ(calls[1], 1);
  ASSERT_NE(cert, nullptr);

  const ActorId late = h.ids_[3];
  const Bytes commit_ds = h.keys_.Sign(
      late, crypto::CommitSigningBytes(0, 1, cert->digest));
  auto prepare = std::make_shared<PrepareMsg>(late);
  prepare->seq = 1;
  prepare->digest = cert->digest;
  auto commit = std::make_shared<CommitMsg>(late);
  commit->seq = 1;
  commit->digest = cert->digest;
  commit->ds = commit_ds;
  auto vote = std::make_shared<LinearVoteMsg>(late);
  vote->phase = LinearPhase::kCommit;
  vote->seq = 1;
  vote->digest = cert->digest;
  vote->ds = commit_ds;
  for (uint32_t i = 0; i < 3; ++i) {
    for (const MessagePtr& msg : {MessagePtr(prepare), MessagePtr(commit),
                                  MessagePtr(vote)}) {
      h.net_.Send(late, h.ids_[i], msg, msg->WireSize());
    }
  }
  h.sim_.RunUntil(Millis(400));
  EXPECT_EQ(calls[1], 1);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(h.replicas_[i]->HasCommitted(1)) << "node " << i;
    EXPECT_EQ(h.replicas_[i]->votes_held(1), 0u) << "node " << i;
  }

  // A view change before any checkpoint carries seq 1's proposal.
  h.SendReplaceToAll();
  h.sim_.RunUntil(Millis(800));
  ASSERT_FALSE(proofs.empty());
  for (const PreparedProof& p : proofs) {
    EXPECT_EQ(p.view, 0u);
    EXPECT_EQ(p.digest, cert->digest);
    EXPECT_EQ(p.batch, batch);
  }

  // Seqs 2..8 commit in the new view and cut the checkpoint at 8.
  for (TxnId t = 2; t <= 8; ++t) h.SendTxn(t, h.ids_[1]);
  h.sim_.RunUntil(Seconds(2));
  ASSERT_FALSE(compact.empty());
  const auto expected = crypto::CompactCertificate::FromFull(*cert);
  for (const crypto::CompactCertificate& c : compact) {
    EXPECT_EQ(c.view, expected.view);
    EXPECT_EQ(c.digest, expected.digest);
    EXPECT_EQ(c.signers, expected.signers);
    EXPECT_EQ(c.aggregate, expected.aggregate);
  }
  EXPECT_EQ(expected.signers.size(), 3u);
  EXPECT_EQ(calls[1], 1);
}

INSTANTIATE_TEST_SUITE_P(VotePatterns, PbftPatternTest,
                         ::testing::Values(VotePattern::kAllToAll,
                                           VotePattern::kCollector),
                         [](const auto& info) {
                           return info.param == VotePattern::kAllToAll
                                      ? "AllToAll"
                                      : "Collector";
                         });

}  // namespace
}  // namespace sbft::shim
