// The collector vote pattern of shim::PbftReplica: the linear shim of
// the paper's §IV-B remark.

#include <gtest/gtest.h>

#include "replica_harness.h"

namespace sbft::shim {
namespace {

/// A shim of n nodes running the collector (linear) vote pattern.
class LinearHarness : public PbftHarness {
 public:
  explicit LinearHarness(uint32_t n, ShimConfig config = DefaultShimConfig())
      : PbftHarness(n, {}, {}, config, VotePattern::kCollector) {}
};

TEST(LinearReplicaTest, CommitsOnAllNodes) {
  LinearHarness h(4);
  h.SendTxn(1);
  h.sim_.RunUntil(Seconds(1));
  EXPECT_EQ(h.CommitCount(1), 4u);
}

TEST(LinearReplicaTest, CertificateIsStandardCommitCert) {
  // The collector's output certificate must validate exactly like the
  // all-to-all pattern's — executors/verifier are protocol-agnostic.
  LinearHarness h(4);
  h.SendTxn(1);
  h.sim_.RunUntil(Seconds(1));
  ASSERT_TRUE(h.commits_[1].contains(1));
  const crypto::CommitCertificate& cert = h.commits_[1][1];
  EXPECT_TRUE(cert.Validate(h.keys_, h.config_.quorum()).ok());
}

TEST(LinearReplicaTest, ManySequencesCommit) {
  LinearHarness h(4);
  for (TxnId t = 1; t <= 20; ++t) h.SendTxn(t);
  h.sim_.RunUntil(Seconds(2));
  for (SeqNum s = 1; s <= 20; ++s) {
    EXPECT_EQ(h.CommitCount(s), 4u) << "seq " << s;
  }
}

TEST(LinearReplicaTest, LinearMessageComplexity) {
  // Messages per consensus must grow linearly, not quadratically: for one
  // batch at shim size n the normal case sends ~4(n-1) + forwarding.
  uint64_t msgs_4, msgs_16;
  {
    LinearHarness h(4);
    uint64_t before = h.net_.messages_sent();
    h.SendTxn(1);
    h.sim_.RunUntil(Seconds(1));
    msgs_4 = h.net_.messages_sent() - before;
  }
  {
    LinearHarness h(16);
    uint64_t before = h.net_.messages_sent();
    h.SendTxn(1);
    h.sim_.RunUntil(Seconds(1));
    msgs_16 = h.net_.messages_sent() - before;
  }
  // 4x the nodes must cost ~4x the messages (quadratic would be ~16x).
  EXPECT_LT(msgs_16, msgs_4 * 8);
  EXPECT_GT(msgs_16, msgs_4 * 2);
}

TEST(LinearReplicaTest, ToleratesCrashedBackup) {
  LinearHarness h(4);
  h.replicas_[2]->SetCrashed(true);
  for (TxnId t = 1; t <= 5; ++t) h.SendTxn(t);
  h.sim_.RunUntil(Seconds(1));
  for (SeqNum s = 1; s <= 5; ++s) {
    EXPECT_GE(h.CommitCount(s), 3u);
  }
}

TEST(LinearReplicaTest, ReplaceTriggersViewChange) {
  LinearHarness h(4);
  h.SendReplaceToAll();
  h.sim_.RunUntil(Seconds(1));
  EXPECT_TRUE(h.replicas_[1]->IsPrimary());
  h.SendTxn(1, h.ids_[1]);
  h.sim_.RunUntil(Seconds(2));
  EXPECT_GE(h.CommitCount(1), 3u);
}

TEST(LinearReplicaTest, RequestForwardedToPrimary) {
  LinearHarness h(4);
  h.SendTxn(1, h.ids_[3]);
  h.sim_.RunUntil(Seconds(1));
  EXPECT_EQ(h.CommitCount(1), 4u);
}

TEST(LinearReplicaTest, DuplicateSubmissionsCommitOnce) {
  LinearHarness h(4);
  h.SendTxn(9);
  h.SendTxn(9);
  h.sim_.RunUntil(Seconds(1));
  EXPECT_EQ(h.CommitCount(1), 4u);
  EXPECT_EQ(h.CommitCount(2), 0u);
}

TEST(LinearReplicaTest, LargerShims) {
  LinearHarness h(10);  // f = 3.
  for (TxnId t = 1; t <= 5; ++t) h.SendTxn(t);
  h.sim_.RunUntil(Seconds(2));
  for (SeqNum s = 1; s <= 5; ++s) {
    EXPECT_EQ(h.CommitCount(s), 10u);
  }
}

TEST(LinearReplicaTest, CheckpointsKeepUpOverLongRuns) {
  // Checkpoints are what prune committed slots; the collector must cut
  // and stabilise them like the all-to-all pattern does.
  ShimConfig config = PbftHarness::DefaultShimConfig();
  config.checkpoint_interval = 128;
  LinearHarness h(4, config);
  for (TxnId t = 1; t <= 2000; ++t) h.SendTxn(t);
  h.sim_.RunUntil(Seconds(5));
  EXPECT_EQ(h.CommitCount(2000), 4u);
  for (const auto& replica : h.replicas_) {
    EXPECT_GE(replica->stable_seq(), 1920u) << replica->name();
  }
}

}  // namespace
}  // namespace sbft::shim
