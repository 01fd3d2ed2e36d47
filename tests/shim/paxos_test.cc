#include "shim/paxos_replica.h"

#include <gtest/gtest.h>

#include <set>

#include "sim/region.h"

namespace sbft::shim {
namespace {

class PaxosHarness {
 public:
  explicit PaxosHarness(uint32_t n,
                        size_t pipeline_width = ShimConfig{}.pipeline_width)
      : sim_(55), net_(&sim_, sim::RegionTable::Aws11(), {}) {
    ShimConfig config;
    config.n = n;
    config.batch_size = 1;
    config.batch_timeout = Millis(1);
    config.pipeline_width = pipeline_width;
    for (uint32_t i = 0; i < n; ++i) ids_.push_back(i + 1);
    for (uint32_t i = 0; i < n; ++i) {
      replicas_.push_back(std::make_unique<MultiPaxosReplica>(
          ids_[i], i, config, ids_, &sim_, &net_));
      net_.Register(replicas_.back().get(), 0);
      // Only the leader commits, and after a failover that is another
      // node, so every node records.
      replicas_.back()->SetCommitCallback(
          [this](SeqNum seq, ViewNum, const workload::BatchPtr& batch,
                 const crypto::CertPtr& cert) {
            commits_[seq] = batch->txns.size();
            digests_[seq].insert(cert->digest);
          });
    }
  }

  void SubmitTxn(TxnId id) {
    workload::Transaction txn;
    txn.id = id;
    txn.client = 99;
    replicas_[0]->SubmitTransaction(workload::ShareTxn(txn));
  }

  sim::Simulator sim_;
  sim::Network net_;
  std::vector<ActorId> ids_;
  std::vector<std::unique_ptr<MultiPaxosReplica>> replicas_;
  std::map<SeqNum, size_t> commits_;
  std::map<SeqNum, std::set<crypto::Digest>> digests_;
};

TEST(PaxosTest, LeaderCommitsWithMajority) {
  PaxosHarness h(5);
  h.SubmitTxn(1);
  h.sim_.RunUntil(Seconds(1));
  EXPECT_EQ(h.commits_.size(), 1u);
  EXPECT_EQ(h.replicas_[0]->committed_batches(), 1u);
}

TEST(PaxosTest, ManySlotsCommitInOrder) {
  PaxosHarness h(5);
  for (TxnId t = 1; t <= 20; ++t) h.SubmitTxn(t);
  h.sim_.RunUntil(Seconds(1));
  EXPECT_EQ(h.commits_.size(), 20u);
  for (SeqNum s = 1; s <= 20; ++s) {
    EXPECT_TRUE(h.commits_.contains(s));
  }
}

TEST(PaxosTest, OnlyLeaderProposes) {
  PaxosHarness h(3);
  // A non-leader receiving a client request forwards it to the leader.
  workload::Transaction txn;
  txn.id = 5;
  txn.client = 99;
  auto msg = std::make_shared<ClientRequestMsg>(99);
  msg->txn = txn;
  // Register a fake client endpoint so Send succeeds.
  struct Sink : sim::Actor {
    explicit Sink(ActorId id) : Actor(id, "sink") {}
    void OnMessage(const sim::Envelope&) override {}
  } sink(99);
  h.net_.Register(&sink, 0);
  h.net_.Send(99, h.ids_[2], msg, msg->WireSize());
  h.sim_.RunUntil(Seconds(1));
  EXPECT_EQ(h.replicas_[0]->committed_batches(), 1u);
}

TEST(PaxosTest, DuplicateSubmissionsIgnored) {
  PaxosHarness h(3);
  h.SubmitTxn(1);
  h.SubmitTxn(1);
  h.sim_.RunUntil(Seconds(1));
  EXPECT_EQ(h.commits_.size(), 1u);
}

TEST(PaxosTest, GroupOfOneEmitsBatchesImmediately) {
  // The no-shim baseline: a leader that is its own majority commits each
  // batch as it proposes it, sends nothing, and keeps no log.
  sim::Simulator sim(9);
  sim::Network net(&sim, sim::RegionTable::Aws11(), {});
  ShimConfig config;
  config.n = 1;
  config.batch_size = 2;
  config.batch_timeout = Millis(1);
  MultiPaxosReplica node(77, 0, config, {77}, &sim, &net);
  net.Register(&node, 0);
  std::map<SeqNum, size_t> commits;
  node.SetCommitCallback(
      [&](SeqNum seq, ViewNum, const workload::BatchPtr& batch,
          const crypto::CertPtr&) {
        commits[seq] = batch->txns.size();
      });
  for (TxnId t = 1; t <= 5; ++t) {
    workload::Transaction txn;
    txn.id = t;
    node.SubmitTransaction(workload::ShareTxn(txn));
  }
  EXPECT_EQ(commits.size(), 2u);  // Before any event runs.
  sim.RunUntil(Seconds(1));
  // Two full batches immediately, the tail after the flush timer.
  EXPECT_EQ(commits.size(), 3u);
  EXPECT_EQ(commits[1], 2u);
  EXPECT_EQ(commits[2], 2u);
  EXPECT_EQ(commits[3], 1u);
  EXPECT_EQ(node.committed_txns(), 5u);
  EXPECT_EQ(node.log_size(), 0u);
  EXPECT_EQ(net.messages_sent(), 0u);
}

TEST(PaxosTest, LogsStayWithinThePipelineWindow) {
  // Each node keeps only the slots above the commit frontier: the
  // leader its in-flight window plus slots that committed out of order,
  // a follower the accepted values above the frontier the last Accept
  // carried. Neither grows with the run.
  constexpr size_t kWidth = 16;
  constexpr size_t kTxns = 5000;
  PaxosHarness h(3, kWidth);
  for (TxnId t = 1; t <= kTxns; ++t) h.SubmitTxn(t);
  std::vector<size_t> peak(h.replicas_.size(), 0);
  while (h.commits_.size() < kTxns && h.sim_.now() < Seconds(60)) {
    h.sim_.RunUntil(h.sim_.now() + Micros(100));
    for (size_t i = 0; i < peak.size(); ++i) {
      peak[i] = std::max(peak[i], h.replicas_[i]->log_size());
    }
  }
  ASSERT_EQ(h.commits_.size(), kTxns);
  EXPECT_GE(peak[0], kWidth);  // The window filled.
  for (size_t i = 0; i < peak.size(); ++i) {
    EXPECT_GT(peak[i], 0u) << "node " << i;
    EXPECT_LE(peak[i], 2 * kWidth) << "node " << i;
  }
}

TEST(PaxosTest, LeaderResendsAnAcceptALostMessageLeftOpen) {
  // Node 2 is down and the 0-1 link drops 2% of messages, so each lost
  // Accept or Accepted leaves its slot one accept short of a majority.
  // Resent Accepts close every such slot: all commit, the frontier
  // reaches the last slot, and the leader's log drains to the window.
  constexpr size_t kWidth = 16;
  constexpr size_t kTxns = 5000;
  PaxosHarness h(3, kWidth);
  h.replicas_[2]->SetCrashed(true);
  sim::LinkRule lossy;
  lossy.drop_probability = 0.02;
  h.net_.SetLinkRule(h.ids_[0], h.ids_[1], lossy);
  for (TxnId t = 1; t <= kTxns; ++t) h.SubmitTxn(t);
  h.sim_.RunUntil(Seconds(10));
  ASSERT_EQ(h.commits_.size(), kTxns);
  // One transaction per slot, so slots 1..kTxns all committed.
  EXPECT_EQ(h.commits_.rbegin()->first, kTxns);
  EXPECT_LE(h.replicas_[0]->log_size(), 2 * kWidth);
}

TEST(PaxosTest, TakeoverFromAPrunedPromiseProposesAboveItsFrontier) {
  // Node 1 misses every Accept while node 0 commits ten slots with node
  // 2, which then crashes. An ERROR-carried transaction makes node 1 take
  // over, and its one promise comes from node 0, which has pruned the ten
  // slots and reports only its commit frontier. Node 1 must propose above
  // that frontier: a fresh batch at slot 1 would commit a second value
  // there.
  PaxosHarness h(3);
  const SimDuration timeout = ShimConfig{}.view_change_timeout;
  h.net_.SetLinkEnabled(h.ids_[0], h.ids_[1], false);
  for (TxnId t = 1; t <= 10; ++t) h.SubmitTxn(t);
  h.sim_.RunUntil(Millis(100));
  ASSERT_EQ(h.commits_.size(), 10u);
  h.replicas_[2]->SetCrashed(true);

  auto error = std::make_shared<ErrorMsg>(900);
  error->reason = ErrorMsg::Reason::kMissingRequest;
  error->has_txn = true;
  error->txn.id = 11;
  error->txn.client = 99;
  sim::Envelope env;
  env.from = 900;
  env.to = h.ids_[1];
  env.message = error;
  h.replicas_[1]->OnMessage(env);
  // Node 1's first Prepare dies on the cut link; its retry, one timeout
  // later, reaches node 0.
  h.sim_.RunUntil(Millis(100) + timeout + Millis(200));
  EXPECT_TRUE(h.replicas_[1]->IsPrimary());
  h.net_.SetLinkEnabled(h.ids_[0], h.ids_[1], true);
  h.sim_.RunUntil(Millis(100) + 3 * timeout);

  EXPECT_EQ(h.commits_.size(), 11u);
  EXPECT_TRUE(h.commits_.contains(11));
  for (const auto& [seq, digests] : h.digests_) {
    EXPECT_EQ(digests.size(), 1u) << "slot " << seq;
  }
}

TEST(PaxosTest, AnAcceptDrainsOnlyTheEvidenceOfItsOwnClient) {
  // Ids count per client. Node 1 holds ERROR evidence for (50, 7) whose
  // forward to the leader is lost, then sees the leader's Accept for
  // (99, 7). That Accept must not drain the evidence: when the leader
  // crashes, node 1 takes over and (50, 7) commits.
  PaxosHarness h(3);
  const SimDuration timeout = ShimConfig{}.view_change_timeout;
  std::set<TxnKey> committed;
  h.replicas_[1]->SetCommitCallback(
      [&](SeqNum, ViewNum, const workload::BatchPtr& batch,
          const crypto::CertPtr&) {
        for (const workload::TxnPtr& txn : batch->txns) {
          committed.insert({txn->client, txn->id});
        }
      });

  h.net_.SetLinkEnabled(h.ids_[0], h.ids_[1], false);
  auto error = std::make_shared<ErrorMsg>(900);
  error->reason = ErrorMsg::Reason::kMissingRequest;
  error->has_txn = true;
  error->txn.id = 7;
  error->txn.client = 50;
  sim::Envelope env;
  env.from = 900;
  env.to = h.ids_[1];
  env.message = error;
  h.replicas_[1]->OnMessage(env);  // Its forward dies on the cut link.
  h.sim_.RunUntil(Millis(50));
  h.net_.SetLinkEnabled(h.ids_[0], h.ids_[1], true);

  h.SubmitTxn(7);  // (99, 7), proposed by the leader.
  h.sim_.RunUntil(Millis(100));
  ASSERT_EQ(h.commits_.size(), 1u);
  h.replicas_[0]->SetCrashed(true);
  h.sim_.RunUntil(Millis(100) + 3 * timeout);

  EXPECT_TRUE(h.replicas_[1]->IsPrimary());
  EXPECT_TRUE(committed.contains(TxnKey{50, 7}));
}

}  // namespace
}  // namespace sbft::shim
