// The intake every shim node keeps, whatever its consensus (shim::Replica):
// PBFT under both vote patterns, Multi-Paxos on three nodes and on one.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "shim/paxos_replica.h"
#include "shim/pbft_replica.h"
#include "sim/region.h"

namespace sbft::shim {
namespace {

constexpr ActorId kClient = 500;
constexpr size_t kWidth = 4;
constexpr SimDuration kFlush = Millis(5);

enum class Shim { kPbftAllToAll, kPbftCollector, kPaxos, kPaxosOfOne };

struct Sink : sim::Actor {
  explicit Sink(ActorId id) : Actor(id, "client-sink") {}
  void OnMessage(const sim::Envelope&) override {}
};

/// n nodes of one shim on a LAN, node 0 leading view 0, and a client.
class IntakeTest : public ::testing::TestWithParam<Shim> {
 protected:
  IntakeTest()
      : n_(GetParam() == Shim::kPaxosOfOne ? 1
           : GetParam() == Shim::kPaxos    ? 3
                                           : 4),
        sim_(7),
        net_(&sim_, sim::RegionTable::Aws11(), {}),
        keys_(crypto::CryptoMode::kFast, 7),
        client_(kClient) {
    keys_.RegisterNode(kClient);
    net_.Register(&client_, 0);
  }

  /// Batches of `batch_size`; neither PBFT's τ_m nor the Accept resend
  /// fires within a test.
  void Build(size_t batch_size = 1) {
    ShimConfig config;
    config.n = n_;
    config.batch_size = batch_size;
    config.batch_timeout = kFlush;
    config.pipeline_width = kWidth;
    config.request_timeout = Seconds(1);
    for (uint32_t i = 0; i < n_; ++i) {
      ids_.push_back(i + 1);
      keys_.RegisterNode(i + 1);
    }
    for (uint32_t i = 0; i < n_; ++i) {
      if (GetParam() == Shim::kPaxos || GetParam() == Shim::kPaxosOfOne) {
        replicas_.push_back(std::make_unique<MultiPaxosReplica>(
            ids_[i], i, config, ids_, &sim_, &net_));
      } else {
        replicas_.push_back(std::make_unique<PbftReplica>(
            ids_[i], i, config, ids_, &keys_, &sim_, &net_,
            GetParam() == Shim::kPbftCollector ? VotePattern::kCollector
                                               : VotePattern::kAllToAll));
      }
      net_.Register(replicas_.back().get(), 0);
    }
    replicas_[0]->SetCommitCallback(
        [this](SeqNum seq, ViewNum, const workload::BatchPtr& batch,
               const crypto::CertPtr&) {
          for (const workload::TxnPtr& txn : batch->txns) {
            commits_[seq].push_back(txn->id);
          }
        });
  }

  static workload::Transaction Txn(TxnId id, TxnId floor = 0) {
    workload::Transaction txn;
    txn.id = id;
    txn.client = kClient;
    txn.floor = floor;
    return txn;
  }

  /// The client signs `txn` and sends it to node `to`.
  void Send(const workload::Transaction& txn, uint32_t to = 0) {
    auto msg = std::make_shared<ClientRequestMsg>(kClient);
    msg->txn = txn;
    msg->client_sig =
        keys_.Sign(kClient, ClientRequestMsg::SigningBytes(msg->txn));
    net_.Send(kClient, ids_[to], msg, msg->WireSize());
  }

  /// Batches node 0 proposed, while it is the only node that sends: each
  /// proposal goes to every other node. A group of one sends nothing and
  /// commits each batch as it proposes it.
  size_t Proposals() const {
    return n_ == 1 ? commits_.size() : net_.messages_sent() / (n_ - 1);
  }

  /// Node 0's committed batches that hold `id`.
  size_t TimesCommitted(TxnId id) const {
    size_t times = 0;
    for (const auto& [seq, ids] : commits_) {
      for (TxnId txn : ids) times += txn == id ? 1 : 0;
    }
    return times;
  }

  const uint32_t n_;
  sim::Simulator sim_;
  sim::Network net_;
  crypto::KeyRegistry keys_;
  Sink client_;
  std::vector<ActorId> ids_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  /// Node 0's commits: the transaction ids of each sequence.
  std::map<SeqNum, std::vector<TxnId>> commits_;
};

TEST_P(IntakeTest, ResentRequestIsProposedOnce) {
  Build();
  Send(Txn(1));
  Send(Txn(1));
  sim_.RunUntil(Millis(200));
  ASSERT_EQ(TimesCommitted(1), 1u);
  // A client that missed the answer resends after the commit.
  Send(Txn(1));
  replicas_[0]->SubmitTransaction(workload::ShareTxn(Txn(1)));
  sim_.RunUntil(Millis(400));
  EXPECT_EQ(TimesCommitted(1), 1u);
  EXPECT_EQ(commits_.size(), 1u);
}

TEST_P(IntakeTest, RequestAtOrBelowItsClientsFloorIsNeverProposed) {
  Build();
  // At 3 <= 5, then 4 while the floor is still 5.
  replicas_[0]->SubmitTransaction(workload::ShareTxn(Txn(3, /*floor=*/5)));
  replicas_[0]->SubmitTransaction(workload::ShareTxn(Txn(4)));
  replicas_[0]->SubmitTransaction(workload::ShareTxn(Txn(5)));
  replicas_[0]->SubmitTransaction(workload::ShareTxn(Txn(6, /*floor=*/5)));
  sim_.RunUntil(Millis(200));
  EXPECT_EQ(TimesCommitted(3), 0u);
  EXPECT_EQ(TimesCommitted(4), 0u);
  EXPECT_EQ(TimesCommitted(5), 0u);
  EXPECT_EQ(TimesCommitted(6), 1u);
  EXPECT_EQ(commits_.size(), 1u);
}

TEST_P(IntakeTest, PipelineStopsAtWidthAndTheFlushProposesOnePerTimeout) {
  // Every other node is down, so no slot commits: the loop fills the
  // pipeline, and past it only the flush proposes, one batch per timeout.
  // A group of one commits each batch as it proposes it, so its pipeline
  // never fills.
  constexpr size_t kTxns = 10;
  Build();
  for (uint32_t i = 1; i < n_; ++i) replicas_[i]->SetCrashed(true);
  for (TxnId t = 1; t <= kTxns; ++t) {
    replicas_[0]->SubmitTransaction(workload::ShareTxn(Txn(t)));
  }
  if (n_ == 1) {
    EXPECT_EQ(Proposals(), kTxns);
    return;
  }
  EXPECT_EQ(Proposals(), kWidth);
  for (size_t k = 1; kWidth + k <= kTxns; ++k) {
    const SimTime flush = static_cast<SimTime>(k) * kFlush;
    sim_.RunUntil(flush - 1);
    EXPECT_EQ(Proposals(), kWidth + k - 1) << "before flush " << k;
    sim_.RunUntil(flush);
    EXPECT_EQ(Proposals(), kWidth + k) << "at flush " << k;
  }
  sim_.RunUntil(Millis(100));
  EXPECT_EQ(Proposals(), kTxns);
  EXPECT_TRUE(commits_.empty());
}

TEST_P(IntakeTest, PartialBatchLeavesAfterBatchTimeout) {
  Build(/*batch_size=*/5);
  replicas_[0]->SubmitTransaction(workload::ShareTxn(Txn(1)));
  replicas_[0]->SubmitTransaction(workload::ShareTxn(Txn(2)));
  sim_.RunUntil(kFlush - 1);
  EXPECT_EQ(net_.messages_sent(), 0u);
  EXPECT_TRUE(commits_.empty());
  sim_.RunUntil(Millis(200));
  ASSERT_EQ(commits_.size(), 1u);
  EXPECT_EQ(commits_.begin()->second, (std::vector<TxnId>{1, 2}));
}

TEST_P(IntakeTest, RequestToABackupReachesThePrimary) {
  if (n_ == 1) GTEST_SKIP() << "a group of one has no backup";
  Build();
  Send(Txn(1), /*to=*/n_ - 1);
  sim_.RunUntil(Millis(200));
  EXPECT_EQ(TimesCommitted(1), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Shims, IntakeTest,
    ::testing::Values(Shim::kPbftAllToAll, Shim::kPbftCollector, Shim::kPaxos,
                      Shim::kPaxosOfOne),
    [](const auto& info) {
      switch (info.param) {
        case Shim::kPbftAllToAll: return "PbftAllToAll";
        case Shim::kPbftCollector: return "PbftCollector";
        case Shim::kPaxos: return "Paxos";
        case Shim::kPaxosOfOne: return "PaxosOfOne";
      }
      return "?";
    });

}  // namespace
}  // namespace sbft::shim
