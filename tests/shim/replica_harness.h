#ifndef SBFT_TESTS_SHIM_REPLICA_HARNESS_H_
#define SBFT_TESTS_SHIM_REPLICA_HARNESS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "shim/pbft_replica.h"
#include "shim/shim_config.h"
#include "sim/region.h"

namespace sbft::shim {

inline constexpr ActorId kClientId = 500;

/// Test rig: n PbftReplicas running `pattern` on a LAN with a scripted
/// client. Node i starts with `byzantine[i]` when present, else honest; a
/// test crashes a node with `replicas_[i]->SetCrashed(true)`.
class PbftHarness {
 public:
  explicit PbftHarness(uint32_t n,
                       std::map<uint32_t, ByzantineBehavior> byzantine = {},
                       sim::NetworkConfig net_config = {},
                       ShimConfig shim_config = DefaultShimConfig(),
                       VotePattern pattern = VotePattern::kAllToAll)
      : sim_(1234),
        net_(&sim_, sim::RegionTable::Aws11(), net_config),
        keys_(crypto::CryptoMode::kFast, 77),
        client_sink_(kClientId) {
    shim_config.n = n;
    config_ = shim_config;
    for (uint32_t i = 0; i < n; ++i) {
      ids_.push_back(i + 1);
      keys_.RegisterNode(i + 1);
    }
    keys_.RegisterNode(kClientId);
    commits_.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      replicas_.push_back(std::make_unique<PbftReplica>(
          ids_[i], i, config_, ids_, &keys_, &sim_, &net_, pattern));
      auto it = byzantine.find(i);
      if (it != byzantine.end()) replicas_.back()->SetBehavior(it->second);
      net_.Register(replicas_.back().get(), 0);
      uint32_t index = i;
      replicas_.back()->SetCommitCallback(
          [this, index](SeqNum seq, ViewNum, const workload::BatchPtr& batch,
                        const crypto::CertPtr& cert) {
            commits_[index][seq] = *cert;
            batch_sizes_[seq] = batch->txns.size();
          });
    }
    net_.Register(&client_sink_, 0);
  }

  static ShimConfig DefaultShimConfig() {
    ShimConfig config;
    config.batch_size = 1;
    config.batch_timeout = Millis(1);
    config.request_timeout = Millis(100);
    config.retransmit_timeout = Millis(80);
    config.view_change_timeout = Millis(300);
    config.checkpoint_interval = 8;
    return config;
  }

  void SendTxn(TxnId id, ActorId to = kInvalidActor) {
    auto msg = std::make_shared<ClientRequestMsg>(kClientId);
    msg->txn.id = id;
    msg->txn.client = kClientId;
    workload::Operation op;
    op.type = workload::OpType::kWrite;
    op.key = "user" + std::to_string(id);
    op.value = ToBytes("v");
    msg->txn.ops = {op};
    msg->client_sig =
        keys_.Sign(kClientId, ClientRequestMsg::SigningBytes(msg->txn));
    ActorId target = to == kInvalidActor ? ids_[0] : to;
    net_.Send(kClientId, target, msg, msg->WireSize());
  }

  /// Sends REPLACE to every node, as the verifier does (Fig. 4 line 14).
  void SendReplaceToAll() {
    auto replace = std::make_shared<ReplaceMsg>(kClientId);
    for (ActorId id : ids_) {
      net_.Send(kClientId, id, replace, replace->WireSize());
    }
  }

  /// Count of replicas that committed `seq`.
  size_t CommitCount(SeqNum seq) const {
    size_t count = 0;
    for (const auto& per_node : commits_) {
      if (per_node.contains(seq)) ++count;
    }
    return count;
  }

  /// True iff all replicas that committed `seq` agree on the digest.
  bool DigestsAgree(SeqNum seq) const {
    const crypto::Digest* first = nullptr;
    for (const auto& per_node : commits_) {
      auto it = per_node.find(seq);
      if (it == per_node.end()) continue;
      if (first == nullptr) {
        first = &it->second.digest;
      } else if (*first != it->second.digest) {
        return false;
      }
    }
    return true;
  }

  struct PassiveActor : sim::Actor {
    explicit PassiveActor(ActorId id) : Actor(id, "client-sink") {}
    void OnMessage(const sim::Envelope&) override {}
  };

  sim::Simulator sim_;
  sim::Network net_;
  crypto::KeyRegistry keys_;
  ShimConfig config_;
  std::vector<ActorId> ids_;
  std::vector<std::unique_ptr<PbftReplica>> replicas_;
  /// Per node: the commit certificate of every sequence it committed.
  std::vector<std::map<SeqNum, crypto::CommitCertificate>> commits_;
  std::map<SeqNum, size_t> batch_sizes_;
  PassiveActor client_sink_;
};

}  // namespace sbft::shim

#endif  // SBFT_TESTS_SHIM_REPLICA_HARNESS_H_
