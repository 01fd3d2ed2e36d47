#include "core/shard_plane.h"

#include <algorithm>

#include "common/logging.h"
#include "shim/paxos_replica.h"

namespace sbft::core {

ShardPlane::ShardPlane(uint32_t shard, const SystemConfig& config,
                       sim::Simulator* sim, sim::Network* net,
                       crypto::KeyRegistry* keys)
    : shard_(shard), config_(config), sim_(sim), net_(net), keys_(keys) {}

ShardPlane::~ShardPlane() = default;

void ShardPlane::Build() {
  BuildShim();
  BuildVerifierAndStorage();
  BuildCloudAndSpawner();
  WireCommitCallbacks();
}

// ---------------------------------------------------------------------------
// Cost functions: CPU charged on the receiving machine per message.
// Sender-side signing costs are folded into these constants (see
// CostModel docs).
// ---------------------------------------------------------------------------

sim::Network::CostFn ShardPlane::ShimCostFn() const {
  // The crash-fault shim (CFT, and no shim, its group of one) signs
  // nothing, so its certificates need no quorum (§IX-H): authenticating a
  // client request costs a MAC check, not a DS verification.
  bool crypto_free = config_.CertQuorum() == 0;
  return [crypto_free](const sim::Envelope& env) -> SimDuration {
    const auto* msg = static_cast<const shim::Message*>(env.message.get());
    if (msg == nullptr) return kCosts.per_message;
    switch (msg->kind) {
      case shim::MsgKind::kClientRequest:
        return kCosts.per_message +
               (crypto_free ? kCosts.mac : kCosts.ds_verify);
      case shim::MsgKind::kPrePrepare: {
        const auto* pp = static_cast<const shim::PrePrepareMsg*>(msg);
        return kCosts.per_message + kCosts.mac +
               kCosts.per_txn *
                   static_cast<SimDuration>(pp->batch->txns.size());
      }
      case shim::MsgKind::kPrepare:
        return kCosts.per_message + kCosts.mac;
      case shim::MsgKind::kCommit:
        // Verify the sender's DS + sign our own (amortized here).
        return kCosts.per_message + kCosts.ds_verify + kCosts.ds_sign;
      case shim::MsgKind::kViewChange:
      case shim::MsgKind::kNewView:
        return kCosts.per_message + kCosts.ds_verify;
      case shim::MsgKind::kCheckpoint: {
        const auto* cp = static_cast<const shim::CheckpointMsg*>(msg);
        return kCosts.per_message +
               kCosts.ds_verify *
                   static_cast<SimDuration>(cp->certs.size() + 1);
      }
      case shim::MsgKind::kPaxosAccept: {
        const auto* pa = static_cast<const shim::PaxosAcceptMsg*>(msg);
        return kCosts.per_message +
               kCosts.per_txn *
                   static_cast<SimDuration>(pa->batch->txns.size());
      }
      case shim::MsgKind::kPaxosAccepted:
        return kCosts.per_message;
      case shim::MsgKind::kLinearVote:
        // Collector verifies the vote and will sign/emit certificates.
        return kCosts.per_message + kCosts.ds_verify;
      case shim::MsgKind::kLinearCert: {
        const auto* lc = static_cast<const shim::LinearCertMsg*>(msg);
        return kCosts.per_message +
               kCosts.ds_verify *
                   static_cast<SimDuration>(lc->cert.signatures.size()) +
               kCosts.ds_sign;
      }
      default:
        return kCosts.per_message;
    }
  };
}

sim::Network::CostFn ShardPlane::VerifierCostFn() const {
  return [](const sim::Envelope& env) -> SimDuration {
    const auto* msg = static_cast<const shim::Message*>(env.message.get());
    if (msg == nullptr) return kCosts.per_message;
    if (msg->kind == shim::MsgKind::kShardCommitDecision) {
      // The coordinator's per-recipient decision signing (amortized onto
      // the receiver, kCommit convention) plus the participant's MAC
      // check + buffered write-set lookup, instead of the generic
      // dispatch charge. Charged per decision message — re-answers to
      // retried votes are real re-signs.
      return kCosts.twopc_decision_sign + kCosts.twopc_decision_verify;
    }
    if (msg->kind == shim::MsgKind::kVerify) {
      const auto* v = static_cast<const shim::VerifyMsg*>(msg);
      // Executor sig + certificate sigs + per-transaction bookkeeping.
      return kCosts.per_message + kCosts.ds_verify +
             kCosts.ds_verify *
                 static_cast<SimDuration>(v->cert->signatures.size()) +
             kCosts.per_txn * static_cast<SimDuration>(v->txn_refs.size());
    }
    if (msg->kind == shim::MsgKind::kClientRequest) {
      return kCosts.per_message + kCosts.ds_verify;
    }
    return kCosts.per_message;
  };
}

sim::Network::CostFn ShardPlane::StorageCostFn() const {
  return [](const sim::Envelope& env) -> SimDuration {
    const auto* msg = static_cast<const shim::Message*>(env.message.get());
    if (msg != nullptr && msg->kind == shim::MsgKind::kStorageRead) {
      const auto* read = static_cast<const shim::StorageReadMsg*>(msg);
      return kCosts.per_message +
             Micros(1) * static_cast<SimDuration>(read->keys.size());
    }
    return kCosts.per_message;
  };
}

// ---------------------------------------------------------------------------
// Component construction.
// ---------------------------------------------------------------------------

void ShardPlane::BuildShim() {
  for (uint32_t i = 0; i < config_.shim.n; ++i) {
    shim_ids_.push_back(ShimActorId(shard_, i));
    keys_->RegisterNode(shim_ids_[i]);
  }
  // The crash-fault shims (CFT, and no shim, its group of one) certify
  // with no quorum; the others run PBFT.
  const bool crash_fault = config_.CertQuorum() == 0;
  const shim::VotePattern pattern =
      config_.protocol == Protocol::kServerlessBftLinear
          ? shim::VotePattern::kCollector
          : shim::VotePattern::kAllToAll;
  for (uint32_t i = 0; i < config_.shim.n; ++i) {
    std::unique_ptr<shim::Replica> replica;
    if (crash_fault) {
      replica = std::make_unique<shim::MultiPaxosReplica>(
          shim_ids_[i], i, config_.shim, shim_ids_, sim_, net_);
    } else {
      auto pbft = std::make_unique<shim::PbftReplica>(
          shim_ids_[i], i, config_.shim, shim_ids_, keys_, sim_, net_,
          pattern);
      pbft_replicas_.push_back(pbft.get());
      replica = std::move(pbft);
    }
    auto cpu = std::make_unique<sim::ServerResource>(sim_, config_.shim_cores);
    net_->Register(replica.get(), sim::RegionTable::kHomeRegion);
    net_->AttachServer(shim_ids_[i], cpu.get(), ShimCostFn());
    replicas_.push_back(std::move(replica));
    shim_cpus_.push_back(std::move(cpu));
  }
}

void ShardPlane::BuildVerifierAndStorage() {
  keys_->RegisterNode(VerifierId(shard_));
  keys_->RegisterNode(StorageId(shard_));

  verifier::VerifierConfig vconfig;
  vconfig.f_e = config_.f_e;
  vconfig.shim_quorum = config_.CertQuorum();
  vconfig.conflicts_possible = config_.conflicts_possible;
  vconfig.match_timeout = config_.verifier_match_timeout;
  vconfig.shard = shard_;
  vconfig.prepare_lock_queue_depth = config_.prepare_lock_queue_depth;
  // Coordinator topology (DESIGN.md §10/§12). The Architecture clamps
  // coordinator_groups/replicas into config_ before any plane is built,
  // so this view matches what BuildCoordinator constructs.
  if (config_.shard_count > 1) {
    vconfig.coord_groups = core::CoordGroups{config_.coordinator_groups,
                                             config_.coordinator_replicas};
  }

  verifier_ = std::make_unique<verifier::Verifier>(
      VerifierId(shard_), vconfig, &store_, keys_, sim_, net_, shim_ids_);
  verifier_cpu_ =
      std::make_unique<sim::ServerResource>(sim_, config_.verifier_cores);
  net_->Register(verifier_.get(), sim::RegionTable::kHomeRegion);
  net_->AttachServer(VerifierId(shard_), verifier_cpu_.get(),
                     VerifierCostFn());

  storage_actor_ = std::make_unique<verifier::StorageActor>(
      StorageId(shard_), &store_, net_);
  net_->Register(storage_actor_.get(), sim::RegionTable::kHomeRegion);
  net_->AttachServer(StorageId(shard_), verifier_cpu_.get(),
                     StorageCostFn());
}

void ShardPlane::BuildCloudAndSpawner() {
  cloud_ = std::make_unique<serverless::CloudSimulator>(
      sim_, net_, keys_, config_.cloud, FirstExecutorId(shard_));
  spawner_ = std::make_unique<Spawner>(config_, cloud_.get(), keys_, sim_,
                                       VerifierId(shard_), StorageId(shard_));
  // Unified commit path: the spawner's §VI-C lock stage reads the
  // verifier's prepare-lock table (one shared LockTable per tier) so the
  // primary stops proposing batches that would collide with in-flight
  // 2PC fragments, and the verifier's decision-release re-drives it.
  spawner_->SetPrepareLockView(verifier_->prepare_lock_table());
  verifier_->SetLockReleaseCallback(
      [this]() { spawner_->OnPrepareLocksReleased(); });
}

void ShardPlane::WireCommitCallbacks() {
  for (const auto& replica : replicas_) {
    replica->SetResponseObserver(
        [this](ActorId from, const shim::ResponseMsg& msg) {
          OnShimResponse(from, msg);
        });
  }
  switch (config_.protocol) {
    case Protocol::kServerlessBft:
    case Protocol::kServerlessBftLinear:
      WirePbftCallbacks();
      break;
    case Protocol::kPbftBaseline:
      WirePbftBaselineExecution();
      break;
    case Protocol::kServerlessCft:
    case Protocol::kNoShim:
      for (const auto& replica : replicas_) {
        replica->SetCommitCallback(
            [this](SeqNum seq, ViewNum view, const workload::BatchPtr& batch,
                   const crypto::CertPtr& cert) {
              shim::ByzantineBehavior honest;
              spawner_->OnCommit(shim_ids_[0], /*is_primary=*/true, honest,
                                 seq, view, batch, cert);
            });
      }
      break;
  }
}

void ShardPlane::WirePbftCallbacks() {
  for (uint32_t i = 0; i < pbft_replicas_.size(); ++i) {
    shim::PbftReplica* replica = pbft_replicas_[i];
    ActorId node = shim_ids_[i];
    uint32_t index = i;
    uint32_t n = config_.shim.n;

    replica->SetCommitCallback(
        [this, replica, node, index, n](
            SeqNum seq, ViewNum view,
            const workload::BatchPtr& batch,
            const crypto::CertPtr& cert) {
          bool is_primary = (view % n) == index;
          spawner_->OnCommit(node, is_primary, replica->behavior(), seq,
                             view, batch, cert);
        });
    replica->SetRespawnCallback(
        [this](SeqNum seq) { spawner_->OnRespawn(seq); });
  }
}

void ShardPlane::OnShimResponse(ActorId from, const shim::ResponseMsg& msg) {
  // Only this plane's verifier settles sequences. A RESPONSE from anyone
  // else (a byzantine shim node) would release §VI-C locks early, prune
  // respawn work the verifier still needs, and retire the keys of
  // executors whose VERIFYs the verifier has yet to check.
  if (from != VerifierId(shard_)) return;
  spawner_->OnResponse(msg.seq);
}

void ShardPlane::WirePbftBaselineExecution() {
  // PBFT baseline (Fig. 7/8): nodes execute locally with `ET` execution
  // threads; the primary answers clients after its own execution. No
  // executors, no verifier traffic.
  for (uint32_t i = 0; i < pbft_replicas_.size(); ++i) {
    exec_cpus_.push_back(std::make_unique<sim::ServerResource>(
        sim_, config_.execution_threads));
  }
  for (uint32_t i = 0; i < pbft_replicas_.size(); ++i) {
    shim::PbftReplica* replica = pbft_replicas_[i];
    sim::ServerResource* exec = exec_cpus_[i].get();
    uint32_t index = i;
    uint32_t n = config_.shim.n;
    ActorId node = shim_ids_[i];
    replica->SetCommitCallback(
        [this, exec, index, n, node](
            SeqNum seq, ViewNum view,
            const workload::BatchPtr& batch,
            const crypto::CertPtr& cert) {
          bool is_primary = (view % n) == index;
          // Every replica executes every transaction (replicated
          // execution); only the primary responds.
          for (const workload::TxnPtr& txn : batch->txns) {
            SimDuration cost = txn->ComputeCost() + Micros(5);
            TxnId txn_id = txn->id;
            ActorId client = txn->client;
            crypto::Digest digest = cert->digest;
            exec->Submit(cost, [this, is_primary, txn_id, client, seq,
                                digest, node]() {
              if (!is_primary) return;
              auto resp = std::make_shared<shim::ResponseMsg>(node);
              resp->txn_id = txn_id;
              resp->client = client;
              resp->seq = seq;
              resp->batch_digest = digest;
              net_->Send(node, client, resp, resp->WireSize());
            });
          }
        });
  }
}

// ---------------------------------------------------------------------------
// Runtime.
// ---------------------------------------------------------------------------

ActorId ShardPlane::CurrentPrimary() const {
  switch (config_.protocol) {
    case Protocol::kServerlessBft:
    case Protocol::kPbftBaseline:
    case Protocol::kServerlessBftLinear: {
      // Take the max view among the replicas that are honest right now
      // (byzantine ones may lag or lie; the honest majority decides where
      // clients should send).
      ViewNum view = 0;
      for (const auto& replica : pbft_replicas_) {
        if (replica->behavior().byzantine) continue;
        view = std::max(view, replica->view());
      }
      return shim_ids_[view % shim_ids_.size()];
    }
    case Protocol::kServerlessCft:
    case Protocol::kNoShim: {
      // Leader-stable multi-Paxos with crash failover: the highest view
      // among live replicas names the leader.
      ViewNum view = 0;
      for (const auto& replica : replicas_) {
        if (replica->crashed()) continue;
        view = std::max(view, replica->view());
      }
      return shim_ids_[view % shim_ids_.size()];
    }
  }
  return shim_ids_[0];
}

uint64_t ShardPlane::ViewChanges() const {
  uint64_t total = 0;
  for (const auto& replica : replicas_) total += replica->view_changes();
  return total;
}

}  // namespace sbft::core
