#include "shim/linear_replica.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"

namespace sbft::shim {

LinearBftReplica::LinearBftReplica(ActorId id, uint32_t index,
                                   const ShimConfig& config,
                                   std::vector<ActorId> peers,
                                   crypto::KeyRegistry* keys,
                                   sim::Simulator* sim, sim::Network* net,
                                   ByzantineBehavior behavior)
    : Actor(id, "linear-" + std::to_string(index)),
      config_(config),
      index_(index),
      peers_(std::move(peers)),
      keys_(keys),
      sim_(sim),
      net_(net),
      behavior_(behavior) {
  assert(peers_[index_] == id);
}

ActorId LinearBftReplica::PrimaryOf(ViewNum view) const {
  return peers_[view % peers_.size()];
}

bool LinearBftReplica::IsPrimary() const { return PrimaryOf(view_) == id(); }

void LinearBftReplica::BroadcastToPeers(const MessagePtr& msg) {
  net_->Broadcast(id(), peers_, id(), msg, msg->WireSize());
}

void LinearBftReplica::OnMessage(const sim::Envelope& env) {
  if (Crashed()) return;
  const auto* base = static_cast<const Message*>(env.message.get());
  if (base == nullptr) return;
  switch (base->kind) {
    case MsgKind::kClientRequest:
      HandleClientRequest(env);
      break;
    case MsgKind::kPrePrepare:
      HandlePrePrepare(env);
      break;
    case MsgKind::kLinearVote:
      HandleVote(env);
      break;
    case MsgKind::kLinearCert:
      HandleCert(env);
      break;
    case MsgKind::kReplace:
      HandleReplace(env);
      break;
    case MsgKind::kError:
      HandleError(env);
      break;
    case MsgKind::kAck:
      HandleAck(env);
      break;
    case MsgKind::kViewChange:
      HandleViewChange(env);
      break;
    case MsgKind::kNewView:
      HandleNewView(env);
      break;
    case MsgKind::kResponse: {
      const auto* msg = MessageAs<ResponseMsg>(env, MsgKind::kResponse);
      if (msg != nullptr && response_observer_) {
        response_observer_(env.from, *msg);
      }
      break;
    }
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// Batching (same policy as PbftReplica).
// ---------------------------------------------------------------------------

void LinearBftReplica::HandleClientRequest(const sim::Envelope& env) {
  const auto* msg = MessageAs<ClientRequestMsg>(env, MsgKind::kClientRequest);
  if (msg == nullptr) return;
  if (!keys_->Verify(msg->txn.client,
                     ClientRequestMsg::SigningBytes(msg->txn),
                     msg->client_sig)) {
    return;
  }
  if (!IsPrimary()) {
    net_->Send(id(), PrimaryOf(view_), env.message, msg->WireSize());
    return;
  }
  if (behavior_.byzantine && behavior_.suppress_requests) return;
  SubmitTransaction(msg->txn);
}

void LinearBftReplica::SubmitTransaction(const workload::Transaction& txn) {
  if (seen_txns_.contains(txn.id)) return;
  seen_txns_.insert(txn.id);
  pending_.push_back(txn);
  MaybeProposeBatch();
}

void LinearBftReplica::ScheduleBatchFlush() {
  if (batch_flush_timer_ != 0 || pending_.empty()) return;
  batch_flush_timer_ = sim_->Schedule(config_.batch_timeout, [this]() {
    batch_flush_timer_ = 0;
    if (Crashed() || !IsPrimary() || in_view_change_ || pending_.empty()) {
      return;
    }
    size_t take = std::min(pending_.size(), config_.batch_size);
    workload::TransactionBatch batch;
    batch.txns.assign(pending_.begin(), pending_.begin() + take);
    pending_.erase(pending_.begin(), pending_.begin() + take);
    ProposeBatch(std::move(batch));
    MaybeProposeBatch();
  });
}

void LinearBftReplica::MaybeProposeBatch() {
  if (Crashed() || !IsPrimary() || in_view_change_) return;
  size_t inflight = 0;
  for (const auto& [seq, slot] : slots_) {
    if (!slot.committed) ++inflight;
  }
  while (pending_.size() >= config_.batch_size &&
         inflight < config_.pipeline_width) {
    workload::TransactionBatch batch;
    batch.txns.assign(pending_.begin(), pending_.begin() + config_.batch_size);
    pending_.erase(pending_.begin(), pending_.begin() + config_.batch_size);
    ProposeBatch(std::move(batch));
    ++inflight;
  }
  ScheduleBatchFlush();
}

void LinearBftReplica::ProposeBatch(workload::TransactionBatch batch) {
  SeqNum seq = next_seq_++;
  auto msg = std::make_shared<PrePrepareMsg>(id());
  msg->view = view_;
  msg->seq = seq;
  msg->batch = workload::ShareBatch(std::move(batch));
  msg->digest = msg->batch->Hash();

  Slot& slot = GetSlot(seq);
  slot.view = view_;
  slot.digest = msg->digest;
  slot.batch = msg->batch;
  slot.have_preprepare = true;
  // The primary's own prepare vote.
  slot.prepare_votes[id()] = keys_->Sign(
      id(), LinearVoteMsg::PrepareSigningBytes(view_, seq, msg->digest));

  BroadcastToPeers(msg);
  StartRequestTimer(seq);
}

// ---------------------------------------------------------------------------
// Linear consensus.
// ---------------------------------------------------------------------------

void LinearBftReplica::HandlePrePrepare(const sim::Envelope& env) {
  const auto* msg = MessageAs<PrePrepareMsg>(env, MsgKind::kPrePrepare);
  if (msg == nullptr) return;
  if (msg->view != view_ || in_view_change_) return;
  if (env.from != PrimaryOf(view_)) return;
  if (msg->batch->Hash() != msg->digest) return;

  Slot& slot = GetSlot(msg->seq);
  if (slot.committed || slot.have_preprepare) return;
  slot.view = msg->view;
  slot.digest = msg->digest;
  slot.batch = msg->batch;
  slot.have_preprepare = true;
  StartRequestTimer(msg->seq);
  SendVote(msg->seq, LinearPhase::kPrepare);
}

void LinearBftReplica::SendVote(SeqNum seq, LinearPhase phase) {
  Slot& slot = GetSlot(seq);
  auto vote = std::make_shared<LinearVoteMsg>(id());
  vote->phase = phase;
  vote->view = slot.view;
  vote->seq = seq;
  vote->digest = slot.digest;
  if (phase == LinearPhase::kPrepare) {
    vote->ds = keys_->Sign(
        id(), LinearVoteMsg::PrepareSigningBytes(slot.view, seq, slot.digest));
  } else {
    vote->ds = keys_->Sign(
        id(), crypto::CommitSigningBytes(slot.view, seq, slot.digest));
  }
  net_->Send(id(), PrimaryOf(slot.view), vote, vote->WireSize());
}

void LinearBftReplica::HandleVote(const sim::Envelope& env) {
  const auto* msg = MessageAs<LinearVoteMsg>(env, MsgKind::kLinearVote);
  if (msg == nullptr) return;
  if (!IsPrimary() || msg->view != view_) return;
  Slot& slot = GetSlot(msg->seq);
  if (!slot.have_preprepare || slot.digest != msg->digest) return;

  const Bytes signing =
      msg->phase == LinearPhase::kPrepare
          ? LinearVoteMsg::PrepareSigningBytes(msg->view, msg->seq,
                                               msg->digest)
          : crypto::CommitSigningBytes(msg->view, msg->seq, msg->digest);
  if (!keys_->Verify(env.from, signing, msg->ds)) return;

  auto& votes = msg->phase == LinearPhase::kPrepare ? slot.prepare_votes
                                                    : slot.commit_votes;
  votes[env.from] = msg->ds;
  if (votes.size() < config_.quorum()) return;

  if (msg->phase == LinearPhase::kPrepare && !slot.prepare_cert_sent) {
    slot.prepare_cert_sent = true;
    slot.prepared = true;
    auto cert_msg = std::make_shared<LinearCertMsg>(id());
    cert_msg->phase = LinearPhase::kPrepare;
    cert_msg->cert.view = slot.view;
    cert_msg->cert.seq = msg->seq;
    cert_msg->cert.digest = slot.digest;
    for (const auto& [signer, sig] : slot.prepare_votes) {
      if (cert_msg->cert.signatures.size() >= config_.quorum()) break;
      cert_msg->cert.signatures.push_back({signer, sig});
    }
    BroadcastToPeers(cert_msg);
    // The primary's own commit vote (quorum >= 3 for any valid shim, so
    // this never completes the commit quorum by itself).
    slot.commit_votes[id()] = keys_->Sign(
        id(), crypto::CommitSigningBytes(slot.view, msg->seq, slot.digest));
    return;
  }
  if (msg->phase == LinearPhase::kCommit && !slot.committed) {
    slot.committed = true;
    slot.cert.view = slot.view;
    slot.cert.seq = msg->seq;
    slot.cert.digest = slot.digest;
    for (const auto& [signer, sig] : slot.commit_votes) {
      if (slot.cert.signatures.size() >= config_.quorum()) break;
      slot.cert.signatures.push_back({signer, sig});
    }
    auto cert_msg = std::make_shared<LinearCertMsg>(id());
    cert_msg->phase = LinearPhase::kCommit;
    cert_msg->cert = slot.cert;
    BroadcastToPeers(cert_msg);
    OnCommitted(msg->seq);
  }
}

void LinearBftReplica::HandleCert(const sim::Envelope& env) {
  const auto* msg = MessageAs<LinearCertMsg>(env, MsgKind::kLinearCert);
  if (msg == nullptr) return;
  Slot& slot = GetSlot(msg->cert.seq);
  if (slot.committed) return;
  if (!slot.have_preprepare || slot.digest != msg->cert.digest) return;

  if (msg->phase == LinearPhase::kPrepare) {
    // Validate the 2f+1 prepare signatures against the prepare domain.
    Bytes signing = LinearVoteMsg::PrepareSigningBytes(
        msg->cert.view, msg->cert.seq, msg->cert.digest);
    size_t valid = 0;
    for (const crypto::Signature& sig : msg->cert.signatures) {
      if (keys_->Verify(sig.signer, signing, sig.sig)) ++valid;
    }
    if (valid < config_.quorum()) return;
    if (!slot.prepared) {
      slot.prepared = true;
      SendVote(msg->cert.seq, LinearPhase::kCommit);
    }
    return;
  }
  // Commit certificate: standard C — full validation.
  if (!msg->cert.Validate(*keys_, config_.quorum()).ok()) return;
  slot.committed = true;
  slot.cert = msg->cert;
  OnCommitted(msg->cert.seq);
}

void LinearBftReplica::OnCommitted(SeqNum seq) {
  Slot& slot = GetSlot(seq);
  if (slot.request_timer != 0) {
    sim_->Cancel(slot.request_timer);
    slot.request_timer = 0;
  }
  // Resolve missing-request Υ timers for the committed transactions
  // (see PbftReplica::OnCommitted) — covers lost verifier ACKs.
  if (!retransmit_timers_.empty()) {
    for (const workload::Transaction& txn : slot.batch->txns) {
      crypto::Digest digest = txn.Hash();
      uint64_t key =
          Fnv1a64(digest.data(), crypto::Digest::kSize) & ~(1ull << 63);
      auto it = retransmit_timers_.find(key);
      if (it != retransmit_timers_.end()) {
        sim_->Cancel(it->second);
        retransmit_timers_.erase(it);
      }
    }
  }
  ++committed_batches_;
  committed_txns_ += slot.batch->txns.size();
  if (commit_cb_) {
    commit_cb_(seq, slot.view, slot.batch, slot.cert);
  }
  if (IsPrimary()) MaybeProposeBatch();
}

bool LinearBftReplica::HasCommitted(SeqNum seq) const {
  auto it = slots_.find(seq);
  return it != slots_.end() && it->second.committed;
}

// ---------------------------------------------------------------------------
// Fault handling: timers + coordinated view change.
// ---------------------------------------------------------------------------

void LinearBftReplica::StartRequestTimer(SeqNum seq) {
  Slot& slot = GetSlot(seq);
  if (slot.request_timer != 0) return;
  slot.request_timer = sim_->Schedule(config_.request_timeout, [this, seq]() {
    Slot& s = GetSlot(seq);
    s.request_timer = 0;
    if (s.committed) return;
    StartViewChange(view_ + 1);
  });
}

void LinearBftReplica::HandleReplace(const sim::Envelope& env) {
  if (MessageAs<ReplaceMsg>(env, MsgKind::kReplace) == nullptr) return;
  StartViewChange(view_ + 1);
}

void LinearBftReplica::HandleError(const sim::Envelope& env) {
  const auto* msg = MessageAs<ErrorMsg>(env, MsgKind::kError);
  if (msg == nullptr) return;
  bool has_seq = msg->reason == ErrorMsg::Reason::kGap;
  uint64_t key = has_seq
                     ? (msg->kmax | (1ull << 63))
                     : (Fnv1a64(msg->txn_digest.data(), crypto::Digest::kSize) &
                        ~(1ull << 63));
  if (!IsPrimary()) {
    // Forward to the primary and arm Υ (Fig. 4 node role).
    net_->Send(id(), PrimaryOf(view_), env.message, msg->WireSize());
    if (!retransmit_timers_.contains(key)) {
      retransmit_timers_[key] =
          sim_->Schedule(config_.retransmit_timeout, [this, key]() {
            retransmit_timers_.erase(key);
            StartViewChange(view_ + 1);
          });
    }
    return;
  }
  if (has_seq) {
    if (HasCommitted(msg->kmax) && respawn_cb_) respawn_cb_(msg->kmax);
  } else if (msg->has_txn &&
             !(behavior_.byzantine && behavior_.suppress_requests)) {
    SubmitTransaction(msg->txn);
  }
}

void LinearBftReplica::HandleAck(const sim::Envelope& env) {
  const auto* msg = MessageAs<AckMsg>(env, MsgKind::kAck);
  if (msg == nullptr) return;
  uint64_t key = msg->has_seq
                     ? (msg->kmax | (1ull << 63))
                     : (Fnv1a64(msg->txn_digest.data(), crypto::Digest::kSize) &
                        ~(1ull << 63));
  auto it = retransmit_timers_.find(key);
  if (it != retransmit_timers_.end()) {
    sim_->Cancel(it->second);
    retransmit_timers_.erase(it);
  }
}

void LinearBftReplica::StartViewChange(ViewNum target) {
  if (Crashed()) return;  // A crashed node's timers take no action.
  if (target <= view_) return;
  if (in_view_change_ && target <= target_view_) return;
  in_view_change_ = true;
  target_view_ = target;

  auto msg = std::make_shared<ViewChangeMsg>(id());
  msg->new_view = target;
  for (const auto& [seq, slot] : slots_) {
    if (slot.prepared || slot.committed) {
      PreparedProof proof;
      proof.view = slot.view;
      proof.seq = seq;
      proof.digest = slot.digest;
      proof.batch = slot.batch;
      msg->prepared.push_back(std::move(proof));
    }
  }
  msg->ds = keys_->Sign(id(), ViewChangeMsg::SigningBytes(target, 0));
  view_change_msgs_[target][id()] = msg->prepared;
  BroadcastToPeers(msg);
  MaybeCompleteViewChange(target);
}

void LinearBftReplica::HandleViewChange(const sim::Envelope& env) {
  const auto* msg = MessageAs<ViewChangeMsg>(env, MsgKind::kViewChange);
  if (msg == nullptr || msg->new_view <= view_) return;
  if (!keys_->Verify(env.from,
                     ViewChangeMsg::SigningBytes(msg->new_view, 0),
                     msg->ds)) {
    return;
  }
  view_change_msgs_[msg->new_view][env.from] = msg->prepared;
  if ((!in_view_change_ || target_view_ < msg->new_view) &&
      view_change_msgs_[msg->new_view].size() >= config_.f() + 1) {
    StartViewChange(msg->new_view);
  }
  MaybeCompleteViewChange(msg->new_view);
}

void LinearBftReplica::MaybeCompleteViewChange(ViewNum target) {
  if (PrimaryOf(target) != id() || view_ >= target) return;
  auto it = view_change_msgs_.find(target);
  if (it == view_change_msgs_.end() || it->second.size() < config_.quorum()) {
    return;
  }
  // Re-propose the most-reported digest per sequence.
  struct Candidate {
    size_t votes = 0;
    PreparedProof proof;
  };
  std::map<SeqNum, std::map<std::string, Candidate>> per_seq;
  for (const auto& [sender, proofs] : it->second) {
    for (const PreparedProof& p : proofs) {
      Candidate& c = per_seq[p.seq][p.digest.ToHex()];
      ++c.votes;
      c.proof = p;
    }
  }
  auto nv = std::make_shared<NewViewMsg>(id());
  nv->view = target;
  SeqNum max_seq = 0;
  for (auto& [seq, candidates] : per_seq) {
    const Candidate* best = nullptr;
    for (auto& [hex, c] : candidates) {
      if (best == nullptr || c.votes > best->votes) best = &c;
    }
    PreparedProof proof = best->proof;
    proof.view = target;
    nv->reproposals.push_back(std::move(proof));
    max_seq = std::max(max_seq, seq);
  }
  nv->ds =
      keys_->Sign(id(), NewViewMsg::SigningBytes(target, nv->reproposals.size()));
  BroadcastToPeers(nv);
  EnterView(target);
  next_seq_ = std::max(next_seq_, max_seq + 1);
  for (const PreparedProof& p : nv->reproposals) {
    Slot& slot = GetSlot(p.seq);
    if (slot.committed) continue;
    slot.view = target;
    slot.digest = p.digest;
    slot.batch = p.batch;
    slot.have_preprepare = true;
    slot.prepared = false;
    slot.prepare_cert_sent = false;
    slot.prepare_votes.clear();
    slot.commit_votes.clear();
    slot.prepare_votes[id()] = keys_->Sign(
        id(), LinearVoteMsg::PrepareSigningBytes(target, p.seq, p.digest));
    auto pp = std::make_shared<PrePrepareMsg>(id());
    pp->view = target;
    pp->seq = p.seq;
    pp->batch = p.batch;
    pp->digest = p.digest;
    BroadcastToPeers(pp);
    StartRequestTimer(p.seq);
  }
  MaybeProposeBatch();
}

void LinearBftReplica::HandleNewView(const sim::Envelope& env) {
  const auto* msg = MessageAs<NewViewMsg>(env, MsgKind::kNewView);
  if (msg == nullptr || msg->view <= view_) return;
  if (env.from != PrimaryOf(msg->view)) return;
  if (!keys_->Verify(env.from,
                     NewViewMsg::SigningBytes(msg->view, msg->reproposals.size()),
                     msg->ds)) {
    return;
  }
  EnterView(msg->view);
  for (const PreparedProof& p : msg->reproposals) {
    Slot& slot = GetSlot(p.seq);
    if (slot.committed || p.batch->Hash() != p.digest) continue;
    slot.view = msg->view;
    slot.digest = p.digest;
    slot.batch = p.batch;
    slot.have_preprepare = true;
    slot.prepared = false;
    StartRequestTimer(p.seq);
    SendVote(p.seq, LinearPhase::kPrepare);
  }
}

void LinearBftReplica::EnterView(ViewNum view) {
  if (view <= view_) return;
  view_ = view;
  in_view_change_ = false;
  ++view_changes_completed_;
  std::erase_if(view_change_msgs_,
                [view](const auto& kv) { return kv.first <= view; });
  // Cancel Υ timers aimed at the old primary (see PbftReplica::EnterView).
  for (auto& [key, timer] : retransmit_timers_) {
    sim_->Cancel(timer);
  }
  retransmit_timers_.clear();
  ForwardPendingToPrimary();
}

void LinearBftReplica::ForwardPendingToPrimary() {
  // Liveness under view-change churn: transactions queued while a view
  // change was in flight are handed to the new primary via the verifier's
  // ERROR-with-txn message (same fix as PbftReplica — see the note
  // there).
  if (IsPrimary() || pending_.empty()) return;
  for (const workload::Transaction& txn : pending_) {
    auto error = std::make_shared<ErrorMsg>(id());
    error->reason = ErrorMsg::Reason::kMissingRequest;
    error->txn_digest = txn.Hash();
    error->has_txn = true;
    error->txn = txn;
    net_->Send(id(), PrimaryOf(view_), error, error->WireSize());
    // Forget the txn so a lost forward can be re-accepted later (see
    // PbftReplica::ForwardPendingToPrimary).
    seen_txns_.erase(txn.id);
  }
  pending_.clear();
}

}  // namespace sbft::shim
