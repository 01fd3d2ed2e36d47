#include "shim/pbft_replica.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"

namespace sbft::shim {

namespace {

/// Identity key for ERROR/ACK correlation (Υ timers).
uint64_t ErrorKey(bool has_seq, SeqNum kmax, const crypto::Digest& digest) {
  if (has_seq) return kmax | (1ull << 63);
  return Fnv1a64(digest.data(), crypto::Digest::kSize) & ~(1ull << 63);
}

/// What a collector-pattern vote signs. Commit votes sign the standard
/// CommitSigningBytes, so 2f+1 of them form the usual certificate C.
Bytes LinearSigningBytes(LinearPhase phase, ViewNum view, SeqNum seq,
                         const crypto::Digest& digest) {
  return phase == LinearPhase::kPrepare
             ? LinearVoteMsg::PrepareSigningBytes(view, seq, digest)
             : crypto::CommitSigningBytes(view, seq, digest);
}

}  // namespace

PbftReplica::PbftReplica(ActorId id, uint32_t index, const ShimConfig& config,
                         std::vector<ActorId> peers,
                         crypto::KeyRegistry* keys, sim::Simulator* sim,
                         sim::Network* net, VotePattern pattern)
    : Replica(id, "shim-", index, config, std::move(peers), sim, net),
      keys_(keys),
      pattern_(pattern) {}

void PbftReplica::BroadcastToPeers(const MessagePtr& msg) {
  net_->Broadcast(id(), peers_, id(), msg, msg->WireSize());
}

void PbftReplica::HandleMessage(const sim::Envelope& env, MsgKind kind) {
  switch (kind) {
    case MsgKind::kClientRequest:
      HandleClientRequest(env);
      break;
    case MsgKind::kPrePrepare:
      HandlePrePrepare(env);
      break;
    // Each vote pattern hears only its own vote messages.
    case MsgKind::kPrepare:
      if (pattern_ == VotePattern::kAllToAll) HandlePrepare(env);
      break;
    case MsgKind::kCommit:
      if (pattern_ == VotePattern::kAllToAll) HandleCommit(env);
      break;
    case MsgKind::kLinearVote:
      if (pattern_ == VotePattern::kCollector) HandleLinearVote(env);
      break;
    case MsgKind::kLinearCert:
      if (pattern_ == VotePattern::kCollector) HandleLinearCert(env);
      break;
    case MsgKind::kError:
      HandleError(env);
      break;
    case MsgKind::kReplace:
      HandleReplace(env);
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
    case MsgKind::kCheckpoint:
      HandleCheckpoint(env);
      break;
    default:
      break;  // Not addressed to the shim.
  }
}

// ---------------------------------------------------------------------------
// Client requests and proposals (primary).
// ---------------------------------------------------------------------------

void PbftReplica::HandleClientRequest(const sim::Envelope& env) {
  const auto* msg = MessageAs<ClientRequestMsg>(env, MsgKind::kClientRequest);
  if (msg == nullptr) return;
  // Well-formedness: the client's DS must verify (Fig. 3 "P checks if
  // ⟨T⟩C is well-formed").
  if (!keys_->Verify(msg->txn.client,
                     ClientRequestMsg::SigningBytes(msg->txn),
                     msg->client_sig)) {
    return;
  }
  if (!IsPrimary()) {
    // Forward to the current primary (clients may briefly lag a view
    // change).
    net_->Send(id(), PrimaryOf(view_), env.message, msg->WireSize());
    return;
  }
  if (behavior_.byzantine && behavior_.suppress_requests) {
    return;  // §V-A request-ignorance attack.
  }
  SubmitTransaction(workload::TxnPtr(env.message, &msg->txn));
}

bool PbftReplica::CanPropose() const {
  return !crashed_ && IsPrimary() && !in_view_change_;
}

size_t PbftReplica::UncommittedSlots() const {
  return std::ranges::count_if(
      slots_, [](const auto& entry) { return !entry.second.committed; });
}

bool PbftReplica::Propose(workload::BatchPtr batch) {
  SeqNum seq = next_seq_++;
  auto msg = std::make_shared<PrePrepareMsg>(id());
  msg->view = view_;
  msg->seq = seq;
  msg->batch = std::move(batch);
  msg->digest = msg->batch->Hash();

  Slot& slot = GetSlot(seq);
  slot.view = view_;
  slot.digest = msg->digest;
  slot.batch = msg->batch;
  slot.have_preprepare = true;
  AddOwnPrepare(seq);

  if (behavior_.byzantine && behavior_.equivocate) {
    // §V-B equivocation: half the backups get a different batch at the
    // same sequence number.
    auto alt = std::make_shared<PrePrepareMsg>(id());
    alt->view = view_;
    alt->seq = seq;
    auto alt_batch = std::make_shared<workload::TransactionBatch>(*msg->batch);
    if (!alt_batch->txns.empty()) {
      alt_batch->txns.pop_back();  // Different content, same seq.
    }
    alt->batch = std::move(alt_batch);
    alt->digest = alt->batch->Hash();
    const size_t msg_bytes = msg->WireSize();
    const size_t alt_bytes = alt->WireSize();
    bool flip = false;
    for (ActorId peer : peers_) {
      if (peer == id()) continue;
      if (flip) {
        net_->Send(id(), peer, alt, alt_bytes);
      } else {
        net_->Send(id(), peer, msg, msg_bytes);
      }
      flip = !flip;
    }
  } else if (behavior_.byzantine && !behavior_.dark_nodes.empty()) {
    const size_t msg_bytes = msg->WireSize();
    for (ActorId peer : peers_) {
      if (peer == id()) continue;
      if (std::find(behavior_.dark_nodes.begin(), behavior_.dark_nodes.end(),
                    peer) != behavior_.dark_nodes.end()) {
        continue;  // §V-B nodes-in-dark: exclude from consensus.
      }
      net_->Send(id(), peer, msg, msg_bytes);
    }
  } else {
    BroadcastToPeers(msg);
  }
  StartRequestTimer(seq);
  TryPrepare(seq);
  return HasCommitted(seq);
}

// ---------------------------------------------------------------------------
// Three-phase consensus.
// ---------------------------------------------------------------------------

PbftReplica::Slot& PbftReplica::GetSlot(SeqNum seq) { return slots_[seq]; }

void PbftReplica::HandlePrePrepare(const sim::Envelope& env) {
  const auto* msg = MessageAs<PrePrepareMsg>(env, MsgKind::kPrePrepare);
  if (msg == nullptr) return;
  if (msg->view != view_ || in_view_change_) return;
  if (env.from != PrimaryOf(view_)) return;  // Only the primary proposes.
  if (msg->seq <= stable_seq_ ||
      msg->seq > stable_seq_ + 4 * config_.pipeline_width) {
    return;  // Outside watermarks.
  }
  if (msg->batch->Hash() != msg->digest) return;  // Malformed.

  Slot& slot = GetSlot(msg->seq);
  if (slot.committed) return;
  if (slot.have_preprepare && slot.view == msg->view &&
      slot.digest != msg->digest) {
    // Equivocation observed for this sequence: refuse the second proposal.
    return;
  }
  if (slot.have_preprepare && slot.view == msg->view) return;  // Duplicate.

  slot.view = msg->view;
  slot.digest = msg->digest;
  slot.batch = msg->batch;
  slot.have_preprepare = true;
  CastPrepare(msg->seq);
}

void PbftReplica::AddOwnPrepare(SeqNum seq) {
  // The pre-prepare is the primary's prepare; the collector's prepare
  // certificate carries it signed like every backup's vote.
  Slot& slot = GetSlot(seq);
  VoteOf(slot.prepares, id()) =
      pattern_ == VotePattern::kCollector
          ? keys_->Sign(id(), LinearSigningBytes(LinearPhase::kPrepare,
                                                 slot.view, seq, slot.digest))
          : Bytes{};
}

void PbftReplica::CastPrepare(SeqNum seq) {
  if (pattern_ == VotePattern::kCollector) {
    StartRequestTimer(seq);
    SendLinearVote(seq, LinearPhase::kPrepare);
    return;
  }
  Slot& slot = GetSlot(seq);
  VoteOf(slot.prepares, PrimaryOf(slot.view));  // Implicit prepare.
  VoteOf(slot.prepares, id());                   // Our own.

  auto prepare = std::make_shared<PrepareMsg>(id());
  prepare->view = slot.view;
  prepare->seq = seq;
  prepare->digest = slot.digest;
  BroadcastToPeers(prepare);

  StartRequestTimer(seq);
  TryPrepare(seq);
}

void PbftReplica::HandlePrepare(const sim::Envelope& env) {
  const auto* msg = MessageAs<PrepareMsg>(env, MsgKind::kPrepare);
  if (msg == nullptr) return;
  if (msg->view != view_) return;
  Slot& slot = GetSlot(msg->seq);
  if (slot.committed) return;
  if (slot.have_preprepare &&
      (slot.view != msg->view || slot.digest != msg->digest)) {
    return;  // Vote for a different proposal.
  }
  VoteOf(slot.prepares, env.from);
  TryPrepare(msg->seq);
}

void PbftReplica::TryPrepare(SeqNum seq) {
  Slot& slot = GetSlot(seq);
  if (slot.prepared || !slot.have_preprepare) return;
  if (slot.prepares.size() < config_.quorum()) return;
  slot.prepared = true;

  Bytes ds = keys_->Sign(
      id(), crypto::CommitSigningBytes(slot.view, seq, slot.digest));
  VoteOf(slot.commit_sigs, id()) = ds;
  if (pattern_ == VotePattern::kCollector) {
    // Only the collecting primary gets here; backups answer the prepare
    // certificate with their commit votes.
    RelayLinearCert(LinearPhase::kPrepare, QuorumCert(seq, slot.prepares));
  } else {
    // Broadcast the DS-signed COMMIT (Fig. 3 line 13).
    auto commit = std::make_shared<CommitMsg>(id());
    commit->view = slot.view;
    commit->seq = seq;
    commit->digest = slot.digest;
    commit->ds = std::move(ds);
    BroadcastToPeers(commit);
  }
  TryCommit(seq);
}

void PbftReplica::HandleCommit(const sim::Envelope& env) {
  const auto* msg = MessageAs<CommitMsg>(env, MsgKind::kCommit);
  if (msg == nullptr) return;
  Slot& slot = GetSlot(msg->seq);
  if (slot.committed) return;
  if (slot.have_preprepare &&
      (slot.view != msg->view || slot.digest != msg->digest)) {
    return;
  }
  // Well-formedness: the commit signature must verify before it can count
  // toward the certificate.
  if (!keys_->Verify(
          env.from,
          crypto::CommitSigningBytes(msg->view, msg->seq, msg->digest),
          msg->ds)) {
    return;
  }
  VoteOf(slot.commit_sigs, env.from) = msg->ds;
  TryCommit(msg->seq);
}

void PbftReplica::TryCommit(SeqNum seq) {
  Slot& slot = GetSlot(seq);
  if (slot.committed || !slot.prepared) return;
  if (slot.commit_sigs.size() < config_.quorum()) return;
  slot.committed = true;

  // Assemble the commit certificate C (Fig. 3 line 8). The collector
  // keeps the copy it relays.
  crypto::CommitCertificate cert = QuorumCert(seq, slot.commit_sigs);
  OnCommitted(seq, pattern_ == VotePattern::kCollector
                       ? RelayLinearCert(LinearPhase::kCommit,
                                         std::move(cert))
                       : std::make_shared<const crypto::CommitCertificate>(
                             std::move(cert)));
}

Bytes& PbftReplica::VoteOf(Votes& votes, ActorId from) {
  auto it = std::ranges::lower_bound(votes, from, {},
                                     &std::pair<ActorId, Bytes>::first);
  if (it == votes.end() || it->first != from) {
    it = votes.insert(it, {from, Bytes{}});
  }
  return it->second;
}

crypto::CommitCertificate PbftReplica::QuorumCert(SeqNum seq,
                                                  const Votes& votes) const {
  const Slot& slot = slots_.at(seq);
  crypto::CommitCertificate cert;
  cert.view = slot.view;
  cert.seq = seq;
  cert.digest = slot.digest;
  for (const auto& [signer, sig] : votes) {
    if (cert.signatures.size() >= config_.quorum()) break;
    cert.signatures.push_back({signer, sig});
  }
  return cert;
}

// ---------------------------------------------------------------------------
// Collector vote pattern: votes to the primary, certificates back.
// ---------------------------------------------------------------------------

void PbftReplica::SendLinearVote(SeqNum seq, LinearPhase phase) {
  const Slot& slot = GetSlot(seq);
  auto vote = std::make_shared<LinearVoteMsg>(id());
  vote->phase = phase;
  vote->view = slot.view;
  vote->seq = seq;
  vote->digest = slot.digest;
  vote->ds = keys_->Sign(
      id(), LinearSigningBytes(phase, slot.view, seq, slot.digest));
  net_->Send(id(), PrimaryOf(slot.view), vote, vote->WireSize());
}

crypto::CertPtr PbftReplica::RelayLinearCert(
    LinearPhase phase, crypto::CommitCertificate cert) {
  auto msg = std::make_shared<LinearCertMsg>(id());
  msg->phase = phase;
  msg->cert = std::move(cert);
  BroadcastToPeers(msg);
  return crypto::CertPtr(msg, &msg->cert);
}

void PbftReplica::HandleLinearVote(const sim::Envelope& env) {
  const auto* msg = MessageAs<LinearVoteMsg>(env, MsgKind::kLinearVote);
  if (msg == nullptr) return;
  if (!IsPrimary() || msg->view != view_) return;
  // Look the slot up without creating it: a vote for a pruned sequence
  // must not leave an uncommitted slot behind to hold a pipeline place.
  auto it = slots_.find(msg->seq);
  if (it == slots_.end()) return;
  Slot& slot = it->second;
  if (slot.committed) return;
  if (!slot.have_preprepare || slot.view != msg->view ||
      slot.digest != msg->digest) {
    return;  // Vote for a different proposal.
  }
  if (!keys_->Verify(env.from,
                     LinearSigningBytes(msg->phase, msg->view, msg->seq,
                                        msg->digest),
                     msg->ds)) {
    return;
  }
  if (msg->phase == LinearPhase::kPrepare) {
    VoteOf(slot.prepares, env.from) = msg->ds;
    TryPrepare(msg->seq);
  } else {
    VoteOf(slot.commit_sigs, env.from) = msg->ds;
    TryCommit(msg->seq);
  }
}

void PbftReplica::HandleLinearCert(const sim::Envelope& env) {
  const auto* msg = MessageAs<LinearCertMsg>(env, MsgKind::kLinearCert);
  if (msg == nullptr) return;
  const crypto::CommitCertificate& cert = msg->cert;
  auto it = slots_.find(cert.seq);
  if (it == slots_.end()) return;
  Slot& slot = it->second;
  if (slot.committed || !slot.have_preprepare) return;
  if (slot.view != cert.view || slot.digest != cert.digest) return;

  if (msg->phase == LinearPhase::kPrepare) {
    if (slot.prepared) return;
    // 2f+1 distinct signers over the prepare domain.
    Bytes signing = LinearSigningBytes(LinearPhase::kPrepare, cert.view,
                                       cert.seq, cert.digest);
    std::set<ActorId> valid;
    for (const crypto::Signature& sig : cert.signatures) {
      if (keys_->Verify(sig.signer, signing, sig.sig)) {
        valid.insert(sig.signer);
      }
    }
    if (valid.size() < config_.quorum()) return;
    slot.prepared = true;
    SendLinearVote(cert.seq, LinearPhase::kCommit);
    return;
  }
  // The commit certificate is the standard C: validate it in full, then
  // hold it inside the relayed message rather than copying it.
  if (!cert.Validate(*keys_, config_.quorum()).ok()) return;
  slot.committed = true;
  OnCommitted(cert.seq, crypto::CertPtr(env.message, &cert));
}

void PbftReplica::OnCommitted(SeqNum seq, crypto::CertPtr cert) {
  Slot& slot = GetSlot(seq);
  slot.cert = std::move(cert);
  slot.DropVotes();
  CancelRequestTimer(seq);
  // Resolve missing-request Υ timers for the transactions that just
  // committed: the concern they track ("will the primary ever propose
  // this txn?") is settled — and for ERRORs synthesized by a peer
  // (ForwardPendingToPrimary) no verifier ACK will ever arrive, so
  // without this the timer would force a view change on a success path.
  if (!retransmit_timers_.empty()) {
    for (const workload::TxnPtr& txn : slot.batch->txns) {
      auto it = retransmit_timers_.find(ErrorKey(false, 0, txn->Hash()));
      if (it != retransmit_timers_.end()) {
        sim_->Cancel(it->second);
        retransmit_timers_.erase(it);
      }
    }
  }
  ReportCommit(seq, slot.view, slot.batch, slot.cert);
  MaybeTakeCheckpoint();
  MaybeProposeBatch();
}

bool PbftReplica::HasCommitted(SeqNum seq) const {
  if (seq <= stable_seq_) return true;  // Checkpoint-stable.
  auto it = slots_.find(seq);
  return it != slots_.end() && it->second.committed;
}

std::optional<crypto::Digest> PbftReplica::CommittedDigest(SeqNum seq) const {
  auto it = slots_.find(seq);
  if (it == slots_.end() || !it->second.committed) return std::nullopt;
  return it->second.digest;
}

size_t PbftReplica::votes_held(SeqNum seq) const {
  auto it = slots_.find(seq);
  if (it == slots_.end()) return 0;
  return it->second.prepares.size() + it->second.commit_sigs.size();
}

// ---------------------------------------------------------------------------
// Timers (§V-A).
// ---------------------------------------------------------------------------

void PbftReplica::StartRequestTimer(SeqNum seq) {
  Slot& slot = GetSlot(seq);
  if (slot.request_timer != 0) return;
  slot.request_timer = sim_->Schedule(config_.request_timeout, [this, seq]() {
    Slot& s = GetSlot(seq);
    s.request_timer = 0;
    if (s.committed) return;
    SBFT_LOG(kDebug) << name() << " τ_m expired for seq " << seq
                     << ", requesting view change";
    StartViewChange(view_ + 1);
  });
}

void PbftReplica::CancelRequestTimer(SeqNum seq) {
  Slot& slot = GetSlot(seq);
  if (slot.request_timer != 0) {
    sim_->Cancel(slot.request_timer);
    slot.request_timer = 0;
  }
}

// ---------------------------------------------------------------------------
// Verifier control messages (Fig. 4).
// ---------------------------------------------------------------------------

void PbftReplica::HandleError(const sim::Envelope& env) {
  const auto* msg = MessageAs<ErrorMsg>(env, MsgKind::kError);
  if (msg == nullptr) return;
  bool has_seq = msg->reason == ErrorMsg::Reason::kGap;
  uint64_t key = ErrorKey(has_seq, msg->kmax, msg->txn_digest);

  // Forward to the primary and arm the re-transmission timer Υ (§V-A3).
  if (!IsPrimary()) {
    net_->Send(id(), PrimaryOf(view_), env.message, msg->WireSize());
  } else {
    if (msg->reason == ErrorMsg::Reason::kGap) {
      if (HasCommitted(msg->kmax)) {
        // Committed but the verifier saw no (or not enough) VERIFY
        // messages: re-spawn the executors (§V-A "less executors").
        if (respawn_cb_) respawn_cb_(msg->kmax);
      }
      // Otherwise consensus is still in flight; τ_m covers it.
    } else if (msg->has_txn &&
               !(behavior_.byzantine && behavior_.suppress_requests)) {
      // Missing request with ⟨T⟩C attached by the trusted verifier:
      // propose it (covers a new primary after a suppression attack).
      SubmitTransaction(workload::TxnPtr(env.message, &msg->txn));
    }
  }
  if (!retransmit_timers_.contains(key)) {
    retransmit_timers_[key] =
        sim_->Schedule(config_.retransmit_timeout, [this, key]() {
          retransmit_timers_.erase(key);
          SBFT_LOG(kDebug) << name()
                           << " Υ expired, primary unresponsive; view change";
          StartViewChange(view_ + 1);
        });
  }
}

void PbftReplica::HandleReplace(const sim::Envelope& env) {
  const auto* msg = MessageAs<ReplaceMsg>(env, MsgKind::kReplace);
  if (msg == nullptr) return;
  // The verifier concluded the primary is byzantine (Fig. 4 line 14).
  StartViewChange(view_ + 1);
}

void PbftReplica::HandleAck(const sim::Envelope& env) {
  const auto* msg = MessageAs<AckMsg>(env, MsgKind::kAck);
  if (msg == nullptr) return;
  uint64_t key = ErrorKey(msg->has_seq, msg->kmax, msg->txn_digest);
  auto it = retransmit_timers_.find(key);
  if (it != retransmit_timers_.end()) {
    sim_->Cancel(it->second);
    retransmit_timers_.erase(it);
  }
}

// ---------------------------------------------------------------------------
// View change (§V-A4).
// ---------------------------------------------------------------------------

void PbftReplica::StartViewChange(ViewNum target) {
  if (crashed_) return;  // A crashed node's timers take no action.
  if (target <= view_) return;
  if (in_view_change_ && target <= target_view_) return;
  in_view_change_ = true;
  target_view_ = target;

  auto msg = std::make_shared<ViewChangeMsg>(id());
  msg->new_view = target;
  msg->stable_seq = stable_seq_;
  for (const auto& [seq, slot] : slots_) {
    if (seq <= stable_seq_) continue;
    if (slot.prepared || slot.committed) {
      PreparedProof proof;
      proof.view = slot.view;
      proof.seq = seq;
      proof.digest = slot.digest;
      proof.batch = slot.batch;
      msg->prepared.push_back(std::move(proof));
    }
  }
  msg->ds = keys_->Sign(
      id(), ViewChangeMsg::SigningBytes(target, stable_seq_));
  view_change_msgs_[target][id()] = msg->prepared;
  BroadcastToPeers(msg);

  if (view_change_timer_ != 0) sim_->Cancel(view_change_timer_);
  view_change_timer_ =
      sim_->Schedule(config_.view_change_timeout, [this, target]() {
        view_change_timer_ = 0;
        if (in_view_change_ && view_ < target) {
          StartViewChange(target + 1);  // Next primary also failed.
        }
      });
  MaybeCompleteViewChange(target);
}

void PbftReplica::HandleViewChange(const sim::Envelope& env) {
  const auto* msg = MessageAs<ViewChangeMsg>(env, MsgKind::kViewChange);
  if (msg == nullptr) return;
  if (msg->new_view <= view_) return;
  if (!keys_->Verify(
          env.from,
          ViewChangeMsg::SigningBytes(msg->new_view, msg->stable_seq),
          msg->ds)) {
    return;
  }
  view_change_msgs_[msg->new_view][env.from] = msg->prepared;

  // Liveness rule: join the view change once f+1 distinct nodes ask for a
  // higher view (prevents byzantine nodes from stalling honest ones).
  if (!in_view_change_ || target_view_ < msg->new_view) {
    size_t votes = view_change_msgs_[msg->new_view].size();
    if (votes >= config_.f() + 1) {
      StartViewChange(msg->new_view);
    }
  }
  MaybeCompleteViewChange(msg->new_view);
}

void PbftReplica::MaybeCompleteViewChange(ViewNum target) {
  if (PrimaryOf(target) != id()) return;
  if (view_ >= target) return;
  auto it = view_change_msgs_.find(target);
  if (it == view_change_msgs_.end() || it->second.size() < config_.quorum()) {
    return;
  }

  // Merge prepared proofs: per sequence, keep the digest reported most
  // often (a committed request appears in >= f+1 honest VIEWCHANGEs in any
  // quorum, beating up to f fabrications), tie-broken by higher view.
  struct Candidate {
    size_t votes = 0;
    ViewNum view = 0;
    PreparedProof proof;
  };
  std::map<SeqNum, std::map<std::string, Candidate>> per_seq;
  for (const auto& [sender, proofs] : it->second) {
    for (const PreparedProof& p : proofs) {
      Candidate& c = per_seq[p.seq][p.digest.ToHex()];
      ++c.votes;
      if (c.votes == 1 || p.view > c.view) {
        c.view = p.view;
        c.proof = p;
      }
    }
  }

  auto nv = std::make_shared<NewViewMsg>(id());
  nv->view = target;
  for (const auto& [sender, proofs] : it->second) {
    nv->view_change_senders.push_back(sender);
  }
  SeqNum max_seq = stable_seq_;
  for (auto& [seq, candidates] : per_seq) {
    const Candidate* best = nullptr;
    for (auto& [hex, c] : candidates) {
      if (best == nullptr || c.votes > best->votes ||
          (c.votes == best->votes && c.view > best->view)) {
        best = &c;
      }
    }
    PreparedProof proof = best->proof;
    proof.view = target;
    nv->reproposals.push_back(std::move(proof));
    max_seq = std::max(max_seq, seq);
  }
  // Fill sequence gaps with empty batches so the verifier's k_max cursor
  // can always advance (a null request executes trivially).
  for (SeqNum seq = stable_seq_ + 1; seq < max_seq; ++seq) {
    if (!per_seq.contains(seq)) {
      PreparedProof gap;
      gap.view = target;
      gap.seq = seq;
      gap.batch = workload::EmptyBatch();
      gap.digest = gap.batch->Hash();
      nv->reproposals.push_back(std::move(gap));
    }
  }
  nv->ds = keys_->Sign(
      id(), NewViewMsg::SigningBytes(target, nv->reproposals.size()));

  BroadcastToPeers(nv);
  EnterView(target);

  // Re-run consensus for the re-proposals in the new view.
  next_seq_ = std::max(next_seq_, max_seq + 1);
  for (const PreparedProof& p : nv->reproposals) {
    Slot& slot = GetSlot(p.seq);
    if (slot.committed) continue;
    slot.view = target;
    slot.digest = p.digest;
    slot.batch = p.batch;
    slot.have_preprepare = true;
    slot.prepared = false;
    slot.prepares.clear();
    slot.commit_sigs.clear();
    AddOwnPrepare(p.seq);

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

void PbftReplica::HandleNewView(const sim::Envelope& env) {
  const auto* msg = MessageAs<NewViewMsg>(env, MsgKind::kNewView);
  if (msg == nullptr) return;
  if (msg->view <= view_) return;
  if (env.from != PrimaryOf(msg->view)) return;
  if (!keys_->Verify(
          env.from,
          NewViewMsg::SigningBytes(msg->view, msg->reproposals.size()),
          msg->ds)) {
    return;
  }
  EnterView(msg->view);
  for (const PreparedProof& p : msg->reproposals) {
    Slot& slot = GetSlot(p.seq);
    if (slot.committed) continue;
    if (p.batch->Hash() != p.digest) continue;  // Malformed re-proposal.
    slot.view = msg->view;
    slot.digest = p.digest;
    slot.batch = p.batch;
    slot.have_preprepare = true;
    slot.prepared = false;
    slot.prepares.clear();
    slot.commit_sigs.clear();
    CastPrepare(p.seq);
  }
}

void PbftReplica::EnterView(ViewNum view) {
  if (view <= view_) return;
  view_ = view;
  in_view_change_ = false;
  ++view_changes_;
  if (view_change_timer_ != 0) {
    sim_->Cancel(view_change_timer_);
    view_change_timer_ = 0;
  }
  // Old view-change bookkeeping for lower views is obsolete.
  std::erase_if(view_change_msgs_,
                [view](const auto& kv) { return kv.first <= view; });
  // The Υ timers were armed against the *old* primary; the view change
  // they would demand has just happened. Left running they re-trigger a
  // view change the instant the new view starts, phase-locking the shim
  // into churn (found by the partition_heal fault scenario). If the new
  // primary stalls too, fresh ERRORs re-arm them.
  for (auto& [key, timer] : retransmit_timers_) {
    sim_->Cancel(timer);
  }
  retransmit_timers_.clear();
  SBFT_LOG(kInfo) << name() << " entered view " << view_ << " (primary "
                  << PrimaryOf(view_) << ")";
  ForwardPendingToPrimary();
}

void PbftReplica::ForwardPendingToPrimary() {
  // Liveness: transactions accepted while a view change was in flight
  // (typically handed over by the verifier's ERROR path) must not rot in
  // a backup's queue — under repeated view changes the ERROR rounds and
  // the Υ expiries stay phase-locked, so the queue would never drain and
  // the system livelocks (found by the partition_heal fault scenario).
  // Hand them to the new primary through the same ERROR-with-txn message
  // the verifier uses.
  if (IsPrimary() || pending_.empty()) return;
  for (const workload::TxnPtr& txn : pending_) {
    auto error = std::make_shared<ErrorMsg>(id());
    error->reason = ErrorMsg::Reason::kMissingRequest;
    error->txn_digest = txn->Hash();
    error->has_txn = true;
    error->txn = *txn;
    net_->Send(id(), PrimaryOf(view_), error, error->WireSize());
    // The forward is a single unacked send; if it is lost (that is the
    // network model here) this node must be able to re-accept the txn
    // from a later verifier ERROR — forget that we saw it.
    seen_txns_.Erase({txn->client, txn->id});
  }
  pending_.clear();
}

// ---------------------------------------------------------------------------
// Featherweight checkpoints (§V-B).
// ---------------------------------------------------------------------------

void PbftReplica::MaybeTakeCheckpoint() {
  // Find the highest contiguous committed sequence.
  SeqNum contiguous = last_checkpoint_sent_;
  while (true) {
    auto it = slots_.find(contiguous + 1);
    if (it == slots_.end() || !it->second.committed) break;
    ++contiguous;
  }
  // Checkpoints are cut at deterministic interval boundaries so every
  // node's Merkle root covers the same window and the 2f+1 matching rule
  // can fire.
  SeqNum boundary =
      (contiguous / config_.checkpoint_interval) * config_.checkpoint_interval;
  while (last_checkpoint_sent_ < boundary) {
    SeqNum from = last_checkpoint_sent_ + 1;
    SeqNum upto = std::min<SeqNum>(
        boundary, last_checkpoint_sent_ + config_.checkpoint_interval);

    auto msg = std::make_shared<CheckpointMsg>(id());
    msg->upto_seq = upto;
    std::vector<crypto::Digest> leaves;
    for (SeqNum seq = from; seq <= upto; ++seq) {
      auto it = slots_.find(seq);
      if (it == slots_.end()) continue;  // Pruned below stable.
      leaves.push_back(it->second.digest);
      // Featherweight: only the signed proof (compact certificate), not
      // the requests or full commit proofs (§V-B).
      msg->certs.push_back(
          crypto::CompactCertificate::FromFull(*it->second.cert));
    }
    msg->cert_log_root = crypto::MerkleTree::ComputeRoot(leaves);
    ++checkpoints_taken_;
    checkpoint_votes_[msg->upto_seq][id()] = msg->cert_log_root;
    BroadcastToPeers(msg);
    last_checkpoint_sent_ = upto;
  }
}

void PbftReplica::HandleCheckpoint(const sim::Envelope& env) {
  const auto* msg = MessageAs<CheckpointMsg>(env, MsgKind::kCheckpoint);
  if (msg == nullptr) return;
  if (msg->upto_seq <= stable_seq_) return;

  // Dark-node recovery: adopt any valid certificate we have not committed.
  for (const crypto::CompactCertificate& cert : msg->certs) {
    if (cert.seq <= stable_seq_) continue;
    Slot& slot = GetSlot(cert.seq);
    if (slot.committed) continue;
    // A collector primary's checkpoint can overtake the commit certificate
    // it relayed just before. A backup that voted to commit waits for that
    // certificate, so it commits live; other nodes' checkpoints, a hop
    // later, still cover a lost one.
    if (pattern_ == VotePattern::kCollector && slot.prepared &&
        env.from == PrimaryOf(slot.view)) {
      continue;
    }
    if (!cert.Validate(*keys_, config_.quorum()).ok()) continue;
    PreparedProof proof;  // Batch content is unknown to a dark node.
    proof.seq = cert.seq;
    proof.digest = cert.digest;
    AdoptCertificate(cert, proof);
  }

  checkpoint_votes_[msg->upto_seq][env.from] = msg->cert_log_root;
  // Stability: 2f+1 matching roots.
  auto& votes = checkpoint_votes_[msg->upto_seq];
  std::map<std::string, size_t> root_counts;
  for (const auto& [sender, root] : votes) {
    if (++root_counts[root.ToHex()] >= config_.quorum()) {
      stable_seq_ = std::max(stable_seq_, msg->upto_seq);
      // Prune state below the stable point.
      for (auto it = slots_.begin(); it != slots_.end();) {
        if (it->first <= stable_seq_ && it->second.committed) {
          it = slots_.erase(it);
        } else {
          ++it;
        }
      }
      std::erase_if(checkpoint_votes_, [this](const auto& kv) {
        return kv.first <= stable_seq_;
      });
      break;
    }
  }
}

void PbftReplica::AdoptCertificate(const crypto::CompactCertificate& cert,
                                   const PreparedProof& proof) {
  Slot& slot = GetSlot(cert.seq);
  slot.view = cert.view;
  slot.digest = cert.digest;
  slot.batch = proof.batch;
  slot.have_preprepare = true;
  slot.prepared = true;
  slot.committed = true;
  // The checkpoint names the slot, not the signatures behind it.
  auto full = std::make_shared<crypto::CommitCertificate>();
  full->view = cert.view;
  full->seq = cert.seq;
  full->digest = cert.digest;
  slot.cert = std::move(full);
  slot.DropVotes();
  CancelRequestTimer(cert.seq);
  ++dark_recoveries_;
  // No commit callback: the certificate proves the shim already agreed and
  // executors were (or will be) spawned by the nodes that committed live.
}

}  // namespace sbft::shim
