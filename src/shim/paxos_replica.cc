#include "shim/paxos_replica.h"

#include <algorithm>

namespace sbft::shim {

MultiPaxosReplica::MultiPaxosReplica(ActorId id, uint32_t index,
                                     const ShimConfig& config,
                                     std::vector<ActorId> peers,
                                     sim::Simulator* sim, sim::Network* net)
    : Replica(id, "paxos-", index, config, std::move(peers), sim, net) {
  last_leader_activity_ = sim_->now();
}

void MultiPaxosReplica::SetCrashed(bool crashed) {
  Replica::SetCrashed(crashed);
  if (crashed_) {
    // A phase-1 read dies with the candidate; promises that trickle in
    // after recovery must not complete a stale read.
    phase1_pending_ = false;
    phase1_promises_.clear();
    phase1_merged_.clear();
    return;
  }
  last_leader_activity_ = sim_->now();
  // Evidence queued from before (or during) the outage still needs the
  // liveness check running.
  ScheduleLeaderCheck();
}

void MultiPaxosReplica::HandleMessage(const sim::Envelope& env,
                                      MsgKind kind) {
  switch (kind) {
    case MsgKind::kClientRequest:
      HandleClientRequest(env);
      break;
    case MsgKind::kPaxosAccept:
      HandleAccept(env);
      break;
    case MsgKind::kPaxosAccepted:
      HandleAccepted(env);
      break;
    case MsgKind::kError:
      HandleError(env);
      break;
    case MsgKind::kPaxosPrepare:
      HandlePrepare(env);
      break;
    case MsgKind::kPaxosPromise:
      HandlePromise(env);
      break;
    default:
      break;
  }
}

void MultiPaxosReplica::HandleClientRequest(const sim::Envelope& env) {
  const auto* msg = MessageAs<ClientRequestMsg>(env, MsgKind::kClientRequest);
  if (msg == nullptr) return;
  if (!IsPrimary()) {
    net_->Send(id(), LeaderOf(ballot_), env.message, msg->WireSize());
    return;
  }
  SubmitTransaction(workload::TxnPtr(env.message, &msg->txn));
}

void MultiPaxosReplica::HandleError(const sim::Envelope& env) {
  // Verifier ERROR(missing request) after a leader crash lost in-flight
  // transactions (Fig. 4 line 12): the current leader re-proposes the
  // attached ⟨T⟩C; duplicates are filtered by the intake.
  const auto* msg = MessageAs<ErrorMsg>(env, MsgKind::kError);
  if (msg == nullptr || !msg->has_txn) return;
  // A follower queues the stuck transaction too, as stuck-work
  // *evidence*: it arms the leader-liveness check (a dead leader produces
  // no Accepts to drain it) and seeds the propose queue if this node
  // takes over. It is also forwarded so a live-but-unaware leader can
  // propose it.
  SubmitTransaction(workload::TxnPtr(env.message, &msg->txn));
  if (IsPrimary()) return;
  // (Re-)arm the liveness check — a no-op when already armed; repeated
  // ERRORs for known-stuck txns still restore the check after e.g. a
  // crash window let it lapse.
  ScheduleLeaderCheck();
  auto fwd = std::make_shared<ClientRequestMsg>(id());
  fwd->txn = msg->txn;
  net_->Send(id(), LeaderOf(ballot_), fwd, fwd->WireSize());
}

bool MultiPaxosReplica::CanPropose() const {
  return !crashed_ && IsPrimary() && !phase1_pending_;
}

size_t MultiPaxosReplica::UncommittedSlots() const {
  return std::ranges::count_if(
      slots_, [](const auto& entry) { return !entry.second.committed; });
}

bool MultiPaxosReplica::Propose(workload::BatchPtr batch) {
  return ProposeAtSlot(next_slot_++, std::move(batch));
}

bool MultiPaxosReplica::ProposeAtSlot(SeqNum slot_num,
                                      workload::BatchPtr batch) {
  Slot& slot = slots_[slot_num];
  slot.batch = std::move(batch);
  slot.digest = slot.batch->Hash();
  slot.accepted.clear();
  slot.accepted.insert(id());
  slot.committed = false;
  accepted_log_[slot_num] = {ballot_, slot.batch};
  slot_frontier_ = std::max(slot_frontier_, slot_num);
  BroadcastAccept(slot_num);
  if (MaybeCommit(slot_num)) return true;
  ScheduleAcceptResend(slot_num);
  return false;
}

void MultiPaxosReplica::BroadcastAccept(SeqNum slot_num) {
  const Slot& slot = slots_.at(slot_num);
  auto msg = std::make_shared<PaxosAcceptMsg>(id());
  msg->ballot = ballot_;
  msg->slot = slot_num;
  msg->batch = slot.batch;
  msg->digest = slot.digest;
  msg->committed_upto = commit_frontier_;
  net_->Broadcast(id(), peers_, id(), msg, msg->WireSize());
}

void MultiPaxosReplica::ScheduleAcceptResend(SeqNum slot_num) {
  // Nothing else repeats an Accept or an Accepted: without this, one
  // lost message with one node of three down leaves the slot open, and
  // the commit frontier and both logs stop there. A new ballot
  // re-proposes the slot itself, so the resend stops with the ballot.
  sim_->Schedule(config_.request_timeout, [this, slot_num,
                                           ballot = ballot_]() {
    auto it = slots_.find(slot_num);
    if (ballot != ballot_ || it == slots_.end() || it->second.committed) {
      return;
    }
    if (!crashed_) BroadcastAccept(slot_num);
    ScheduleAcceptResend(slot_num);
  });
}

void MultiPaxosReplica::HandleAccept(const sim::Envelope& env) {
  const auto* msg = MessageAs<PaxosAcceptMsg>(env, MsgKind::kPaxosAccept);
  if (msg == nullptr) return;
  if (msg->ballot < ballot_) return;  // Stale (pre-failover) leader.
  if (env.from != LeaderOf(msg->ballot)) return;
  if (msg->ballot > ballot_) AdoptBallot(msg->ballot);
  last_leader_activity_ = sim_->now();
  // The leader is alive and proposing: drain any stuck-work evidence it
  // just covered. Ids count per client, so evidence matches on both.
  if (!pending_.empty()) {
    for (const workload::TxnPtr& txn : msg->batch->txns) {
      auto it = std::ranges::find_if(
          pending_, [&txn](const workload::TxnPtr& queued) {
            return queued->client == txn->client && queued->id == txn->id;
          });
      if (it != pending_.end()) pending_.erase(it);
    }
  }
  // Acceptor: record the highest-ballot value and acknowledge.
  AcceptedValue& entry = accepted_log_[msg->slot];
  if (msg->ballot >= entry.ballot) {
    entry.ballot = msg->ballot;
    entry.batch = msg->batch;
  }
  slot_frontier_ = std::max(slot_frontier_, msg->slot);
  commit_frontier_ = std::max(commit_frontier_, msg->committed_upto);
  PruneToCommitFrontier();
  auto reply = std::make_shared<PaxosAcceptedMsg>(id());
  reply->ballot = msg->ballot;
  reply->slot = msg->slot;
  reply->digest = msg->digest;
  net_->Send(id(), env.from, reply, reply->WireSize());
}

void MultiPaxosReplica::HandleAccepted(const sim::Envelope& env) {
  const auto* msg = MessageAs<PaxosAcceptedMsg>(env, MsgKind::kPaxosAccepted);
  if (msg == nullptr) return;
  if (!IsPrimary() || msg->ballot != ballot_) return;
  auto it = slots_.find(msg->slot);
  if (it == slots_.end() || it->second.committed) return;
  if (msg->digest != it->second.digest) return;
  it->second.accepted.insert(env.from);
  if (MaybeCommit(msg->slot)) MaybeProposeBatch();
}

bool MultiPaxosReplica::MaybeCommit(SeqNum slot_num) {
  Slot& slot = slots_.at(slot_num);
  if (slot.committed || slot.accepted.size() < Majority()) return false;
  slot.committed = true;
  last_leader_activity_ = sim_->now();
  // Advance the contiguous commit frontier (commits may finish out of
  // order under pipelining).
  while (true) {
    auto next = slots_.find(commit_frontier_ + 1);
    if (next == slots_.end() || !next->second.committed) break;
    ++commit_frontier_;
  }
  auto cert = std::make_shared<crypto::CommitCertificate>();
  cert->seq = slot_num;  // CFT: no signatures needed.
  cert->digest = slot.digest;
  ReportCommit(slot_num, view_, slot.batch, cert);
  PruneToCommitFrontier();
  return true;
}

void MultiPaxosReplica::PruneToCommitFrontier() {
  slots_.erase(slots_.begin(), slots_.upper_bound(commit_frontier_));
  accepted_log_.erase(accepted_log_.begin(),
                      accepted_log_.upper_bound(commit_frontier_));
}

// ---------------------------------------------------------------------------
// Leader failover.
// ---------------------------------------------------------------------------

void MultiPaxosReplica::AdoptBallot(uint64_t ballot) {
  // A failover happened while this node was dark, or another candidate
  // won the ballot race: a phase-1 read under an older ballot is moot.
  ballot_ = ballot;
  view_ = ballot - 1;
  phase1_pending_ = false;
  phase1_promises_.clear();
  phase1_merged_.clear();
}

void MultiPaxosReplica::ScheduleLeaderCheck() {
  // Armed only while stuck-work evidence is queued at a follower — the
  // sole state OnLeaderCheck can act on — so idle/leader/crashed
  // replicas add no recurring events to the loop.
  if (leader_check_armed_ || IsPrimary() || pending_.empty()) return;
  leader_check_armed_ = true;
  sim_->Schedule(config_.view_change_timeout,
                 [this]() { OnLeaderCheck(); });
}

void MultiPaxosReplica::OnLeaderCheck() {
  leader_check_armed_ = false;
  if (crashed_ || IsPrimary()) return;
  // Silence alone must not rotate leadership (an idle system is fine);
  // silence *while stuck work is evidenced* (ERROR-carried transactions
  // that no Accept has covered) is what indicts the leader.
  if (pending_.empty()) return;
  ScheduleLeaderCheck();
  if (sim_->now() - last_leader_activity_ < config_.view_change_timeout) {
    return;
  }
  ++view_;
  ballot_ = view_ + 1;
  ++view_changes_;
  last_leader_activity_ = sim_->now();
  if (IsPrimary()) {
    TakeOverLeadership();
  } else {
    // Hand the evidence to whoever the new leader is; it stays queued
    // here until an Accept proves it was proposed.
    for (const workload::TxnPtr& txn : pending_) {
      auto fwd = std::make_shared<ClientRequestMsg>(id());
      fwd->txn = *txn;
      net_->Send(id(), LeaderOf(ballot_), fwd, fwd->WireSize());
    }
  }
}

void MultiPaxosReplica::TakeOverLeadership() {
  // Phase-1 majority read: ask every peer for its highest-ballot
  // accepted suffix above the commit watermark before proposing
  // anything under the new ballot. Our own log is the first promise.
  phase1_pending_ = true;
  phase1_ballot_ = ballot_;
  phase1_promises_.clear();
  phase1_promises_.insert(id());
  phase1_merged_.clear();
  for (auto it = accepted_log_.upper_bound(commit_frontier_);
       it != accepted_log_.end(); ++it) {
    phase1_merged_[it->first] = it->second;
  }
  auto msg = std::make_shared<PaxosPrepareMsg>(id());
  msg->ballot = ballot_;
  msg->from_slot = commit_frontier_ + 1;
  net_->Broadcast(id(), peers_, id(), msg, msg->WireSize());
  if (phase1_promises_.size() >= Majority()) {
    FinishPhaseOne();
    return;
  }
  // Re-broadcast if a majority never answers (crashed acceptors may
  // recover later); abandoned automatically when a higher ballot shows
  // up or the read completes.
  if (!phase1_retry_armed_) {
    phase1_retry_armed_ = true;
    sim_->Schedule(config_.view_change_timeout, [this]() {
      phase1_retry_armed_ = false;
      if (crashed_ || !phase1_pending_ || phase1_ballot_ != ballot_) return;
      TakeOverLeadership();
    });
  }
}

void MultiPaxosReplica::HandlePrepare(const sim::Envelope& env) {
  const auto* msg = MessageAs<PaxosPrepareMsg>(env, MsgKind::kPaxosPrepare);
  if (msg == nullptr) return;
  if (msg->ballot < ballot_) return;  // Stale candidate; no promise.
  if (env.from != LeaderOf(msg->ballot)) return;
  if (msg->ballot > ballot_) AdoptBallot(msg->ballot);
  last_leader_activity_ = sim_->now();
  auto reply = std::make_shared<PaxosPromiseMsg>(id());
  reply->ballot = msg->ballot;
  reply->commit_frontier = commit_frontier_;
  for (auto it = accepted_log_.lower_bound(msg->from_slot);
       it != accepted_log_.end(); ++it) {
    reply->entries.push_back({it->first, it->second.ballot,
                              it->second.batch});
  }
  net_->Send(id(), env.from, reply, reply->WireSize());
}

void MultiPaxosReplica::HandlePromise(const sim::Envelope& env) {
  const auto* msg = MessageAs<PaxosPromiseMsg>(env, MsgKind::kPaxosPromise);
  if (msg == nullptr) return;
  if (!phase1_pending_ || msg->ballot != phase1_ballot_ ||
      msg->ballot != ballot_) {
    return;
  }
  commit_frontier_ = std::max(commit_frontier_, msg->commit_frontier);
  for (const auto& entry : msg->entries) {
    AcceptedValue& merged = phase1_merged_[entry.slot];
    if (entry.ballot >= merged.ballot) {
      merged.ballot = entry.ballot;
      merged.batch = entry.batch;
    }
  }
  phase1_promises_.insert(env.from);
  if (phase1_promises_.size() >= Majority()) FinishPhaseOne();
}

void MultiPaxosReplica::FinishPhaseOne() {
  phase1_pending_ = false;
  // Re-propose the merged highest-ballot value for every slot above the
  // commit watermark, plugging unwitnessed holes with empty no-op
  // batches so the verifier's k_max cursor can advance past them. The
  // piggybacked frontier keeps a late-run failover from re-driving the
  // whole history. Transactions that lived only in the dead leader's
  // memory come back via the verifier's ERROR path.
  for (const auto& [slot, value] : phase1_merged_) {
    accepted_log_[slot] = value;
    slot_frontier_ = std::max(slot_frontier_, slot);
  }
  PruneToCommitFrontier();
  // A promise carries no slot at or below its sender's commit frontier,
  // so the witnessed slots alone can end below a committed one: fresh
  // batches go above both.
  next_slot_ = std::max(next_slot_,
                        std::max(slot_frontier_, commit_frontier_) + 1);
  for (SeqNum s = commit_frontier_ + 1; s < next_slot_; ++s) {
    auto committed_it = slots_.find(s);
    if (committed_it != slots_.end() && committed_it->second.committed) {
      continue;
    }
    auto witnessed = accepted_log_.find(s);
    workload::BatchPtr batch = workload::EmptyBatch();
    if (witnessed != accepted_log_.end()) {
      batch = witnessed->second.batch;
    }
    ProposeAtSlot(s, std::move(batch));
  }
  phase1_merged_.clear();
  phase1_promises_.clear();
  MaybeProposeBatch();
}

}  // namespace sbft::shim
