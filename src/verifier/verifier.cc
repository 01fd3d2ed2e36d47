#include "verifier/verifier.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "crypto/sha256.h"

namespace sbft::verifier {

namespace {

/// Re-send interval for unanswered 2PC prepare votes (covers lost
/// decisions and coordinator crash/recovery).
constexpr SimDuration kDecisionRetry = Millis(250);
/// Bound on how many times one waiter may hop to a different blocking
/// key before it falls back to the abort rule (livelock guard).
constexpr uint32_t kPrepareLockMaxRequeues = 16;

}  // namespace

Verifier::Verifier(ActorId id, const VerifierConfig& config,
                   storage::KvStore* store, crypto::KeyRegistry* keys,
                   sim::Simulator* sim, sim::Network* net,
                   std::vector<ActorId> shim_nodes)
    : Actor(id, "verifier"),
      config_(config),
      store_(store),
      keys_(keys),
      sim_(sim),
      net_(net),
      shim_nodes_(std::move(shim_nodes)) {
  prepare_locks_.set_max_queue_depth(config_.prepare_lock_queue_depth);
  coord_groups_.resize(std::max<uint32_t>(1, config_.coord_groups.groups));
}

void Verifier::OnMessage(const sim::Envelope& env) {
  const auto* base = static_cast<const shim::Message*>(env.message.get());
  if (base == nullptr) return;
  switch (base->kind) {
    case shim::MsgKind::kVerify:
      HandleVerify(env);
      break;
    case shim::MsgKind::kClientRequest:
      HandleClientResend(env);
      break;
    case shim::MsgKind::kShardCommitDecision:
      HandleDecision(env);
      break;
    case shim::MsgKind::kCoordRedirect:
      HandleCoordRedirect(env);
      break;
    default:
      break;
  }
}

void Verifier::BroadcastToShim(const shim::MessagePtr& msg) {
  net_->Broadcast(id(), shim_nodes_, msg, msg->WireSize());
}

// ---------------------------------------------------------------------------
// VERIFY collection and quorum matching (Fig. 3 verifier role).
// ---------------------------------------------------------------------------

namespace {

/// True when `a` and `b` cast the same vote for transaction `i` (for an
/// empty batch, `i` = 0 names no transaction): the same batch digest and
/// result, and the same ref, read keys and writes of that transaction.
/// The ref is unsigned, so only the match vouches for it: it names the
/// client a RESPONSE goes to, the client's floor, and whether the
/// transaction is a 2PC fragment. Read versions count only when transactions may conflict:
/// per §IV-D, conflict-free executors may legitimately read different
/// versions and must still match. Both VERIFYs have the same shape.
bool SameVote(const shim::VerifyMsg& a, const shim::VerifyMsg& b, size_t i,
              bool read_versions) {
  if (a.batch_digest != b.batch_digest || a.result != b.result) return false;
  if (i == a.txn_rws.size()) return true;
  if (a.txn_refs[i] != b.txn_refs[i]) return false;
  const storage::RwSet& x = a.txn_rws[i];
  const storage::RwSet& y = b.txn_rws[i];
  if (x.writes != y.writes || x.reads.size() != y.reads.size()) return false;
  for (size_t k = 0; k < x.reads.size(); ++k) {
    if (x.reads[k].key != y.reads[k].key ||
        (read_versions && x.reads[k].version != y.reads[k].version)) {
      return false;
    }
  }
  return true;
}

}  // namespace

void Verifier::HandleVerify(const sim::Envelope& env) {
  auto msg = std::static_pointer_cast<const shim::VerifyMsg>(
      std::static_pointer_cast<const shim::Message>(env.message));
  if (msg->kind != shim::MsgKind::kVerify) return;

  SeqNum seq = msg->seq;
  // Flooding defence (§V-C): once a sequence is validated or matched,
  // further VERIFYs are ignored outright.
  if (seq < kmax_) {
    ++flooding_ignored_;
    return;
  }
  SeqState& state = pending_[seq];
  if (state.matched) {
    ++flooding_ignored_;
    return;
  }
  // Duplicate-executor defence (§V-C attack iii).
  if (state.senders.contains(msg->sender)) {
    ++flooding_ignored_;
    return;
  }

  // Well-formedness: one set per transaction ref, the executor's
  // signature over exactly those sets, then the certificate C — this is
  // how spawns from stale certificates are rejected (§V-C attack ii).
  if (msg->txn_rws.size() != msg->txn_refs.size() ||
      !keys_->Verify(msg->sender,
                     shim::VerifyMsg::SigningBytes(msg->view, msg->seq,
                                                   msg->batch_digest,
                                                   msg->txn_rws, msg->result),
                     msg->executor_sig)) {
    ++rejected_verifies_;
    return;
  }
  if (msg->cert->seq != seq || msg->cert->digest != msg->batch_digest ||
      !msg->cert->Validate(*keys_, config_.shim_quorum).ok()) {
    // The crash-fault shim (CFT, or no shim) carries empty certificates;
    // its shim_quorum is 0, which Validate accepts.
    if (config_.shim_quorum > 0) {
      ++rejected_verifies_;
      return;
    }
  }

  state.senders.insert(msg->sender);
  last_seen_view_ = std::max(last_seen_view_, msg->view);

  if (config_.conflicts_possible) StartAbortTimer(seq);
  // Vote once per transaction, in the quorums of this VERIFY's shape.
  const size_t n = msg->txn_refs.size();
  SeqState::Shape& shape = state.shapes[n];
  if (shape.txns.empty()) shape.txns.resize(std::max<size_t>(n, 1));
  ++shape.senders;
  shape.sample = msg;
  for (size_t i = 0; i < shape.txns.size(); ++i) {
    SeqState::TxnQuorum& quorum = shape.txns[i];
    if (quorum.winner != nullptr) continue;
    auto vote = std::find_if(
        quorum.votes.begin(), quorum.votes.end(), [&](const auto& v) {
          return SameVote(*v.first, *msg, i, config_.conflicts_possible);
        });
    if (vote == quorum.votes.end()) {
      vote = quorum.votes.insert(vote, SeqState::Vote{msg, 0});
    }
    if (++vote->count >= config_.f_e + 1) {
      quorum.winner = msg;
      ++shape.matched;
      if (i < n) RecordMatchedRef(msg->txn_refs[i], seq);
    }
  }
  if (shape.matched < shape.txns.size()) return;
  // Matched (Fig. 3 line 23): stop collecting for this sequence. Settle
  // reads only the winners, and a later VERIFY counts as flooding before
  // any sender check: keep the winning shape's winners and drop the rest.
  state.matched = true;
  state.shape = n;
  std::erase_if(state.shapes,
                [n](const auto& entry) { return entry.first != n; });
  for (SeqState::TxnQuorum& quorum : shape.txns) {
    quorum.votes = std::vector<SeqState::Vote>();
  }
  shape.sample = nullptr;
  state.senders.clear();
  if (state.timer != 0) {
    sim_->Cancel(state.timer);
    state.timer = 0;
  }
  ProcessInOrder();
}

size_t Verifier::votes_held(SeqNum seq) const {
  auto it = pending_.find(seq);
  if (it == pending_.end()) return 0;
  size_t votes = 0;
  for (const auto& [n, shape] : it->second.shapes) {
    for (const SeqState::TxnQuorum& quorum : shape.txns) {
      votes += quorum.votes.size();
    }
  }
  return votes;
}

void Verifier::RecordMatchedRef(const shim::VerifyMsg::TxnRef& ref,
                                SeqNum seq) {
  // A fragment's client is a coordinator member, which never sends a
  // retransmit here: only plain transactions keep a record.
  if (ref.IsFragment()) return;
  txn_records_.Raise(ref.client, ref.floor);
  TxnRecord* rec = txn_records_.FindOrInsert({ref.client, ref.id}).first;
  if (rec != nullptr && !rec->responded) rec->seq = seq;
}

void Verifier::ProcessInOrder() {
  while (true) {
    auto it = pending_.find(kmax_);
    if (it == pending_.end()) return;
    SeqState& state = it->second;
    if (!state.matched) return;
    Settle(kmax_, state);
    pending_.erase(it);
    ++kmax_;
    MaybeSendAcks();
  }
}

void Verifier::Settle(SeqNum seq, const SeqState& state) {
  const SeqState::Shape& shape = state.shapes.at(state.shape);
  // Digest and result come from the first matched quorum, or, when τ_m
  // aborts every quorum, from the shape's latest VERIFY.
  const shim::VerifyMsg* sample = shape.sample.get();
  for (const SeqState::TxnQuorum& quorum : shape.txns) {
    if (quorum.winner != nullptr) {
      sample = quorum.winner.get();
      break;
    }
  }
  // One settle round = one vote-certificate flush per coordinator: every
  // fragment vote cast below lands in the same aggregate message.
  const bool outer_batching = vote_batching_;
  vote_batching_ = true;
  // Batch outcome: alive when any plain transaction applied (or waits in
  // the lock queue) or any fragment stands at a YES vote. An empty batch
  // (a view-change null request) has nothing to abort and is alive too.
  bool batch_alive = state.shape == 0;
  for (size_t i = 0; i < state.shape; ++i) {
    // A matched transaction takes its ref and set from its own quorum's
    // winner; one that τ_m aborts takes its ref from `sample`.
    const auto& winner = shape.txns[i].winner;
    const shim::VerifyMsg& vote = winner != nullptr ? *winner : *sample;
    if (SettleTxn(seq, vote.txn_refs[i],
                  winner != nullptr ? &winner->txn_rws[i] : nullptr,
                  sample->batch_digest, sample->result,
                  /*drained=*/nullptr)) {
      batch_alive = true;
    }
  }
  vote_batching_ = outer_batching;
  if (!vote_batching_) FlushVoteCerts();
  ++(batch_alive ? applied_batches_ : aborted_batches_);
  audit_log_
      .Append(seq, sample->batch_digest, crypto::Sha256::Hash(sample->result),
              batch_alive ? storage::AuditLog::Outcome::kApplied
                          : storage::AuditLog::Outcome::kAborted)
      .ok();
  NotifyPrimary(seq, sample->batch_digest, !batch_alive);
}

bool Verifier::SettleTxn(SeqNum seq, const shim::VerifyMsg::TxnRef& ref,
                         const storage::RwSet* rw,
                         const crypto::Digest& digest, const Bytes& result,
                         LockWaiters::node_type* drained) {
  // Prepare-locked keys are in-doubt 2PC state: a transaction with a set
  // waits behind the first foreign lock it hits (it holds no lock yet:
  // owner 0). A fragment waits only while its gid has not voted, been
  // decided or parked already.
  const TxnKey& gid = ref.global_id;
  const bool may_wait =
      rw != nullptr &&
      (!ref.IsFragment() ||
       (!prepared_.contains(gid) && !applied_global_.contains(gid) &&
        !aborted_global_.contains(gid) &&
        !queued_fragment_gids_.contains(gid)));
  const std::string* blocked = may_wait ? FirstBlockedKey(*rw, 0) : nullptr;
  if (blocked != nullptr &&
      Park(*blocked, seq, ref, *rw, digest, result, drained)) {
    // A drained waiter's node is back in the table, and the arguments
    // alias its fields: touch nothing more.
    return true;
  }
  // Cross-shard fragments vote to the coordinator instead of applying;
  // the ref carries the routing metadata. One still blocked votes NO.
  if (ref.IsFragment()) {
    if (drained != nullptr) ++lock_waits_voted_;
    return PrepareFragment(seq, ref, rw);
  }
  // Plain transaction: one still blocked aborts (the client retries).
  // The per-request ccheck (Fig. 3 lines 31-34) runs only under the
  // conflict regime (§IV-D): otherwise the matched writes apply directly.
  const bool ok =
      rw != nullptr && blocked == nullptr &&
      (!config_.conflicts_possible || rw->ReadsCurrent(*store_));
  if (ok) rw->ApplyWrites(store_);
  ++(ok ? applied_txns_ : aborted_txns_);
  if (drained != nullptr) ++(ok ? lock_waits_applied_ : lock_waits_aborted_);
  if (ref.client != kInvalidActor) {
    SendOneResponse(ref, seq, digest, !ok, ok ? result : Bytes{});
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Cross-shard 2PC participant role (sharded data plane).
// ---------------------------------------------------------------------------

const std::string* Verifier::FirstBlockedKey(
    const storage::RwSet& rw, core::LockTable::Owner self) const {
  if (prepare_locks_.size() == 0) return nullptr;
  for (const storage::ReadEntry& r : rw.reads) {
    if (prepare_locks_.LockedByOther(r.key, self)) return &r.key;
  }
  for (const storage::WriteEntry& w : rw.writes) {
    if (prepare_locks_.LockedByOther(w.key, self)) return &w.key;
  }
  return nullptr;
}

bool Verifier::PrepareFragment(SeqNum seq,
                               const shim::VerifyMsg::TxnRef& ref,
                               const storage::RwSet* rw) {
  const TxnKey& gid = ref.global_id;
  // Duplicate fragment instances (coordinator re-drive, relaunch,
  // respawns) vote at most once and never re-apply after a decision.
  auto dup = prepared_.find(gid);
  if (dup != prepared_.end()) return dup->second.vote_commit;
  if (applied_global_.contains(gid)) return true;
  if (aborted_global_.contains(gid)) return false;
  PreparedFragment frag;
  if (rw != nullptr) frag.rw = *rw;
  frag.seq = seq;
  frag.ref = ref;
  bool ok = rw != nullptr && FirstBlockedKey(frag.rw, 0) == nullptr;
  if (ok && config_.conflicts_possible) ok = frag.rw.ReadsCurrent(*store_);
  frag.vote_commit = ok;
  if (ok) {
    frag.lock_owner = next_lock_owner_++;
    for (const storage::ReadEntry& r : frag.rw.reads) {
      prepare_locks_.AcquireOne(frag.lock_owner, r.key);
    }
    for (const storage::WriteEntry& w : frag.rw.writes) {
      prepare_locks_.AcquireOne(frag.lock_owner, w.key);
    }
    ++twopc_votes_yes_;
  } else {
    ++twopc_votes_no_;
  }
  auto it = prepared_.emplace(gid, std::move(frag)).first;
  SendVote(gid, it->second);
  return it->second.vote_commit;
}

void Verifier::SendVote(const TxnKey& global_id, PreparedFragment& frag) {
  // The vote is a signed share, buffered per coordinator. A batched
  // section (settle loop, decision drain) flushes all its shares as one
  // kShardVoteCert afterwards; outside one (retry timers) the share
  // flushes alone.
  crypto::VoteShare share;
  share.global_id = global_id.id;
  share.client = global_id.client;
  share.shard = config_.shard;
  share.seq = frag.seq;
  share.commit = frag.vote_commit;
  share.signer = id();
  if (frag.vote_sig.empty()) {
    frag.vote_sig = keys_->Sign(
        id(), crypto::VoteSigningBytes(global_id, config_.shard, frag.seq,
                                       frag.vote_commit));
  }
  share.sig = frag.vote_sig;
  // Buffered under the *resolved* target, so a leader change between
  // buffering and flush still lands every share at the new leader.
  vote_cert_buffer_[CoordTarget(frag)].shares.push_back(std::move(share));
  if (!vote_batching_) FlushVoteCerts();
  // Re-send until the coordinator's decision lands (lost decisions,
  // coordinator crash/recovery). Retries back off to a capped interval
  // but never stop: the prepare locks this fragment holds can only be
  // released by a decision, so giving up would leak them for the rest
  // of the run no matter how late the coordinator recovers.
  if (frag.retry_interval <= 0) frag.retry_interval = kDecisionRetry;
  frag.retry_timer = sim_->Schedule(frag.retry_interval, [this, global_id]() {
    auto it = prepared_.find(global_id);
    if (it == prepared_.end()) return;
    it->second.retry_timer = 0;
    SendVote(it->first, it->second);
  });
  frag.retry_interval = std::min<SimDuration>(frag.retry_interval * 2,
                                              Seconds(2));
}

void Verifier::FlushVoteCerts() {
  for (auto& [coordinator, cert] : vote_cert_buffer_) {
    auto msg = std::make_shared<shim::ShardVoteCertMsg>(id());
    msg->cert = std::move(cert);
    // Every share buffered under this target belongs to the target's
    // own group (CoordTarget resolves per gid), so the piggybacked acks
    // and view are that one group's.
    const CoordGroupState& gs = coord_groups_[GroupOfTarget(coordinator)];
    // Piggyback the applied-decision acks (cumulative, re-sent until the
    // owning group's watermark confirms them) once per certificate — no
    // extra message round. Acks are per group: the cseq spaces of
    // different groups are independent. The view stamp is wire realism
    // only; the coordinator group resolves leadership from its own state.
    msg->acked_cseqs.assign(gs.unconfirmed_acks.begin(),
                            gs.unconfirmed_acks.end());
    msg->coord_view = gs.view;
    ++vote_certs_sent_;
    net_->Send(id(), coordinator, msg, msg->WireSize());
  }
  vote_cert_buffer_.clear();
}

void Verifier::HandleDecision(const sim::Envelope& env) {
  const auto* msg = shim::MessageAs<shim::ShardCommitDecisionMsg>(
      env, shim::MsgKind::kShardCommitDecision);
  if (msg == nullptr) return;
  // Only a member of the gid's own coordinator group may resolve it — a
  // forged decision from anyone else must not release prepare state. Any
  // member of that group may have become its leader, but a member of
  // another group must never resolve a foreign gid. (For a 1x1 topology
  // the one member is exactly the launching coordinator.) View-stamped
  // decisions teach this verifier where to aim the sender's group's vote
  // retransmits.
  const core::CoordGroups& topology = config_.coord_groups;
  if (!topology.IsMember(env.from)) return;
  const uint32_t group = topology.GroupOfMember(env.from);
  CoordGroupState& gs = coord_groups_[group];
  if (msg->coord_view >= gs.view) {
    gs.view = msg->coord_view;
    gs.leader = msg->coord_leader;
  }
  if (!prepared_.contains(msg->global_id) ||
      topology.GroupOf(msg->global_id) != group) {
    return;
  }
  if (msg->commit) {
    // A COMMIT must prove its quorum: every participant's signed YES
    // share, including this shard's own. Aborts need no proof (abort is
    // the presumed, safe direction). A rejected decision is simply
    // dropped — the vote retry timer re-solicits one.
    bool covers_us = false;
    for (const crypto::VoteShare& share : msg->proof.shares) {
      covers_us = covers_us || (share.gid() == msg->global_id &&
                                share.shard == config_.shard &&
                                share.commit);
    }
    if (!covers_us || !msg->proof.Validate(*keys_).ok()) {
      ++decisions_rejected_;
      return;
    }
  }
  ApplyDecision(msg->global_id, msg->commit, msg->cseq, msg->watermark);
}

void Verifier::HandleCoordRedirect(const sim::Envelope& env) {
  const auto* msg = shim::MessageAs<shim::CoordRedirectMsg>(
      env, shim::MsgKind::kCoordRedirect);
  if (msg == nullptr) return;
  if (!config_.coord_groups.IsMember(env.from)) return;
  uint32_t g = config_.coord_groups.GroupOfMember(env.from);
  // The named leader must be a member of the sender's own group — a
  // redirect can only re-aim its own group's votes.
  if (!config_.coord_groups.IsMember(msg->leader) ||
      config_.coord_groups.GroupOfMember(msg->leader) != g) {
    return;
  }
  CoordGroupState& gs = coord_groups_[g];
  if (msg->view < gs.view) return;
  bool changed = msg->view > gs.view || gs.leader != msg->leader;
  gs.view = msg->view;
  gs.leader = msg->leader;
  if (!changed) return;
  // Leader changed: a takeover's re-derived vote state is waiting on
  // our retransmits. Re-send this group's standing votes at the new
  // leader now, with the backoff reset — one certificate instead of
  // per-fragment trickle — rather than waiting out up to the capped
  // retry interval. Other groups' fragments are untouched: their
  // leaders did not move.
  const bool outer_batching = vote_batching_;
  vote_batching_ = true;
  for (auto& [gid, frag] : prepared_) {
    if (config_.coord_groups.GroupOf(gid) != g) continue;
    if (frag.retry_timer != 0) {
      sim_->Cancel(frag.retry_timer);
      frag.retry_timer = 0;
    }
    frag.retry_interval = kDecisionRetry;
    SendVote(gid, frag);
  }
  vote_batching_ = outer_batching;
  if (!vote_batching_) FlushVoteCerts();
}

void Verifier::ApplyDecision(const TxnKey& global_id, bool commit,
                             uint64_t cseq, uint64_t watermark) {
  auto it = prepared_.find(global_id);
  if (it == prepared_.end()) return;  // Duplicate or never prepared here.
  PreparedFragment& frag = it->second;
  if (frag.retry_timer != 0) {
    sim_->Cancel(frag.retry_timer);
    frag.retry_timer = 0;
  }
  // A COMMIT decision can only exist when every shard voted YES, so
  // commit implies vote_commit; the guard keeps a byzantine or buggy
  // coordinator from making us apply state we never validated.
  bool apply = commit && frag.vote_commit;
  if (apply) {
    frag.rw.ApplyWrites(store_);
    ++twopc_committed_;
  } else {
    ++twopc_aborted_;
  }
  RecordGlobalOutcome(global_id, apply, cseq);
  ScratchEncoder enc;
  enc->PutU64(global_id.id);
  enc->PutU32(global_id.client);
  decision_log_
      .Append(++decision_seq_, crypto::Sha256::Hash(enc->buffer()),
              crypto::Digest(),
              apply ? storage::AuditLog::Outcome::kApplied
                    : storage::AuditLog::Outcome::kAborted)
      .ok();
  std::vector<std::string> released =
      frag.lock_owner != 0 ? prepare_locks_.ReleaseOwner(frag.lock_owner)
                           : std::vector<std::string>{};
  CoordGroupState& gs = GroupStateOf(global_id);
  prepared_.erase(it);
  PruneAtWatermark(gs, watermark);
  // Hand each released key to its FIFO waiters before anything else can
  // contend for it, then let the spawner's conflict-avoidance stage
  // re-drive batches that were held back by these prepare locks. Votes
  // cast by drained fragment waiters aggregate into one certificate.
  const bool outer_batching = vote_batching_;
  vote_batching_ = true;
  for (const std::string& key : released) {
    DrainLockWaiters(key);
  }
  vote_batching_ = outer_batching;
  if (!vote_batching_) FlushVoteCerts();
  if (!released.empty() && lock_release_callback_) {
    lock_release_callback_();
  }
}

void Verifier::RecordGlobalOutcome(const TxnKey& global_id, bool applied,
                                   uint64_t cseq) {
  (applied ? applied_global_ : aborted_global_)[OutcomeKey{global_id}] = cseq;
  if (cseq > 0) {
    CoordGroupState& gs = GroupStateOf(global_id);
    gs.decided_by_cseq[cseq] = {global_id, applied};
    gs.unconfirmed_acks.push_back(cseq);
    if (gs.unconfirmed_acks.size() > 1024) {
      // An overflowing ack buffer means the watermark is lagging the
      // decision rate badly; dropping the oldest ack can stall the
      // coordinator's advance over that cseq until it expires the entry
      // (a vote timeout after the decision). The entry then never
      // settles and stays in the coordinator's log: this degrades
      // truncation, never safety. The counter makes it observable.
      gs.unconfirmed_acks.pop_front();
      ++acks_dropped_;
    }
  } else if (!applied) {
    // Presumed-abort answer: nothing to prune it against, so the dedup
    // window for these is a bounded FIFO.
    presumed_order_.push_back(global_id);
    if (presumed_order_.size() > 1024) {
      auto old = aborted_global_.find(presumed_order_.front());
      if (old != aborted_global_.end() && old->second == 0) {
        aborted_global_.erase(old);
      }
      presumed_order_.pop_front();
    }
  }
}

void Verifier::PruneAtWatermark(CoordGroupState& gs, uint64_t watermark) {
  if (watermark == 0) return;
  // Every decision with cseq <= watermark is applied at every participant
  // (the group's coordinator advanced its watermark over full ack sets),
  // or its log entry stays unsettled. So the dedup entries for them can
  // never be needed again: the coordinator answers duplicates from its
  // log without re-driving fragments, and never relaunches a gid at or
  // below its client's floor once the log has truncated it. Watermarks
  // are per group — this only walks the owning group's cseq index, never
  // another group's.
  auto it = gs.decided_by_cseq.begin();
  while (it != gs.decided_by_cseq.end() && it->first <= watermark) {
    const auto& [gid, applied] = it->second;
    (applied ? applied_global_ : aborted_global_).erase(OutcomeKey{gid});
    it = gs.decided_by_cseq.erase(it);
  }
  while (!gs.unconfirmed_acks.empty() &&
         gs.unconfirmed_acks.front() <= watermark) {
    gs.unconfirmed_acks.pop_front();
  }
}

// ---------------------------------------------------------------------------
// Bounded queueing behind prepare locks.
// ---------------------------------------------------------------------------

bool Verifier::Park(const std::string& key, SeqNum seq,
                    const shim::VerifyMsg::TxnRef& ref,
                    const storage::RwSet& rw, const crypto::Digest& digest,
                    const Bytes& result, LockWaiters::node_type* drained) {
  uint64_t waiter_id = next_waiter_id_;
  if (drained != nullptr) {
    // A re-park on the same key is free (the key was re-taken by a
    // waiter ahead in this drain — bounded by the depth cap); a hop to a
    // different key burns the budget. Each wait ends at a lock a future
    // decision releases.
    LockWaiter& waiter = drained->mapped();
    if (key != waiter.waiting_key) {
      if (waiter.requeues_left == 0) return false;
      --waiter.requeues_left;
      waiter.waiting_key = key;
    }
    waiter_id = drained->key();
  }
  if (!prepare_locks_.Enqueue(key, waiter_id)) return false;
  if (ref.IsFragment()) queued_fragment_gids_.insert(ref.global_id);
  if (drained != nullptr) {
    lock_waiters_.insert(std::move(*drained));
    return true;
  }
  ++next_waiter_id_;
  lock_waiters_.emplace(waiter_id,
                        LockWaiter{ref, rw, seq, digest, result, key,
                                   kPrepareLockMaxRequeues});
  ++lock_waits_queued_;
  return true;
}

void Verifier::DrainLockWaiters(const std::string& key) {
  for (uint64_t waiter_id : prepare_locks_.DrainWaiters(key)) {
    LockWaiters::node_type node = lock_waiters_.extract(waiter_id);
    if (node.empty()) continue;
    const LockWaiter& waiter = node.mapped();
    if (waiter.ref.IsFragment()) {
      queued_fragment_gids_.erase(waiter.ref.global_id);
    }
    SettleTxn(waiter.seq, waiter.ref, &waiter.rw, waiter.batch_digest,
              waiter.result, &node);
  }
}

// ---------------------------------------------------------------------------
// Responses, primary notification, ACKs.
// ---------------------------------------------------------------------------

void Verifier::SendOneResponse(const shim::VerifyMsg::TxnRef& ref, SeqNum seq,
                               const crypto::Digest& digest, bool aborted,
                               const Bytes& result) {
  auto resp = std::make_shared<shim::ResponseMsg>(id());
  resp->txn_id = ref.id;
  resp->client = ref.client;
  resp->seq = seq;
  resp->batch_digest = digest;
  resp->result = result;
  resp->aborted = aborted;
  net_->Send(id(), ref.client, resp, resp->WireSize());
  ++responses_sent_;

  // Only a matched ref left a record (a τ_m abort answers an unvouched
  // one, which must not).
  if (TxnRecord* rec = txn_records_.Find({ref.client, ref.id})) {
    rec->responded = true;
    rec->aborted = aborted;
    rec->seq = seq;
  }

  auto ack_it = pending_txn_acks_.find({ref.client, ref.id});
  if (ack_it != pending_txn_acks_.end()) {
    auto ack = std::make_shared<shim::AckMsg>(id());
    ack->has_seq = false;
    ack->txn_digest = ack_it->second;
    BroadcastToShim(ack);
    pending_txn_acks_.erase(ack_it);
  }
}

void Verifier::NotifyPrimary(SeqNum seq, const crypto::Digest& digest,
                             bool aborted) {
  if (shim_nodes_.empty()) return;
  ActorId primary = shim_nodes_[last_seen_view_ % shim_nodes_.size()];
  auto resp = std::make_shared<shim::ResponseMsg>(id());
  resp->txn_id = 0;
  resp->client = primary;
  resp->seq = seq;
  resp->batch_digest = digest;
  resp->aborted = aborted;
  net_->Send(id(), primary, resp, resp->WireSize());
}

void Verifier::MaybeSendAcks() {
  // Gap ERRORs are acknowledged once k_max moves past them.
  for (auto it = pending_gap_acks_.begin(); it != pending_gap_acks_.end();) {
    if (*it < kmax_) {
      auto ack = std::make_shared<shim::AckMsg>(id());
      ack->has_seq = true;
      ack->kmax = *it;
      BroadcastToShim(ack);
      it = pending_gap_acks_.erase(it);
    } else {
      ++it;
    }
  }
}

// ---------------------------------------------------------------------------
// Byzantine-abort detection (§VI-B).
// ---------------------------------------------------------------------------

void Verifier::StartAbortTimer(SeqNum seq) {
  SeqState& state = pending_[seq];
  if (state.timer != 0) return;
  state.timer = sim_->Schedule(config_.match_timeout,
                               [this, seq]() { OnAbortTimer(seq); });
}

void Verifier::OnAbortTimer(SeqNum seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) return;
  SeqState& state = it->second;
  state.timer = 0;
  if (state.matched) return;
  // The shape most executors sent (on a tie, the fewest transactions).
  // The timer is armed only by an accepted VERIFY, so there is one.
  auto lead = std::max_element(
      state.shapes.begin(), state.shapes.end(),
      [](const auto& a, const auto& b) {
        return a.second.senders < b.second.senders;
      });

  if (state.senders.size() < 2 * config_.f_e + 1) {
    // |V| < 2f_E+1: the primary either spawned too few executors or the
    // messages were lost — conservatively blame the primary (§VI-B).
    auto replace = std::make_shared<shim::ReplaceMsg>(id());
    replace->txn_digest = lead->second.sample->batch_digest;
    BroadcastToShim(replace);
    ++replace_broadcasts_;
    // Keep waiting: the new primary will re-spawn executors.
    StartAbortTimer(seq);
    return;
  }
  // |V| >= 2f_E+1 without a match: at least f_E+1 honest executors tried
  // their best, and they all sent the lead shape; the remaining
  // divergence is due to conflicts. Abort that shape's unmatched
  // transactions (per request, as in Fig. 3) and settle the sequence.
  state.matched = true;
  state.shape = lead->first;
  SBFT_LOG(kDebug) << "verifier aborting unmatched txns of seq " << seq
                   << " (" << state.senders.size() << " verifies)";
  ProcessInOrder();
}

// ---------------------------------------------------------------------------
// Client retransmissions (Fig. 4 verifier role).
// ---------------------------------------------------------------------------

void Verifier::HandleClientResend(const sim::Envelope& env) {
  const auto* msg =
      shim::MessageAs<shim::ClientRequestMsg>(env, shim::MsgKind::kClientRequest);
  if (msg == nullptr) return;
  if (!keys_->Verify(msg->txn.client,
                     shim::ClientRequestMsg::SigningBytes(msg->txn),
                     msg->client_sig)) {
    return;
  }

  // At or below the client's floor the client was answered or gave up:
  // nothing to answer, and the request must never be proposed again.
  if (msg->txn.id <= txn_records_.floor(msg->txn.client)) return;
  // Only the requesting client's own record answers: ids are unique per
  // client, so another client's record under the same id says nothing
  // about this request.
  const TxnRecord* rec = txn_records_.Find({msg->txn.client, msg->txn.id});
  if (rec != nullptr && rec->responded) {
    // Case (i): already answered — resend the RESPONSE.
    auto resp = std::make_shared<shim::ResponseMsg>(id());
    resp->txn_id = msg->txn.id;
    resp->client = msg->txn.client;
    resp->seq = rec->seq;
    resp->aborted = rec->aborted;
    net_->Send(id(), msg->txn.client, resp, resp->WireSize());
    ++responses_sent_;
    return;
  }

  if (rec != nullptr) {
    SeqNum seq = rec->seq;
    // Settled but unanswered: the transaction is parked behind a prepare
    // lock, and its RESPONSE comes when a decision releases the lock.
    // No primary is at fault, and there is nothing to answer yet.
    if (seq < kmax_) return;
    auto pending_it = pending_.find(seq);
    bool matched = pending_it != pending_.end() && pending_it->second.matched;
    if (matched) {
      // Case (ii): the txn sits in π waiting for k_max — tell the shim
      // which sequence is missing (Fig. 4 line 10).
      auto error = std::make_shared<shim::ErrorMsg>(id());
      error->reason = shim::ErrorMsg::Reason::kGap;
      error->kmax = kmax_;
      BroadcastToShim(error);
      ++error_broadcasts_;
      pending_gap_acks_.insert(kmax_);
    } else {
      // Case (iii): VERIFYs seen but below quorum — only a byzantine
      // primary explains this (Fig. 4 line 14). Also announce the stuck
      // sequence so the (new) primary can re-spawn executors for it.
      auto replace = std::make_shared<shim::ReplaceMsg>(id());
      replace->txn_digest = msg->txn.Hash();
      BroadcastToShim(replace);
      ++replace_broadcasts_;
      auto error = std::make_shared<shim::ErrorMsg>(id());
      error->reason = shim::ErrorMsg::Reason::kGap;
      error->kmax = seq;
      BroadcastToShim(error);
      ++error_broadcasts_;
      pending_gap_acks_.insert(seq);
    }
    return;
  }

  // No matched VERIFY vouches for this txn. Refs below quorum are
  // unvouched, so none of them may steer this retransmit, but the settle
  // cursor itself may be stuck on a sequence whose VERIFYs are below
  // quorum (too few executors): announce it (Fig. 4 line 10), so an
  // honest primary re-spawns its executors and one that does not is
  // replaced when Υ expires.
  auto stuck = pending_.find(kmax_);
  if (stuck != pending_.end() && !stuck->second.matched &&
      !stuck->second.senders.empty()) {
    auto gap = std::make_shared<shim::ErrorMsg>(id());
    gap->reason = shim::ErrorMsg::Reason::kGap;
    gap->kmax = kmax_;
    BroadcastToShim(gap);
    ++error_broadcasts_;
    pending_gap_acks_.insert(kmax_);
  }
  // Missing request (Fig. 4 line 12): attach ⟨T⟩C so an honest
  // (possibly new) primary can propose it.
  auto error = std::make_shared<shim::ErrorMsg>(id());
  error->reason = shim::ErrorMsg::Reason::kMissingRequest;
  error->txn_digest = msg->txn.Hash();
  error->has_txn = true;
  error->txn = msg->txn;
  BroadcastToShim(error);
  ++error_broadcasts_;
  pending_txn_acks_[{msg->txn.client, msg->txn.id}] = error->txn_digest;
}

// ---------------------------------------------------------------------------
// StorageActor.
// ---------------------------------------------------------------------------

StorageActor::StorageActor(ActorId id, storage::KvStore* store,
                           sim::Network* net)
    : Actor(id, "storage"), store_(store), net_(net) {}

void StorageActor::OnMessage(const sim::Envelope& env) {
  const auto* msg =
      shim::MessageAs<shim::StorageReadMsg>(env, shim::MsgKind::kStorageRead);
  if (msg == nullptr) return;
  ++read_requests_;
  auto reply = std::make_shared<shim::StorageReadReplyMsg>(id());
  reply->request_id = msg->request_id;
  reply->items.reserve(msg->keys.size());
  for (const std::string& key : msg->keys) {
    shim::StorageReadReplyMsg::Item item;
    item.key = key;
    storage::VersionedValue value;
    if (store_->Get(key, &value).ok()) {
      item.found = true;
      item.value = std::move(value.value);
      item.version = value.version;
    }
    reply->items.push_back(std::move(item));
  }
  net_->Send(id(), env.from, reply, reply->WireSize());
}

}  // namespace sbft::verifier
