#include "core/coordinator.h"

#include <algorithm>

#include "common/logging.h"

namespace sbft::core {

TxnCoordinator::TxnCoordinator(ActorId id,
                               const storage::ShardRouter* router,
                               std::vector<ActorId> shard_verifiers,
                               ShardPrimaryResolver primary,
                               crypto::KeyRegistry* keys,
                               sim::Simulator* sim, sim::Network* net,
                               const CoordinatorOptions& options)
    : Actor(id, "coordinator"),
      router_(router),
      shard_verifiers_(std::move(shard_verifiers)),
      primary_(std::move(primary)),
      keys_(keys),
      sim_(sim),
      net_(net),
      options_(options) {
  if (options_.group.empty()) options_.group.push_back(id);
  // Member 0 is the view-0 leader over an empty log, so it starts synced
  // and heartbeating; everyone else arms the failure detector.
  if (options_.group_index == 0) {
    leader_synced_ = true;
    SendHeartbeat();
  } else {
    last_leader_contact_ = sim_->now();
    ArmFailoverTimer();
  }
}

void TxnCoordinator::SetCrashed(bool crashed) {
  if (crashed_ == crashed) return;
  crashed_ = crashed;
  if (crashed_) {
    // Crash-stop: volatile state is gone the moment the process dies.
    // The watermark bookkeeping is volatile too — only the decision log
    // with its client floors, the cseq and launch counters, and the view
    // number model stable storage. Entries whose ack state was lost
    // never settle and stay in the log (the safe direction); the
    // watermark itself re-advances over post-recovery decisions, whose
    // cseqs exceed every pre-crash cseq.
    ClearLeaderState();
    launches_.clear();
    stashed_requests_.clear();
    if (failover_timer_ != 0) {
      sim_->Cancel(failover_timer_);
      failover_timer_ = 0;
    }
    return;
  }
  // Recovery keeps only the durable decision log (plus view/cseq). The
  // member rejoins as a follower — or restarts takeover if it still
  // leads its (possibly stale) view; peers answer with their higher
  // view and demote it. A group of one takes over its own log at once,
  // and its redirect re-aims the shard verifiers' standing votes.
  last_leader_contact_ = sim_->now();
  if (GroupLeader() == id()) {
    StartTakeover();
  } else {
    ArmFailoverTimer();
  }
}

void TxnCoordinator::OnMessage(const sim::Envelope& env) {
  if (crashed_) return;
  const auto* base = static_cast<const shim::Message*>(env.message.get());
  if (base == nullptr) return;
  switch (base->kind) {
    case shim::MsgKind::kClientRequest:
      HandleClientRequest(env);
      break;
    case shim::MsgKind::kShardVoteCert:
      HandleVoteCert(env);
      break;
    case shim::MsgKind::kCoordAppend:
      HandleAppend(env);
      break;
    case shim::MsgKind::kCoordAck:
      HandleAppendAck(env);
      break;
    case shim::MsgKind::kCoordSyncRequest:
      HandleSyncRequest(env);
      break;
    case shim::MsgKind::kCoordSyncReply:
      HandleSyncReply(env);
      break;
    default:
      break;
  }
}

void TxnCoordinator::HandleClientRequest(const sim::Envelope& env) {
  const auto* msg = shim::MessageAs<shim::ClientRequestMsg>(
      env, shim::MsgKind::kClientRequest);
  if (msg == nullptr) return;
  ProcessClientRequest(env.message, *msg);
}

void TxnCoordinator::ProcessClientRequest(const sim::MessagePtr& message,
                                          const shim::ClientRequestMsg& msg) {
  // Gid partitioning (DESIGN.md §12): a request for a gid owned by
  // another group is forwarded to that group's member 0 as-is (the
  // signed request travels intact; a follower there forwards on to its
  // own serving leader). Checked before the follower-forward so a stale
  // router hint never bounces inside the wrong group.
  const TxnKey gid{msg.txn.client, msg.txn.id};
  uint32_t owner = CoordGroups::GroupOf(gid, options_.num_groups);
  if (owner != options_.group_id) {
    ++foreign_requests_forwarded_;
    CoordGroups topo{options_.num_groups,
                     static_cast<uint32_t>(options_.group.size())};
    net_->Send(id(), topo.MemberId(owner, 0), message, msg.WireSize());
    return;
  }
  if (!IsGroupLeader()) {
    // Follower: the client's (or router's) leader hint is stale —
    // forward the signed request as-is; the leader verifies it. Keep a
    // parked copy: if the presumed leader is already dead, the forward
    // is a black hole, and the copy is replayed at the next serving
    // leader instead of costing the client a full retransmission
    // timeout. DrainStash discards it on the next sign of leader life.
    StashRequest(message);
    net_->Send(id(), GroupLeader(), message, msg.WireSize());
    return;
  }
  // A mid-takeover leader serves nothing yet: park the request and
  // replay it from FinishTakeover.
  if (!leader_synced_) {
    StashRequest(message);
    return;
  }
  if (!keys_->Verify(msg.txn.client,
                     shim::ClientRequestMsg::SigningBytes(msg.txn),
                     msg.client_sig)) {
    return;
  }
  RaiseFloor(gid.client, msg.txn.floor);
  auto decided = decisions_.find(gid);
  if (decided != decisions_.end()) {
    // Client retransmission after a decision whose response was lost:
    // answer from the log.
    RespondToClient(gid, decided->second.commit);
    return;
  }
  auto pending_it = pending_.find(gid);
  if (pending_it != pending_.end()) {
    // Retransmission while in flight: re-drive the fragments (covers
    // fragments lost to partitions or pre-view-change primaries).
    SendFragments(pending_it->second);
    return;
  }
  // At or below the client's floor the client was answered or gave up,
  // and the log may have truncated the decision: never relaunch.
  if (gid.id <= client_floor(gid.client)) return;
  std::vector<uint32_t> shards = router_->ShardsOf(msg.txn.TouchedKeys());
  if (shards.size() <= 1) {
    // Degenerate routing (e.g. the generator's cross-shard forcing hit
    // its draw bound): relay the client's own signed request to the home
    // shard's primary; the shard answers the client directly.
    net_->Send(id(), primary_(shards.empty() ? 0 : shards[0]), message,
               msg.WireSize());
    return;
  }
  LaunchTxn(msg.txn, std::move(shards));
}

void TxnCoordinator::StashRequest(const sim::MessagePtr& message) {
  if (stashed_requests_.size() >= kMaxStashedRequests) {
    stashed_requests_.pop_front();
  }
  stashed_requests_.push_back(message);
}

void TxnCoordinator::DrainStash() {
  if (stashed_requests_.empty()) return;
  // A mid-takeover leader holds on to the stash; FinishTakeover drains.
  if (IsGroupLeader() && !leader_synced_) return;
  std::deque<sim::MessagePtr> stash;
  stash.swap(stashed_requests_);
  for (const sim::MessagePtr& message : stash) {
    const auto* msg = static_cast<const shim::Message*>(message.get());
    if (msg == nullptr || msg->kind != shim::MsgKind::kClientRequest) {
      continue;
    }
    const auto* request = static_cast<const shim::ClientRequestMsg*>(msg);
    if (IsGroupLeader()) {
      // Serving leader: replay locally. Every path is idempotent —
      // decided gids answer from the log, pending ones re-drive, only
      // unknown ones launch.
      ProcessClientRequest(message, *request);
    } else {
      // Fresh leader contact: forward the parked copies. A duplicate of
      // an already-served forward is absorbed by the same dedup.
      net_->Send(id(), GroupLeader(), message, request->WireSize());
    }
  }
}

void TxnCoordinator::LaunchTxn(const workload::Transaction& txn,
                               std::vector<uint32_t> shards) {
  const TxnKey gid{txn.client, txn.id};
  ++txns_coordinated_;
  PendingTxn pending;
  pending.shards = std::move(shards);
  // This member is the fragments' client. A launch's fragments share one
  // id from its durable counter (each shard sees at most one of them),
  // and their floor is below this member's oldest launch still pending.
  pending.launch = next_launch_++;
  const TxnId floor =
      (open_launches_.empty() ? pending.launch : *open_launches_.begin()) -
      1;
  open_launches_.insert(pending.launch);

  // Split the operations by home shard; compute ops ride with the first
  // involved shard (they have no key to route on).
  for (uint32_t shard : pending.shards) {
    workload::Transaction fragment;
    fragment.id = pending.launch;
    fragment.client = id();
    fragment.floor = floor;
    fragment.rw_sets_known = txn.rw_sets_known;
    fragment.global_id = gid;
    fragment.coordinator = id();
    for (const workload::Operation& op : txn.ops) {
      if (op.type == workload::OpType::kCompute) {
        if (shard == pending.shards[0]) fragment.ops.push_back(op);
        continue;
      }
      if (router_->ShardOf(op.key) == shard) fragment.ops.push_back(op);
    }
    auto request = std::make_shared<shim::ClientRequestMsg>(id());
    request->txn = std::move(fragment);
    request->client_sig = keys_->Sign(
        id(), shim::ClientRequestMsg::SigningBytes(request->txn));
    pending.fragments.push_back(std::move(request));
  }

  pending.timer = sim_->Schedule(
      options_.vote_timeout, [this, gid]() { OnVoteTimeout(gid); });
  auto [it, inserted] = pending_.emplace(gid, std::move(pending));
  // Best-effort launch replication (no quorum, no ack): a standby can
  // rebuild the pending record — the gid names the client — and judge
  // vote completeness from the participant set after takeover. A lost
  // launch degrades safely to presumed abort.
  launches_[gid] = it->second.shards;
  BroadcastAppend(/*append_id=*/0, shim::CoordAppendMsg::kLaunch, gid,
                  /*commit=*/false, /*cseq=*/0, /*proof=*/nullptr,
                  &it->second.shards);
  SendFragments(it->second);
}

void TxnCoordinator::SendFragments(const PendingTxn& pending) {
  for (size_t i = 0; i < pending.fragments.size(); ++i) {
    uint32_t shard = pending.shards[i];
    // Skip shards that already voted — their verifier holds the fragment.
    if (pending.votes.contains(shard)) continue;
    const auto& request = pending.fragments[i];
    net_->Send(id(), primary_(shard), request, request->WireSize());
  }
}

void TxnCoordinator::HandleVoteCert(const sim::Envelope& env) {
  const auto* msg = shim::MessageAs<shim::ShardVoteCertMsg>(
      env, shim::MsgKind::kShardVoteCert);
  if (msg == nullptr || msg->cert.shares.empty()) return;
  // Per-share sender guard first (cheap), then one batch verification
  // over the whole certificate. Any bad share drops the message whole:
  // a verifier never mixes its own shares with foreign ones, so a
  // partially-forged certificate has no honest interpretation.
  for (const crypto::VoteShare& share : msg->cert.shares) {
    if (share.shard >= shard_verifiers_.size() ||
        env.from != shard_verifiers_[share.shard] ||
        share.signer != env.from) {
      ++vote_certs_rejected_;
      return;
    }
  }
  if (!IsGroupLeader() || !leader_synced_) {
    // Votes are never forwarded (that would defeat the sender guard
    // above); a follower bounces a redirect so the verifier re-aims its
    // retransmits, a mid-takeover leader stays silent.
    if (!IsGroupLeader()) {
      auto redirect = std::make_shared<shim::CoordRedirectMsg>(id());
      redirect->view = view_;
      redirect->leader = GroupLeader();
      net_->Send(id(), env.from, redirect, redirect->WireSize());
    }
    return;
  }
  if (!msg->cert.Validate(*keys_).ok()) {
    ++vote_certs_rejected_;
    return;
  }
  ++vote_cert_msgs_;
  // All shares come from one verifier (the guard pinned each share's
  // shard to env.from), so the piggybacked acks are that one shard's.
  RecordAcks(msg->cert.shares.front().shard, msg->acked_cseqs);
  for (const crypto::VoteShare& share : msg->cert.shares) {
    ProcessVote(share, env.from);
  }
}

void TxnCoordinator::ProcessVote(const crypto::VoteShare& share,
                                 ActorId from) {
  const TxnKey gid = share.gid();
  if (CoordGroups::GroupOf(gid, options_.num_groups) != options_.group_id) {
    // A misrouted vote must never be answered here: a foreign-group gid
    // is absent from this group's log by construction, so falling
    // through would presumed-abort (and quorum-log!) an outcome the
    // owning group alone is entitled to decide.
    ++foreign_votes_dropped_;
    return;
  }
  ++votes_received_;
  auto decided = decisions_.find(gid);
  if (decided != decisions_.end()) {
    // Participant retry after we decided: answer from the durable log,
    // with the logged quorum proof for a COMMIT.
    SendDecision(gid, decided->second.commit, decided->second.cseq, from,
                 &decided->second.proof);
    return;
  }
  auto it = pending_.find(gid);
  if (it == pending_.end()) {
    // No pending record and nothing logged: a crash or step-down lost
    // the volatile state before the decision — presumed abort. The
    // answer must be durable before it is sent: quorum-log an explicit
    // ABORT record first, so no later leader — whose sync majority
    // necessarily intersects this quorum — can resurrect a conflicting
    // COMMIT for the same transaction. It carries cseq 0: no participant
    // acks it, so the watermark never covers it.
    if (inflight_aborts_.contains(gid)) return;  // answer rides quorum
    inflight_aborts_.insert(gid);
    PendingAppend pa;
    pa.global_id = gid;
    pa.presumed = true;
    pa.answer_to = from;
    AppendDecision(std::move(pa), /*shards=*/nullptr);
    return;
  }
  PendingTxn& pending = it->second;
  // A quorum-fenced decision is already in flight: the vote changes
  // nothing, and mutating the frozen vote set would race FinishDecide.
  if (pending.deciding) return;
  // Only participants of this transaction may vote; a vote carrying a
  // foreign shard id must not be able to complete the quorum.
  bool participant = false;
  for (uint32_t s : pending.shards) {
    participant = participant || s == share.shard;
  }
  if (!participant) return;
  pending.votes[share.shard] = share;
  if (!share.commit) {
    Decide(gid, false);
    return;
  }
  if (pending.votes.size() == pending.shards.size()) {
    bool all_yes = true;
    for (const auto& [s, vote] : pending.votes) {
      all_yes = all_yes && vote.commit;
    }
    Decide(gid, all_yes);
  }
}

void TxnCoordinator::Decide(const TxnKey& global_id, bool commit) {
  auto it = pending_.find(global_id);
  if (it == pending_.end()) return;
  PendingTxn& pending = it->second;
  if (pending.deciding) return;
  if (pending.timer != 0) {
    sim_->Cancel(pending.timer);
    pending.timer = 0;
  }
  uint64_t cseq = next_cseq_++;
  // A COMMIT can only be decided on an all-YES vote set, so the collected
  // shares form exactly the quorum proof participants will demand before
  // applying.
  crypto::VoteCertificate proof;
  if (commit) {
    for (const auto& [shard, share] : pending.votes) {
      proof.shares.push_back(share);
    }
  }
  if (!IsGroupLeader() || !leader_synced_) {
    // Demoted mid-flight: drop the pending record; the serving leader
    // re-derives it from launches and retried votes, presumed abort
    // covers the rest.
    open_launches_.erase(pending.launch);
    pending_.erase(it);
    return;
  }
  // Quorum fence: the decision is appended to the group and acted on
  // only once a majority (including self) holds it. A stale
  // minority-partitioned leader can therefore never send a decision that
  // a later leader's sync would contradict. Both outcomes are fenced —
  // explicit aborts too, so a takeover's sync sees them.
  pending.deciding = true;
  PendingAppend pa;
  pa.global_id = global_id;
  pa.commit = commit;
  pa.cseq = cseq;
  pa.proof = std::move(proof);
  AppendDecision(std::move(pa), &pending.shards);
}

void TxnCoordinator::FinishDecide(const TxnKey& global_id, bool commit,
                                  uint64_t cseq,
                                  const crypto::VoteCertificate& proof) {
  auto it = pending_.find(global_id);
  if (it == pending_.end()) return;
  PendingTxn& pending = it->second;
  // The decision is logged before telling anyone — the write-ahead rule
  // that makes it survive a crash between the first and last decision
  // send. Aborts are logged too (quorum-fenced like commits), so
  // sync-time conflict resolution has both outcomes.
  LogDecision(global_id, DecisionRecord{commit, cseq, proof, view_});
  ++(commit ? commits_decided_ : aborts_decided_);
  launches_.erase(global_id);
  OutstandingDecision outstanding;
  outstanding.global_id = global_id;
  outstanding.decided_at = sim_->now();
  for (uint32_t shard : pending.shards) {
    // Only shards that produced a vote hold prepare state; the rest
    // learn the outcome from the log when their (late) vote arrives.
    if (pending.votes.contains(shard)) {
      SendDecision(global_id, commit, cseq, shard_verifiers_[shard],
                   &proof);
      outstanding.sent_to.insert(shard);
    }
  }
  outstanding_.emplace(cseq, std::move(outstanding));
  RespondToClient(global_id, commit);
  open_launches_.erase(pending.launch);
  pending_.erase(it);
}

void TxnCoordinator::SendDecision(const TxnKey& global_id, bool commit,
                                  uint64_t cseq, ActorId to,
                                  const crypto::VoteCertificate* proof) {
  auto decision = std::make_shared<shim::ShardCommitDecisionMsg>(id());
  decision->global_id = global_id;
  decision->commit = commit;
  if (proof != nullptr && !proof->shares.empty()) {
    decision->proof = *proof;
  }
  decision->cseq = cseq;
  decision->watermark = watermark_;
  // View stamp: how participants learn the current leader (and where to
  // aim vote retransmits).
  decision->coord_view = view_;
  decision->coord_leader = id();
  net_->Send(id(), to, decision, decision->WireSize());
}

void TxnCoordinator::RespondToClient(const TxnKey& global_id, bool commit) {
  auto resp = std::make_shared<shim::ResponseMsg>(id());
  resp->txn_id = global_id.id;
  resp->client = global_id.client;
  resp->aborted = !commit;
  net_->Send(id(), global_id.client, resp, resp->WireSize());
}

void TxnCoordinator::OnVoteTimeout(const TxnKey& global_id) {
  if (crashed_) return;
  auto it = pending_.find(global_id);
  if (it == pending_.end()) return;
  it->second.timer = 0;
  SBFT_LOG(kDebug) << name() << " vote timeout, aborting gtxn ("
                   << global_id.client << ", " << global_id.id << ")";
  Decide(global_id, false);
}

// ---------------------------------------------------------------------------
// Two watermarks: the cseq watermark over participant acks, and each
// client's floor. A log entry leaves once both have passed it.
// ---------------------------------------------------------------------------

void TxnCoordinator::RecordAcks(uint32_t shard,
                                const std::vector<uint64_t>& cseqs) {
  for (uint64_t cseq : cseqs) {
    auto it = outstanding_.find(cseq);
    if (it == outstanding_.end()) continue;  // Already confirmed / wiped.
    if (!it->second.sent_to.contains(shard)) continue;
    it->second.acked.insert(shard);
  }
  // Advance the watermark over the complete prefix: a decision counts as
  // fully applied once every shard it was sent to acked it, and only
  // then is its entry settled. Gaps (cseqs wiped by a crash) cannot
  // block the advance — their decisions live on durably in the log,
  // never settled after the wipe (the safe direction). An entry whose
  // acks are still incomplete a vote timeout after it was decided (lost
  // acks, ack-buffer overflow at a shard) is expired rather than allowed
  // to stall the watermark forever: the advance skips it WITHOUT
  // settling it, so its entry never leaves the log. A shard that never
  // applied the decision may still ask for it, and it must not get a
  // presumed abort; duplicates are always answered from the log and
  // fragments are never re-driven for decided gids.
  SimTime now = sim_->now();
  auto it = outstanding_.begin();
  while (it != outstanding_.end()) {
    bool fully_acked = it->second.acked.size() == it->second.sent_to.size();
    bool expired = it->second.decided_at + options_.vote_timeout <= now;
    if (!fully_acked && !expired) break;
    watermark_ = it->first;
    if (fully_acked) {
      auto entry = decisions_.find(it->second.global_id);
      if (entry != decisions_.end() && entry->second.cseq == it->first) {
        entry->second.settled = true;
        MaybeTruncate(entry);
      }
    } else {
      ++outstanding_expired_;
    }
    it = outstanding_.erase(it);
  }
}

void TxnCoordinator::RaiseFloor(ActorId client, TxnId floor) {
  TxnId& known = floors_[client];
  if (floor <= known) return;
  known = floor;
  auto it = decisions_.lower_bound(TxnKey{client, 0});
  while (it != decisions_.end() && it->first.client == client &&
         it->first.id <= floor) {
    MaybeTruncate(it++);
  }
}

std::map<TxnKey, TxnCoordinator::DecisionRecord>::iterator
TxnCoordinator::LogDecision(const TxnKey& gid, const DecisionRecord& record) {
  auto it = decisions_.insert_or_assign(gid, record).first;
  if (decision_sink_) decision_sink_(gid, record);
  return it;
}

void TxnCoordinator::MaybeTruncate(
    std::map<TxnKey, DecisionRecord>::iterator it) {
  // Settled: no participant will ask for the decision again. At or below
  // the floor: neither will the client. Nothing else reads the entry.
  if (!it->second.settled || it->first.id > client_floor(it->first.client)) {
    return;
  }
  truncated_.push_back(it->first);
  decisions_.erase(it);
  ++decisions_pruned_;
}

// ---------------------------------------------------------------------------
// Coordinator-group replication (DESIGN.md §10). A group of one runs the
// same code: it is its own majority, so its appends and takeover complete
// without a message, and no group message ever reaches the wire.
// ---------------------------------------------------------------------------

int TxnCoordinator::GroupIndexOf(ActorId a) const {
  for (size_t i = 0; i < options_.group.size(); ++i) {
    if (options_.group[i] == a) return static_cast<int>(i);
  }
  return -1;
}

void TxnCoordinator::AppendDecision(PendingAppend pa,
                                    const std::vector<uint32_t>* shards) {
  uint64_t aid = ++next_append_id_;
  pa.acks.insert(options_.group_index);
  const PendingAppend& staged =
      pending_appends_.emplace(aid, std::move(pa)).first->second;
  BroadcastAppend(aid, shim::CoordAppendMsg::kDecision, staged.global_id,
                  staged.commit, staged.cseq, &staged.proof, shards);
  MaybeCommitAppend(aid);
}

void TxnCoordinator::MaybeCommitAppend(uint64_t append_id) {
  auto it = pending_appends_.find(append_id);
  if (it == pending_appends_.end() ||
      it->second.acks.size() < GroupMajority()) {
    return;
  }
  PendingAppend pa = std::move(it->second);
  pending_appends_.erase(it);
  if (pa.takeover) {
    if (takeover_reappends_ > 0 && --takeover_reappends_ == 0 &&
        !leader_synced_) {
      FinishTakeover();
    }
    return;
  }
  if (pa.presumed) {
    // The explicit abort is quorum-durable: log it and answer the vote
    // that triggered it. Later retries answer straight from the log. No
    // shard acks a presumed abort, so it is settled at once.
    inflight_aborts_.erase(pa.global_id);
    auto entry = decisions_.find(pa.global_id);
    if (entry == decisions_.end()) {
      entry = LogDecision(pa.global_id,
                          DecisionRecord{false, 0, {}, view_, true});
    }
    ++presumed_aborts_logged_;
    SendDecision(pa.global_id, false, /*cseq=*/0, pa.answer_to,
                 /*proof=*/nullptr);
    MaybeTruncate(entry);
    return;
  }
  FinishDecide(pa.global_id, pa.commit, pa.cseq, pa.proof);
}

void TxnCoordinator::BroadcastAppend(uint64_t append_id,
                                     shim::CoordAppendMsg::Entry entry,
                                     const TxnKey& global_id, bool commit,
                                     uint64_t cseq,
                                     const crypto::VoteCertificate* proof,
                                     const std::vector<uint32_t>* shards) {
  if (options_.group.size() <= 1) {
    truncated_.clear();  // No follower to tell.
    return;
  }
  auto msg = std::make_shared<shim::CoordAppendMsg>(id());
  msg->view = view_;
  msg->append_id = append_id;
  msg->entry = entry;
  msg->global_id = global_id;
  msg->commit = commit;
  msg->cseq = cseq;
  msg->watermark = watermark_;
  if (shards != nullptr) msg->shards = *shards;
  if (proof != nullptr) msg->proof = *proof;
  msg->truncated.swap(truncated_);
  net_->Broadcast(id(), options_.group, id(), msg, msg->WireSize());
}

void TxnCoordinator::HandleAppend(const sim::Envelope& env) {
  const auto* msg = shim::MessageAs<shim::CoordAppendMsg>(
      env, shim::MsgKind::kCoordAppend);
  if (msg == nullptr) return;
  // Only the leader of the stamped view may append under that view
  // (the shared CoordGroups::LeaderIndexAt rule).
  if (options_.group[CoordGroups::LeaderIndexAt(
          msg->view, static_cast<uint32_t>(options_.group.size()))] !=
      env.from) {
    return;
  }
  if (msg->view < view_) {
    // Stale leader: answer with our view (append_id 0 carries no ack
    // semantics) so it adopts the new view and steps down.
    auto ack = std::make_shared<shim::CoordAckMsg>(id());
    ack->view = view_;
    ack->append_id = 0;
    net_->Send(id(), env.from, ack, ack->WireSize());
    return;
  }
  if (msg->view > view_) AdoptView(msg->view);
  last_leader_contact_ = sim_->now();
  if (failover_timer_ == 0 && !IsGroupLeader()) ArmFailoverTimer();
  // Proof of a serving leader: replay any requests parked while the
  // previous one was a suspected black hole.
  DrainStash();
  // The leader truncated these: settled, and at or below their client's
  // floor, which this member now knows is at least that high.
  for (const TxnKey& gid : msg->truncated) {
    TxnId& floor = floors_[gid.client];
    floor = std::max(floor, gid.id);
    launches_.erase(gid);
    decisions_pruned_ += decisions_.erase(gid);
  }
  switch (msg->entry) {
    case shim::CoordAppendMsg::kHeartbeat:
      break;
    case shim::CoordAppendMsg::kDecision: {
      // Follower write-ahead: the entry is durable here *before* the
      // leader acts on it (the leader itself logs at FinishDecide, after
      // quorum). Per-gid conflicts resolve by max view — a re-replicated
      // takeover entry overwrites any stale minority record.
      auto it = decisions_.find(msg->global_id);
      if (it == decisions_.end() || it->second.view <= msg->view) {
        LogDecision(msg->global_id, DecisionRecord{msg->commit, msg->cseq,
                                                   msg->proof, msg->view});
      }
      launches_.erase(msg->global_id);
      next_cseq_ = std::max(next_cseq_, msg->cseq + 1);
      watermark_ = std::max(watermark_, msg->watermark);
      auto ack = std::make_shared<shim::CoordAckMsg>(id());
      ack->view = msg->view;
      ack->append_id = msg->append_id;
      net_->Send(id(), env.from, ack, ack->WireSize());
      break;
    }
    case shim::CoordAppendMsg::kLaunch:
      if (!decisions_.contains(msg->global_id)) {
        launches_[msg->global_id] = msg->shards;
      }
      break;
    default:
      break;
  }
}

void TxnCoordinator::HandleAppendAck(const sim::Envelope& env) {
  const auto* msg =
      shim::MessageAs<shim::CoordAckMsg>(env, shim::MsgKind::kCoordAck);
  if (msg == nullptr) return;
  int idx = GroupIndexOf(env.from);
  if (idx < 0) return;
  if (msg->view > view_) {
    AdoptView(msg->view);
    return;
  }
  if (msg->view < view_ || msg->append_id == 0) return;
  auto it = pending_appends_.find(msg->append_id);
  if (it == pending_appends_.end()) return;
  it->second.acks.insert(static_cast<uint32_t>(idx));
  MaybeCommitAppend(msg->append_id);
}

void TxnCoordinator::HandleSyncRequest(const sim::Envelope& env) {
  const auto* msg = shim::MessageAs<shim::CoordSyncRequestMsg>(
      env, shim::MsgKind::kCoordSyncRequest);
  if (msg == nullptr) return;
  if (GroupIndexOf(env.from) < 0) return;
  if (msg->view > view_) AdoptView(msg->view);
  if (msg->view >= view_) {
    last_leader_contact_ = sim_->now();
    // The candidate parks forwarded requests until its takeover
    // completes, so handing the stash over now is safe and shaves the
    // redirect round off the replay latency.
    DrainStash();
  }
  // Reply even to a stale candidate — the carried view demotes it.
  auto reply = std::make_shared<shim::CoordSyncReplyMsg>(id());
  reply->view = view_;
  reply->next_cseq = next_cseq_;
  reply->watermark = watermark_;
  for (const auto& [gid, rec] : decisions_) {
    reply->decisions.push_back(
        {gid, rec.commit, rec.cseq, rec.view, rec.proof});
  }
  for (const auto& [gid, shards] : launches_) {
    reply->launches.push_back({gid, shards});
  }
  for (const auto& [client, floor] : floors_) {
    reply->floors.push_back({client, floor});
  }
  net_->Send(id(), env.from, reply, reply->WireSize());
}

void TxnCoordinator::HandleSyncReply(const sim::Envelope& env) {
  const auto* msg = shim::MessageAs<shim::CoordSyncReplyMsg>(
      env, shim::MsgKind::kCoordSyncReply);
  if (msg == nullptr) return;
  int idx = GroupIndexOf(env.from);
  if (idx < 0) return;
  if (msg->view > view_) {
    // A peer moved on: abandon this takeover, follow the newer view.
    AdoptView(msg->view);
    return;
  }
  if (!syncing_ || msg->view < view_) return;
  sync_replies_.insert(static_cast<uint32_t>(idx));
  for (const auto& d : msg->decisions) {
    auto it = decisions_.find(d.global_id);
    if (it == decisions_.end() || it->second.view < d.view) {
      LogDecision(d.global_id,
                  DecisionRecord{d.commit, d.cseq, d.proof, d.view});
    }
    launches_.erase(d.global_id);
  }
  for (const auto& launch : msg->launches) {
    if (!decisions_.contains(launch.global_id)) {
      launches_.try_emplace(launch.global_id, launch.shards);
    }
  }
  for (const TxnKey& f : msg->floors) {
    TxnId& floor = floors_[f.client];
    floor = std::max(floor, f.id);
  }
  next_cseq_ = std::max(next_cseq_, msg->next_cseq);
  watermark_ = std::max(watermark_, msg->watermark);
  if (sync_replies_.size() + 1 >= GroupMajority()) CompleteTakeover();
}

void TxnCoordinator::AdoptView(uint64_t view) {
  if (view <= view_) return;
  view_ = view;
  ++view_changes_;
  // Fall back to follower: leader-volatile state is meaningless under
  // the new view. The decision log, cseq counter, watermark frontier,
  // and launch hints survive — they feed the new leader's sync.
  ClearLeaderState();
  last_leader_contact_ = sim_->now();
  if (failover_timer_ == 0) ArmFailoverTimer();
}

void TxnCoordinator::ClearLeaderState() {
  for (auto& [gid, pending] : pending_) {
    if (pending.timer != 0) sim_->Cancel(pending.timer);
  }
  pending_.clear();
  open_launches_.clear();
  outstanding_.clear();
  truncated_.clear();
  pending_appends_.clear();
  inflight_aborts_.clear();
  sync_replies_.clear();
  syncing_ = false;
  leader_synced_ = false;
  takeover_reappends_ = 0;
  for (sim::EventId* timer : {&heartbeat_timer_, &sync_retry_timer_}) {
    if (*timer != 0) sim_->Cancel(*timer);
    *timer = 0;
  }
}

void TxnCoordinator::ArmFailoverTimer() {
  if (crashed_ || failover_timer_ != 0) return;
  failover_timer_ = sim_->Schedule(options_.failover_timeout,
                                   [this]() { OnFailoverTimeout(); });
}

void TxnCoordinator::OnFailoverTimeout() {
  failover_timer_ = 0;
  if (crashed_) return;
  // A serving leader heartbeats instead; a candidate mid-sync retries
  // via its own timer (bumping views while partitioned into a minority
  // would only thrash).
  if (IsGroupLeader() && (leader_synced_ || syncing_)) return;
  SimTime due = last_leader_contact_ + options_.failover_timeout;
  if (sim_->now() < due) {
    failover_timer_ =
        sim_->Schedule(due - sim_->now(), [this]() { OnFailoverTimeout(); });
    return;
  }
  // Leader silence: bump the view; take over if we lead the new one.
  ++view_;
  ++view_changes_;
  last_leader_contact_ = sim_->now();
  if (GroupLeader() == id()) {
    StartTakeover();
  } else {
    ArmFailoverTimer();
  }
}

void TxnCoordinator::StartTakeover() {
  if (crashed_) return;
  SBFT_LOG(kDebug) << name() << " takeover at view " << view_;
  syncing_ = true;
  leader_synced_ = false;
  sync_replies_.clear();
  takeover_reappends_ = 0;
  auto req = std::make_shared<shim::CoordSyncRequestMsg>(id());
  req->view = view_;
  net_->Broadcast(id(), options_.group, id(), req, req->WireSize());
  if (sync_retry_timer_ != 0) sim_->Cancel(sync_retry_timer_);
  sync_retry_timer_ =
      sim_->Schedule(options_.failover_timeout, [this]() {
        sync_retry_timer_ = 0;
        if (!crashed_ && syncing_) StartTakeover();
      });
  // A member that is a majority alone has nobody to wait for.
  if (sync_replies_.size() + 1 >= GroupMajority()) CompleteTakeover();
}

void TxnCoordinator::CompleteTakeover() {
  syncing_ = false;
  if (sync_retry_timer_ != 0) {
    sim_->Cancel(sync_retry_timer_);
    sync_retry_timer_ = 0;
  }
  // Re-replicate every adopted entry at this view before serving: a
  // minority-held entry either becomes quorum-durable (stamped with
  // this view, so it dominates stale records) or this leader never
  // serves. Quorum intersection then guarantees any later takeover sees
  // every entry this leader may act on — the Raft "re-commit prior-term
  // entries" rule transplanted to the 2PC decision log. The barrier
  // counts every entry up front: a group of one clears each append as it
  // is staged, and the last one runs FinishTakeover.
  takeover_reappends_ = static_cast<uint32_t>(decisions_.size());
  if (takeover_reappends_ == 0) FinishTakeover();
  for (auto& [gid, rec] : decisions_) {
    rec.view = view_;
    PendingAppend pa;
    pa.global_id = gid;
    pa.commit = rec.commit;
    pa.cseq = rec.cseq;
    pa.proof = rec.proof;
    pa.takeover = true;
    AppendDecision(std::move(pa), /*shards=*/nullptr);
  }
}

void TxnCoordinator::FinishTakeover() {
  leader_synced_ = true;
  SBFT_LOG(kDebug) << name() << " serving as leader of view " << view_;
  // Watermark re-derivation rule (DESIGN.md §10): the per-cseq ack sets
  // are deliberately volatile. The new leader starts with an empty
  // outstanding_ map and the synced watermark; every cseq it assigns
  // exceeds every synced one, so advancement stays monotone. Adopted
  // entries it did not settle itself stay in the log — the same safe
  // direction as the expiry path.
  for (const auto& [gid, shards] : launches_) {
    if (decisions_.contains(gid)) continue;
    PendingTxn pending;
    pending.shards = shards;
    TxnKey g = gid;
    pending.timer = sim_->Schedule(options_.vote_timeout,
                                   [this, g]() { OnVoteTimeout(g); });
    pending_.emplace(gid, std::move(pending));
  }
  // Re-aim the shard planes: verifiers cancel their retry backoff and
  // re-send every standing vote here (batched into certificates).
  auto redirect = std::make_shared<shim::CoordRedirectMsg>(id());
  redirect->view = view_;
  redirect->leader = id();
  net_->Broadcast(id(), shard_verifiers_, redirect, redirect->WireSize());
  SendHeartbeat();
  // Serve the requests parked during the leaderless window (own
  // mid-takeover arrivals plus stashes handed over by followers).
  DrainStash();
}

void TxnCoordinator::SendHeartbeat() {
  if (crashed_ || !IsGroupLeader()) return;
  BroadcastAppend(/*append_id=*/0, shim::CoordAppendMsg::kHeartbeat,
                  /*global_id=*/TxnKey{}, /*commit=*/false, /*cseq=*/0,
                  /*proof=*/nullptr, /*shards=*/nullptr);
  heartbeat_timer_ =
      sim_->Schedule(options_.heartbeat_interval, [this]() {
        heartbeat_timer_ = 0;
        SendHeartbeat();
      });
}

}  // namespace sbft::core
