#ifndef SBFT_CORE_COORDINATOR_H_
#define SBFT_CORE_COORDINATOR_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/coord_group.h"
#include "crypto/certificate.h"
#include "crypto/keys.h"
#include "shim/message.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "storage/shard_router.h"

namespace sbft::core {

/// Runtime options of the TxnCoordinator (2PC layer knobs).
struct CoordinatorOptions {
  /// Vote-collection timeout; expiry without all votes decides ABORT. A
  /// sent decision that is still not fully acked this long after it was
  /// decided stops holding back the watermark (RecordAcks).
  SimDuration vote_timeout = Millis(1500);
  /// Coordinator group (DESIGN.md §10): every member's actor id in index
  /// order; member 0 is the view-0 leader. Empty means a group of one.
  /// A group of one is its own majority: it runs the same protocol, and
  /// its appends and takeover complete at once (no peer to wait for).
  std::vector<ActorId> group;
  /// This member's index in `group`.
  uint32_t group_index = 0;
  /// Gid partitioning (DESIGN.md §12): the group this member belongs to
  /// and the total number of coordinator groups. A gid owned by another
  /// group is never served here: client requests for it are forwarded
  /// to the owning group, votes for it are dropped — in particular a
  /// misrouted vote must never trigger a presumed abort outside the
  /// gid's own group.
  uint32_t group_id = 0;
  uint32_t num_groups = 1;
  /// Leader heartbeat period.
  SimDuration heartbeat_interval = Millis(100);
  /// Follower silence threshold before it bumps the view and, if it is
  /// the new view's leader, starts takeover.
  SimDuration failover_timeout = Millis(500);
};

/// \brief Coordinator of cross-shard transactions: two-phase commit
/// layered on top of the per-shard BFT pipelines (sharded data plane).
///
/// Clients send transactions whose key set spans shard planes here. The
/// coordinator splits the transaction into per-shard *fragments*, signs
/// and submits each to its shard's current primary as an ordinary client
/// request, and collects the shard verifiers' PREPARE votes as signed
/// shares (kShardVoteCert, one certificate per settle round). All-YES
/// logs COMMIT, anything else (including a vote timeout) logs ABORT —
/// presumed abort. The decision log survives crashes (stable storage in
/// the real deployment), so a recovering coordinator re-answers late
/// votes from the log and aborts in-doubt transactions it lost the
/// volatile state for; participants keep re-sending votes until a
/// decision lands, which makes the pair live through coordinator crash
/// between PREPARE and COMMIT.
///
/// A COMMIT decision carries the participants' YES shares as its quorum
/// proof. Every decision carries a dense sequence number (cseq);
/// participants ack applied cseqs on their next votes, and the
/// coordinator advances a fully-decided watermark over the complete ack
/// prefix and piggybacks it on outgoing decisions. A transaction is named
/// by its gid, (client, id) of the client's request, and every client
/// request carries the client's signed floor. A log entry is truncated
/// once every participant acked it (it is *settled*) and its client's
/// floor has passed it, so no participant and no client can ask for it
/// again: the log holds in-flight transactions at any run length.
class TxnCoordinator : public sim::Actor {
 public:
  /// Resolves the current primary of a shard (tracks view changes).
  using ShardPrimaryResolver = std::function<ActorId(uint32_t shard)>;

  /// One durable decision-log entry. Both outcomes are stored — explicit
  /// and presumed aborts too — so a takeover's majority sync can see them
  /// and max-view conflict resolution has both outcomes to compare.
  struct DecisionRecord {
    bool commit = false;
    /// Dense decision sequence (0 for a logged presumed abort).
    uint64_t cseq = 0;
    /// Quorum proof for COMMITs: the signed YES shares of every
    /// participant shard. Kept in the log so
    /// re-answers to retried votes carry the same proof; truncated with
    /// the entry by watermark pruning.
    crypto::VoteCertificate proof;
    /// Coordinator-group view the entry was (last) replicated under.
    /// Per-gid conflicts between sync replies resolve by max view —
    /// safe because an acted-on decision is quorum-logged first and
    /// quorum intersection puts it in every later majority sync.
    uint64_t view = 0;
    /// Every shard the decision was sent to acked it under this member's
    /// leadership (a presumed abort is settled when logged: no shard acks
    /// it). Only a settled entry is ever truncated; an entry a leader
    /// adopted at takeover, or one the watermark passed unacked, stays.
    bool settled = false;
  };

  /// Receives every entry this member writes to its decision log, in
  /// write order: the durable trail of a deployment, whose log in memory
  /// truncates. It must touch neither the RNG nor the event order.
  using DecisionSink =
      std::function<void(const TxnKey& gid, const DecisionRecord& record)>;

  TxnCoordinator(ActorId id, const storage::ShardRouter* router,
                 std::vector<ActorId> shard_verifiers,
                 ShardPrimaryResolver primary, crypto::KeyRegistry* keys,
                 sim::Simulator* sim, sim::Network* net,
                 const CoordinatorOptions& options);

  void OnMessage(const sim::Envelope& env) override;

  /// Install before the run starts.
  void SetDecisionSink(DecisionSink sink) { decision_sink_ = std::move(sink); }

  /// Crash-stop / recover hook (fault engine). Crashing silences the
  /// actor; recovery wipes the volatile vote state but keeps the
  /// decision log — the classic 2PC stable-storage split. A recovering
  /// member rejoins as a follower, or restarts takeover if it is still
  /// the nominal leader of the current view (peers holding a higher view
  /// demote it through their replies; a group of one takes over at once).
  void SetCrashed(bool crashed);
  bool crashed() const { return crashed_; }

  // --- coordinator-group replication (DESIGN.md §10) ---
  /// Current group view; the leader of view v is group[v % |group|]
  /// (the shared CoordGroups::LeaderIndexAt rule).
  uint64_t view() const { return view_; }
  ActorId GroupLeader() const {
    return options_.group[CoordGroups::LeaderIndexAt(
        view_, static_cast<uint32_t>(options_.group.size()))];
  }
  bool IsGroupLeader() const { return GroupLeader() == id(); }
  /// A leader serves 2PC traffic only once its takeover sync +
  /// re-replication completed (member 0 starts synced at view 0).
  bool leader_synced() const { return leader_synced_; }
  /// View bumps this member performed or adopted.
  uint64_t view_changes() const { return view_changes_; }
  /// Unknown-gid presumed aborts that were quorum-logged before being
  /// answered (the durable answer is one no later leader can contradict).
  uint64_t presumed_aborts_logged() const { return presumed_aborts_logged_; }

  // --- gid partitioning (DESIGN.md §12) ---
  /// The group this member belongs to.
  uint32_t group_id() const { return options_.group_id; }
  /// Client requests for a gid owned by another group, forwarded there.
  uint64_t foreign_requests_forwarded() const {
    return foreign_requests_forwarded_;
  }
  /// Votes for a foreign group's gid, dropped (never presumed-aborted).
  uint64_t foreign_votes_dropped() const { return foreign_votes_dropped_; }

  // --- statistics / test evidence ---
  /// Cross-shard launches. A relaunch of the same global id (client
  /// retransmission after a crash wiped the volatile state) counts
  /// again — this meters coordination work, not distinct transactions;
  /// `decisions()` holds the distinct decided set.
  uint64_t txns_coordinated() const { return txns_coordinated_; }
  uint64_t commits_decided() const { return commits_decided_; }
  /// Explicit ABORT decisions (vote NO / vote timeout). Presumed-abort
  /// answers for unknown ids count in presumed_aborts_logged() instead.
  uint64_t aborts_decided() const { return aborts_decided_; }
  /// Logical prepare votes processed (one per share of a kShardVoteCert).
  uint64_t votes_received() const { return votes_received_; }
  /// kShardVoteCert messages accepted (sender guard + batch-verified).
  /// votes_received / vote_cert_msgs is the aggregation factor.
  uint64_t vote_cert_msgs() const { return vote_cert_msgs_; }
  /// Certificate messages dropped whole: a share failed the per-share
  /// sender guard or the batch signature verification.
  uint64_t vote_certs_rejected() const { return vote_certs_rejected_; }
  /// Durable decision log: every COMMIT and ABORT, each quorum-logged
  /// before it is acted on. A gid absent here is answered ABORT
  /// (presumed abort), after logging that answer too. A settled entry
  /// leaves once its client's floor passes it; a leader carries the gids
  /// it truncated on its next append or heartbeat, and each follower
  /// drops them too.
  const std::map<TxnKey, DecisionRecord>& decisions() const {
    return decisions_;
  }
  /// The highest floor this member learned for `client`: from the
  /// client's signed requests on a leader, from truncated gids and sync
  /// replies on the others. A request at or below it is never launched.
  TxnId client_floor(ActorId client) const {
    auto it = floors_.find(client);
    return it == floors_.end() ? 0 : it->second;
  }
  /// Fully-decided watermark: every decision with cseq <= this has been
  /// applied by all its participant shards.
  uint64_t watermark() const { return watermark_; }
  /// Log entries truncated here (settled and below the client's floor).
  uint64_t decisions_pruned() const { return decisions_pruned_; }
  /// Outstanding decisions the watermark advanced past without a full
  /// ack set (lost acks / ack-buffer overflow at a shard): their entries
  /// stay in the log, never settled — the safe direction — instead of
  /// stalling the watermark forever.
  uint64_t outstanding_expired() const { return outstanding_expired_; }
  /// Decisions sent but not yet covered by the watermark (bounded by
  /// in-flight traffic; the boundedness tests assert on it).
  size_t outstanding_decisions() const { return outstanding_.size(); }

 private:
  struct PendingTxn {
    std::vector<uint32_t> shards;
    /// This member's launch number, the id of every fragment it signed
    /// for the launch (0 on a pending rebuilt at takeover: another
    /// member launched it).
    TxnId launch = 0;
    /// Signed vote share by shard: an all-YES set becomes the COMMIT
    /// decision's quorum proof.
    std::map<uint32_t, crypto::VoteShare> votes;
    /// Signed fragment requests, kept for re-drive on client resend.
    /// Empty on a pending rebuilt from a replicated launch record after
    /// takeover (the shards already hold their fragments).
    std::vector<std::shared_ptr<const shim::ClientRequestMsg>> fragments;
    sim::EventId timer = 0;
    /// A quorum-fenced decision append is in flight for this transaction
    /// — late votes are ignored until FinishDecide runs.
    bool deciding = false;
  };

  /// Watermark bookkeeping for one decision awaiting participant acks.
  struct OutstandingDecision {
    TxnKey global_id;
    SimTime decided_at = 0;
    /// Shards the decision was sent to (the ack set must cover these).
    std::set<uint32_t> sent_to;
    std::set<uint32_t> acked;
  };

  /// One quorum-fenced group append awaiting follower acks. Regular
  /// decisions run FinishDecide on quorum; `presumed` entries answer a
  /// retried vote instead; `takeover` entries are re-replications of
  /// adopted log entries and only count down the takeover barrier.
  struct PendingAppend {
    TxnKey global_id;
    bool commit = false;
    uint64_t cseq = 0;
    crypto::VoteCertificate proof;
    /// Group member indices that acked, including self.
    std::set<uint32_t> acks;
    bool presumed = false;
    ActorId answer_to = kInvalidActor;
    bool takeover = false;
  };

  void HandleClientRequest(const sim::Envelope& env);
  /// The actual client-request path (serve / forward / park); split from
  /// the envelope handler so a parked request can be replayed verbatim
  /// once a serving leader exists.
  void ProcessClientRequest(const sim::MessagePtr& message,
                            const shim::ClientRequestMsg& msg);
  /// Guards every share's sender, batch-verifies the certificate once,
  /// then feeds each share through ProcessVote.
  void HandleVoteCert(const sim::Envelope& env);
  /// One shard's vote: answered from the log, presumed-aborted, or
  /// recorded (the share is retained for the quorum proof).
  void ProcessVote(const crypto::VoteShare& share, ActorId from);

  /// Splits `txn` into per-shard fragments (`shards` is its routed,
  /// sorted shard set), signs them, and submits each to its shard's
  /// current primary.
  void LaunchTxn(const workload::Transaction& txn,
                 std::vector<uint32_t> shards);
  void SendFragments(const PendingTxn& pending);
  void Decide(const TxnKey& global_id, bool commit);
  /// `proof` is the quorum certificate to attach (null / empty sends a
  /// proofless decision — aborts).
  void SendDecision(const TxnKey& global_id, bool commit, uint64_t cseq,
                    ActorId to, const crypto::VoteCertificate* proof);
  void RespondToClient(const TxnKey& global_id, bool commit);
  void OnVoteTimeout(const TxnKey& global_id);

  /// Applies the acks piggybacked on a vote, settles each fully-acked
  /// decision, and advances the watermark over the complete prefix of
  /// outstanding decisions.
  void RecordAcks(uint32_t shard, const std::vector<uint64_t>& cseqs);
  /// Raises `client`'s floor (a leader learns it from the client's
  /// signed requests) and truncates the settled entries it passes.
  void RaiseFloor(ActorId client, TxnId floor);
  /// Writes `record` to the decision log and the sink.
  std::map<TxnKey, DecisionRecord>::iterator LogDecision(
      const TxnKey& gid, const DecisionRecord& record);
  /// Truncates the entry when it is settled and its client's floor has
  /// passed it, and queues its gid for the followers.
  void MaybeTruncate(std::map<TxnKey, DecisionRecord>::iterator it);

  // --- coordinator-group internals ---
  uint32_t GroupMajority() const {
    return static_cast<uint32_t>(options_.group.size()) / 2 + 1;
  }
  /// Index of `a` in the group, or -1 when it is not a member.
  int GroupIndexOf(ActorId a) const;
  /// Stages a quorum-fenced decision append (self-acked), broadcasts it
  /// to the peers, and completes it at once if self is a majority.
  void AppendDecision(PendingAppend pa, const std::vector<uint32_t>* shards);
  /// Completes a staged append once it holds a majority of acks: runs
  /// FinishDecide, answers a presumed abort, or counts down takeover.
  void MaybeCommitAppend(uint64_t append_id);
  /// Sends one append to the peers; it also carries (and clears) the
  /// gids truncated since the previous one.
  void BroadcastAppend(uint64_t append_id, shim::CoordAppendMsg::Entry entry,
                       const TxnKey& global_id, bool commit, uint64_t cseq,
                       const crypto::VoteCertificate* proof,
                       const std::vector<uint32_t>* shards);
  void HandleAppend(const sim::Envelope& env);
  void HandleAppendAck(const sim::Envelope& env);
  void HandleSyncRequest(const sim::Envelope& env);
  void HandleSyncReply(const sim::Envelope& env);
  /// Second half of Decide: log (post-quorum), send shard decisions,
  /// track acks, answer the client, drop the pending record.
  void FinishDecide(const TxnKey& global_id, bool commit, uint64_t cseq,
                    const crypto::VoteCertificate& proof);
  /// Adopt a higher view observed on the wire and fall back to
  /// follower: clear leader-volatile state, re-arm the failover timer.
  void AdoptView(uint64_t view);
  /// Drops the leader-volatile state a crash and a step-down both lose:
  /// pending txns and their vote timers, watermark bookkeeping, staged
  /// appends, takeover progress, and the heartbeat / sync-retry timers.
  void ClearLeaderState();
  void ArmFailoverTimer();
  void OnFailoverTimeout();
  /// New-leader entry: broadcast sync requests and wait for a majority.
  void StartTakeover();
  /// Majority sync done: re-replicate every adopted entry at the
  /// current view (quorum barrier) before serving.
  void CompleteTakeover();
  /// Re-replication barrier cleared: rebuild pending txns from launch
  /// records, redirect the shard verifiers here, start heartbeats.
  void FinishTakeover();
  void SendHeartbeat();
  /// Parks a client request that currently has no serving leader (the
  /// presumed leader is a black hole mid-crash, and a mid-takeover
  /// leader serves nothing). Bounded: overflow drops the oldest entry —
  /// the client's own retransmission still covers it.
  void StashRequest(const sim::MessagePtr& message);
  /// Replays the parked requests at the first sign of a serving leader:
  /// locally when this member now serves, forwarded when another does.
  /// Without this, every request caught in the crash-to-takeover window
  /// costs its client a full retransmission timeout.
  void DrainStash();

  const storage::ShardRouter* router_;
  std::vector<ActorId> shard_verifiers_;
  ShardPrimaryResolver primary_;
  crypto::KeyRegistry* keys_;
  sim::Simulator* sim_;
  sim::Network* net_;
  CoordinatorOptions options_;

  bool crashed_ = false;
  /// Volatile 2PC state: lost on crash (presumed abort covers it).
  std::map<TxnKey, PendingTxn> pending_;
  /// Durable decision log: survives crashes. Clients learn decided
  /// outcomes from their own retransmission (the resend carries the
  /// transaction, so no client map needs to survive). Settled entries
  /// leave at their client's floor, so the log holds in-flight work.
  std::map<TxnKey, DecisionRecord> decisions_;
  DecisionSink decision_sink_;
  /// Durable, like the log it truncates: each client's floor.
  std::map<ActorId, TxnId> floors_;
  /// Leader: gids truncated since the last append or heartbeat.
  std::vector<TxnKey> truncated_;
  /// Durable launch counter: this member signs fragments as their
  /// client, and a launch's fragments take the next id. Kept across
  /// crashes so no fragment id is signed twice.
  TxnId next_launch_ = 1;
  /// Volatile: this member's launches still pending. The smallest one
  /// bounds the floor signed into its fragments.
  std::set<TxnId> open_launches_;

  // --- watermark state ---
  /// Dense decision counter. Durable (like the log): it must stay
  /// monotone across crashes so post-recovery watermark advances can
  /// confirm — by exceeding — every pre-crash cseq.
  uint64_t next_cseq_ = 1;
  /// Volatile: decisions awaiting full participant acks, cseq-ordered.
  std::map<uint64_t, OutstandingDecision> outstanding_;
  uint64_t watermark_ = 0;

  // --- coordinator-group state ---
  /// Current view; leader of view v is group[v % |group|]. Modeled as
  /// stable (survives crashes) like the decision log.
  uint64_t view_ = 0;
  /// True only on a leader whose takeover sync + re-replication barrier
  /// completed (member 0 starts true: it is the view-0 leader and the
  /// group starts with an empty log).
  bool leader_synced_ = false;
  /// Mid-takeover: sync requests are out, majority replies pending.
  bool syncing_ = false;
  uint64_t next_append_id_ = 0;
  std::map<uint64_t, PendingAppend> pending_appends_;
  /// Gids with an unknown-gid abort append in flight (dedup).
  std::set<TxnKey> inflight_aborts_;
  /// Member indices that answered the current takeover sync.
  std::set<uint32_t> sync_replies_;
  /// Best-effort replicated launch hints, gid -> participant shards: a
  /// standby rebuilds pending records from these at takeover so it can
  /// judge vote completeness and answer the client. Erased when the
  /// gid's decision lands; a lost launch degrades to presumed abort.
  std::map<TxnKey, std::vector<uint32_t>> launches_;
  uint32_t takeover_reappends_ = 0;
  /// Client requests parked while no serving leader is known (see
  /// StashRequest / DrainStash). FIFO, capped at kMaxStashedRequests.
  std::deque<sim::MessagePtr> stashed_requests_;
  static constexpr size_t kMaxStashedRequests = 256;
  SimTime last_leader_contact_ = 0;
  sim::EventId heartbeat_timer_ = 0;
  sim::EventId failover_timer_ = 0;
  sim::EventId sync_retry_timer_ = 0;
  uint64_t view_changes_ = 0;
  uint64_t presumed_aborts_logged_ = 0;

  // --- gid-partitioning state ---
  uint64_t foreign_requests_forwarded_ = 0;
  uint64_t foreign_votes_dropped_ = 0;

  uint64_t txns_coordinated_ = 0;
  uint64_t commits_decided_ = 0;
  uint64_t aborts_decided_ = 0;
  uint64_t votes_received_ = 0;
  uint64_t vote_cert_msgs_ = 0;
  uint64_t vote_certs_rejected_ = 0;
  uint64_t decisions_pruned_ = 0;
  uint64_t outstanding_expired_ = 0;
};

}  // namespace sbft::core

#endif  // SBFT_CORE_COORDINATOR_H_
