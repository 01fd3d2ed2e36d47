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
  /// Vote-collection timeout; expiry without all votes decides ABORT.
  SimDuration vote_timeout = Millis(1500);
  /// Retention of fully-acked decision entries before truncation (covers
  /// client retransmissions of lost responses).
  SimDuration decision_retention = Seconds(5);
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
/// participants ack applied cseqs on their next votes, the coordinator
/// advances a fully-decided watermark over the complete ack prefix,
/// piggybacks it on outgoing decisions, and truncates log entries below
/// it once the retention window (for late client retransmissions) has
/// passed — bounding the log by in-flight transactions instead of total
/// cross-shard count.
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
  };

  TxnCoordinator(ActorId id, const storage::ShardRouter* router,
                 std::vector<ActorId> shard_verifiers,
                 ShardPrimaryResolver primary, crypto::KeyRegistry* keys,
                 sim::Simulator* sim, sim::Network* net,
                 const CoordinatorOptions& options);

  void OnMessage(const sim::Envelope& env) override;

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
  /// before it is acted on. An id absent here is answered ABORT
  /// (presumed abort), after logging that answer too. Fully-acked
  /// entries below the watermark are truncated after the retention
  /// window.
  const std::map<TxnId, DecisionRecord>& decisions() const {
    return decisions_;
  }
  /// Fully-decided watermark: every decision with cseq <= this has been
  /// applied by all its participant shards.
  uint64_t watermark() const { return watermark_; }
  uint64_t decisions_pruned() const { return decisions_pruned_; }
  /// Outstanding decisions the watermark advanced past without a full
  /// ack set (lost acks / ack-buffer overflow at a shard): their COMMIT
  /// entries stay in the log unpruned — the safe direction — instead of
  /// stalling the watermark forever.
  uint64_t outstanding_expired() const { return outstanding_expired_; }
  /// Decisions sent but not yet covered by the watermark (bounded by
  /// in-flight traffic; the boundedness tests assert on it).
  size_t outstanding_decisions() const { return outstanding_.size(); }

  /// Deterministic fragment id for (global txn, shard): high bit tagged
  /// so fragment ids can never collide with client-generated txn ids.
  static TxnId FragmentId(TxnId global_id, uint32_t shard) {
    return (1ull << 63) | (global_id << 8) | (shard & 0xff);
  }

 private:
  struct PendingTxn {
    ActorId client = kInvalidActor;
    std::vector<uint32_t> shards;
    /// Signed vote share by shard: an all-YES set becomes the COMMIT
    /// decision's quorum proof.
    std::map<uint32_t, crypto::VoteShare> votes;
    /// Signed fragment requests, kept for re-drive on client resend.
    /// Empty on a pending rebuilt from a replicated launch record after
    /// takeover (the shards already hold their fragments).
    std::vector<std::shared_ptr<shim::ClientRequestMsg>> fragments;
    sim::EventId timer = 0;
    /// A quorum-fenced decision append is in flight for this transaction
    /// — late votes are ignored until FinishDecide runs.
    bool deciding = false;
  };

  /// Watermark bookkeeping for one decision awaiting participant acks.
  struct OutstandingDecision {
    TxnId global_id = 0;
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
    TxnId global_id = 0;
    bool commit = false;
    uint64_t cseq = 0;
    crypto::VoteCertificate proof;
    /// Group member indices that acked, including self.
    std::set<uint32_t> acks;
    bool presumed = false;
    ActorId answer_to = kInvalidActor;
    bool takeover = false;
  };

  /// Best-effort replicated launch hint {client, participant shards}: a
  /// standby rebuilds PendingTxn records from these at takeover so it
  /// can judge vote completeness and answer the client. Lost launches
  /// degrade safely to presumed abort.
  struct LaunchRecord {
    ActorId client = kInvalidActor;
    std::vector<uint32_t> shards;
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
  void Decide(TxnId global_id, bool commit);
  /// `proof` is the quorum certificate to attach (null / empty sends a
  /// proofless decision — aborts).
  void SendDecision(TxnId global_id, bool commit, uint64_t cseq,
                    ActorId to, const crypto::VoteCertificate* proof);
  void RespondToClient(TxnId global_id, ActorId client, bool commit);
  void OnVoteTimeout(TxnId global_id);

  /// Applies the acks piggybacked on a vote and advances the watermark
  /// over the complete prefix of outstanding decisions.
  void RecordAcks(uint32_t shard, const std::vector<uint64_t>& cseqs);
  /// Truncates fully-acked log entries whose retention has passed.
  void PruneDecisions();

  // --- coordinator-group internals ---
  uint32_t GroupMajority() const {
    return static_cast<uint32_t>(options_.group.size()) / 2 + 1;
  }
  /// Index of `a` in the group, or -1 when it is not a member.
  int GroupIndexOf(ActorId a) const;
  /// Stages a quorum-fenced decision append (self-acked), broadcasts it
  /// to the peers, and completes it at once if self is a majority.
  void AppendDecision(PendingAppend pa, ActorId client,
                      const std::vector<uint32_t>* shards);
  /// Completes a staged append once it holds a majority of acks: runs
  /// FinishDecide, answers a presumed abort, or counts down takeover.
  void MaybeCommitAppend(uint64_t append_id);
  void BroadcastAppend(uint64_t append_id, shim::CoordAppendMsg::Entry entry,
                       TxnId global_id, bool commit, uint64_t cseq,
                       const crypto::VoteCertificate* proof,
                       ActorId client,
                       const std::vector<uint32_t>* shards);
  void HandleAppend(const sim::Envelope& env);
  void HandleAppendAck(const sim::Envelope& env);
  void HandleSyncRequest(const sim::Envelope& env);
  void HandleSyncReply(const sim::Envelope& env);
  /// Second half of Decide: log (post-quorum), send shard decisions,
  /// track acks, answer the client, drop the pending record.
  void FinishDecide(TxnId global_id, bool commit, uint64_t cseq,
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
  std::map<TxnId, PendingTxn> pending_;
  /// Durable decision log: survives crashes. Clients learn decided
  /// outcomes from their own retransmission (the resend carries the
  /// transaction, so no client map needs to survive). The watermark
  /// bounds the log by in-flight transactions plus the retention window.
  std::map<TxnId, DecisionRecord> decisions_;

  // --- watermark state ---
  /// Dense decision counter. Durable (like the log): it must stay
  /// monotone across crashes so post-recovery watermark advances can
  /// confirm — by exceeding — every pre-crash cseq.
  uint64_t next_cseq_ = 1;
  /// Volatile: decisions awaiting full participant acks, cseq-ordered.
  std::map<uint64_t, OutstandingDecision> outstanding_;
  uint64_t watermark_ = 0;
  /// Fully-acked decisions waiting out the retention window, cseq order.
  std::deque<std::pair<SimTime, TxnId>> retention_queue_;

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
  std::set<TxnId> inflight_aborts_;
  /// Member indices that answered the current takeover sync.
  std::set<uint32_t> sync_replies_;
  /// Replicated launch hints, erased when the gid's decision lands.
  std::map<TxnId, LaunchRecord> launches_;
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
