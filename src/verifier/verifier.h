#ifndef SBFT_VERIFIER_VERIFIER_H_
#define SBFT_VERIFIER_VERIFIER_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/client_floor.h"
#include "core/coord_group.h"
#include "core/lock_table.h"
#include "crypto/keys.h"
#include "shim/message.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "storage/audit_log.h"
#include "storage/kv_store.h"

namespace sbft::verifier {

/// Parameters of the verifier V. These defaults are the only ones:
/// core::SystemConfig takes its verifier fields from here.
struct VerifierConfig {
  /// Byzantine executor bound f_E.
  uint32_t f_e = 1;
  /// Shim commit quorum 2f_R+1, for validating certificates in VERIFY.
  uint32_t shim_quorum = 3;
  /// Unknown-read-write-set mode (§VI-B): activates the abort timer and
  /// the |V|-threshold byzantine-abort rules.
  bool conflicts_possible = false;
  /// Verifier timer τ_m for abort detection (§VI-B).
  SimDuration match_timeout = Millis(700);
  /// Shard-plane index this verifier serves (sharded data plane).
  uint32_t shard = 0;
  /// Per-key FIFO cap for transactions queueing behind a 2PC prepare
  /// lock. A full queue (or a cap of 0) falls back to the abort rule.
  /// Queueing is deadlock-free because prepare locks are only held
  /// between vote and decision and waiters hold no locks.
  uint32_t prepare_lock_queue_depth = 8;
  /// Coordinator topology (DESIGN.md §10/§12): G gid-partitioned groups
  /// of R members each (default one group of one). Decisions must come
  /// from a member of the gid's own group, and per-group leader hints
  /// (view-stamped decisions and kCoordRedirect) re-aim that group's
  /// vote retransmits — one group's failover never moves another
  /// group's votes.
  core::CoordGroups coord_groups;
};

/// \brief The trusted verifier V: a lightweight wrapper around the
/// on-premise data store (paper §IV-D, Fig. 3 verifier role, Fig. 4,
/// §VI-B).
///
/// Responsibilities:
///  - collect well-formed VERIFY messages and match f_E+1 identical votes
///    per transaction;
///  - enforce shim order through the k_max cursor and the π list;
///  - run the concurrency-control check (read versions current) and apply
///    write sets to the store;
///  - answer clients (RESPONSE), notify the primary, and append to the
///    hash-chained audit log;
///  - detect byzantine aborts with the τ_m timer (REPLACE / ABORT rules);
///  - resist flooding by ignoring VERIFYs for already-matched sequences;
///  - drive the Fig. 4 retransmission protocol (ERROR / REPLACE / ACK);
///  - act as 2PC participant for cross-shard fragments (prepare locks in
///    the shared core::LockTable, votes, decisions, bounded queueing).
class Verifier : public sim::Actor {
 public:
  Verifier(ActorId id, const VerifierConfig& config,
           storage::KvStore* store, crypto::KeyRegistry* keys,
           sim::Simulator* sim, sim::Network* net,
           std::vector<ActorId> shim_nodes);

  void OnMessage(const sim::Envelope& env) override;

  /// Sequence number of the next request to be verified (paper's k_max).
  SeqNum kmax() const { return kmax_; }

  /// Hash-chained log of settled sequences. It keeps the newest
  /// AuditLog::kRetained entries; VerifyChain() and head() still cover
  /// the whole history, which SetLogSinks streams out.
  const storage::AuditLog& audit_log() const { return audit_log_; }

  /// Streams every entry of audit_log() to `audit` and of decision_log()
  /// to `decisions`, in append order: the durable trail of a deployment.
  /// Install before the run starts. A sink must touch neither the RNG
  /// nor the event order.
  void SetLogSinks(storage::AuditLog::Sink audit,
                   storage::AuditLog::Sink decisions) {
    audit_log_.set_sink(std::move(audit));
    decision_log_.set_sink(std::move(decisions));
  }

  // --- statistics ---
  uint64_t applied_batches() const { return applied_batches_; }
  uint64_t applied_txns() const { return applied_txns_; }
  uint64_t aborted_batches() const { return aborted_batches_; }
  uint64_t aborted_txns() const { return aborted_txns_; }
  uint64_t flooding_ignored() const { return flooding_ignored_; }
  uint64_t rejected_verifies() const { return rejected_verifies_; }
  uint64_t replace_broadcasts() const { return replace_broadcasts_; }
  uint64_t error_broadcasts() const { return error_broadcasts_; }
  uint64_t responses_sent() const { return responses_sent_; }
  /// Distinct votes the quorums of pending sequence `seq` hold. A
  /// sequence matched by quorum holds none: only its winners stay.
  size_t votes_held(SeqNum seq) const;
  /// Outcome records held for client retransmissions: per client, the
  /// transactions above its floor whose quorum matched here.
  size_t txn_records() const { return txn_records_.size(); }
  /// The highest floor a matched ref carried for `client`.
  TxnId client_floor(ActorId client) const {
    return txn_records_.floor(client);
  }

  // --- cross-shard 2PC (sharded data plane) ---
  uint64_t twopc_votes_yes() const { return twopc_votes_yes_; }
  uint64_t twopc_votes_no() const { return twopc_votes_no_; }
  uint64_t twopc_committed() const { return twopc_committed_; }
  uint64_t twopc_aborted() const { return twopc_aborted_; }
  /// kShardVoteCert messages sent. The ratio of votes cast to
  /// certificates sent is the aggregation factor.
  uint64_t vote_certs_sent() const { return vote_certs_sent_; }
  /// COMMIT decisions dropped for a missing or invalid quorum proof (the
  /// vote retry re-solicits).
  uint64_t decisions_rejected() const { return decisions_rejected_; }
  size_t prepare_locks_held() const { return prepare_locks_.size(); }
  /// The shared lock table holding this shard's 2PC prepare locks. The
  /// spawner's conflict-avoidance stage reads it to avoid proposing
  /// batches that would collide with in-flight fragments.
  const core::LockTable* prepare_lock_table() const {
    return &prepare_locks_;
  }
  /// Invoked after prepare locks are released by a decision (the spawner
  /// re-drives its lock stage from here).
  void SetLockReleaseCallback(std::function<void()> cb) {
    lock_release_callback_ = std::move(cb);
  }

  /// A gid as the key of the 2PC outcome maps. It orders and compares as
  /// the whole (client, id); where a number is wanted, as when a report
  /// prints it with std::to_string, it reads as the bare id.
  struct OutcomeKey : TxnKey {
    operator TxnId() const { return id; }
  };
  using OutcomeMap = std::map<OutcomeKey, uint64_t, std::less<>>;
  /// Gids this shard applied / aborted a fragment write set for, each
  /// with the coordinator decision sequence (cseq; 0 when the outcome was
  /// a presumed-abort answer). Both maps are truncated at the
  /// coordinator's fully-decided watermark, bounding them by in-flight
  /// transactions instead of total cross-shard count; decision_log()
  /// chains the full history.
  const OutcomeMap& applied_global() const { return applied_global_; }
  const OutcomeMap& aborted_global() const { return aborted_global_; }
  /// Hash-chained log of 2PC decisions applied at this shard (chained
  /// separately from the batch audit log, which stays byte-compatible
  /// with single-plane runs), one entry per decision from seq 1; each
  /// entry's txn digest is Sha256 over the gid: its id as little-endian
  /// u64, then its client as little-endian u32.
  /// Like audit_log(), it keeps a bounded suffix in memory, its chain
  /// covers the whole history, and the whole history goes to the sink
  /// SetLogSinks installs.
  const storage::AuditLog& decision_log() const { return decision_log_; }

  // --- prepare-lock queueing statistics ---
  size_t lock_waiters() const { return lock_waiters_.size(); }
  uint32_t lock_queue_peak_depth() const {
    return prepare_locks_.peak_queue_depth();
  }
  uint64_t lock_waits_queued() const { return lock_waits_queued_; }
  uint64_t lock_waits_applied() const { return lock_waits_applied_; }
  uint64_t lock_waits_aborted() const { return lock_waits_aborted_; }
  /// Fragment waiters that left the queue into their prepare/vote step.
  uint64_t lock_waits_voted() const { return lock_waits_voted_; }
  /// Applied-decision acks dropped to the buffer cap before the
  /// coordinator's watermark confirmed them (watermark lag indicator).
  uint64_t acks_dropped() const { return acks_dropped_; }

 private:
  /// Per-sequence match state (the set V of Fig. 3). The paper matches
  /// each request separately (§VI), so every VERIFY votes once per
  /// transaction, and only in the quorums of its own batch shape
  /// (transaction count): a VERIFY claiming another shape can neither
  /// size nor fill the quorums the honest ones vote in. Once every
  /// quorum of a shape has a winner, the state keeps only those winners
  /// while it waits in π: no other shape, vote list, sample or sender.
  struct SeqState {
    /// One distinct vote (see SameVote): the first VERIFY that cast it,
    /// and how many did.
    struct Vote {
      std::shared_ptr<const shim::VerifyMsg> first;
      uint32_t count = 0;
    };
    /// One transaction's quorum: its distinct votes, and the VERIFY whose
    /// vote reached f_E+1 (null until then).
    struct TxnQuorum {
      std::vector<Vote> votes;
      std::shared_ptr<const shim::VerifyMsg> winner;
    };
    /// The quorums of one shape: one per transaction, or a single one on
    /// digest and result for an empty batch (a view-change null request).
    struct Shape {
      std::vector<TxnQuorum> txns;
      size_t matched = 0;   // Quorums with a winner.
      uint32_t senders = 0;
      std::shared_ptr<const shim::VerifyMsg> sample;  // Latest VERIFY.
    };
    std::map<size_t, Shape> shapes;  // Keyed by transaction count.
    std::set<ActorId> senders;
    sim::EventId timer = 0;
    /// Every quorum of `shape` matched, or τ_m fired with |V| >= 2f_E+1
    /// and the unmatched quorums of `shape` abort (§VI-B).
    bool matched = false;
    size_t shape = 0;  // The shape that settles, once matched.
  };

  /// Outcome record kept per transaction for client retransmissions,
  /// keyed by (client, id) above the client's floor.
  struct TxnRecord {
    SeqNum seq = 0;
    bool responded = false;
    bool aborted = false;
  };

  /// One cross-shard fragment between PREPARE-vote and decision: the
  /// buffered write set (the keys it prepare-locks live in the shared
  /// lock table under `lock_owner`).
  struct PreparedFragment {
    storage::RwSet rw;
    SeqNum seq = 0;
    shim::VerifyMsg::TxnRef ref;
    /// This fragment's owner id in the prepare-lock table, dense from 1
    /// (0 owns nothing).
    core::LockTable::Owner lock_owner = 0;
    bool vote_commit = false;
    /// Memoized share signature: the vote is immutable once cast, so
    /// retries re-send the same signature instead of re-signing.
    Bytes vote_sig;
    sim::EventId retry_timer = 0;
    /// Current vote-retry interval; doubles per retry up to a cap.
    /// Retries never stop: a prepare lock may only be released by a
    /// coordinator decision, so the fragment must keep soliciting one
    /// for as long as the coordinator might recover.
    SimDuration retry_interval = 0;
  };

  /// A transaction parked behind a prepare lock (bounded FIFO queueing):
  /// a plain transaction waiting to apply or a fragment waiting to run
  /// its prepare/vote step. Owns copies of everything its settle step
  /// reads: the VERIFY that carried it is gone by release time.
  struct LockWaiter {
    shim::VerifyMsg::TxnRef ref;
    storage::RwSet rw;
    SeqNum seq = 0;
    crypto::Digest batch_digest;
    Bytes result;
    /// Key this waiter is currently parked on. Re-parking on the same
    /// key (its next holder came from the same drain) is free; only a
    /// hop to a *different* key burns the budget below — re-parks on
    /// one key are already bounded by the queue-depth cap.
    std::string waiting_key;
    uint32_t requeues_left = 0;
  };
  /// Parked transactions by waiter id (ids are handed to the lock
  /// table's FIFO queues).
  using LockWaiters = std::unordered_map<uint64_t, LockWaiter>;

  /// Per-coordinator-group 2PC bookkeeping (DESIGN.md §12). Groups
  /// assign decision sequence numbers (cseq) independently, so the ack
  /// deque and the cseq-ordered prune index must be per group — a
  /// group-1 ack confirmed against group 0's cseq space would falsely
  /// acknowledge (and falsely prune) a different group's decision.
  struct CoordGroupState {
    /// Highest group view observed (view-stamped decisions and
    /// kCoordRedirect) and the leader it named. kInvalidActor until the
    /// first group signal — votes then fall back to the fragment's
    /// launching coordinator.
    uint64_t view = 0;
    ActorId leader = kInvalidActor;
    /// cseq-ordered index over applied_global_/aborted_global_, so
    /// watermark pruning is a prefix erase instead of a scan.
    std::map<uint64_t, std::pair<TxnKey, bool>> decided_by_cseq;
    /// Decision cseqs applied here but not yet confirmed (by a
    /// piggybacked watermark >= cseq); re-sent on every outgoing vote
    /// to this group. Bounded.
    std::deque<uint64_t> unconfirmed_acks;
  };

  void HandleVerify(const sim::Envelope& env);
  void HandleClientResend(const sim::Envelope& env);
  void HandleDecision(const sim::Envelope& env);
  /// Coordinator-group leader change: update that group's leader hint
  /// and re-send its standing votes there immediately (batched into
  /// certificates) instead of waiting out the capped retry backoff.
  void HandleCoordRedirect(const sim::Envelope& env);
  /// The gid's owning group's bookkeeping.
  CoordGroupState& GroupStateOf(const TxnKey& gid) {
    return coord_groups_[config_.coord_groups.GroupOf(gid) %
                         coord_groups_.size()];
  }
  const CoordGroupState& GroupStateOf(const TxnKey& gid) const {
    return coord_groups_[config_.coord_groups.GroupOf(gid) %
                         coord_groups_.size()];
  }
  /// The group a vote-certificate target belongs to (targets are always
  /// members of the buffered gids' own group; see CoordTarget).
  uint32_t GroupOfTarget(ActorId coordinator) const {
    return config_.coord_groups.IsMember(coordinator)
               ? config_.coord_groups.GroupOfMember(coordinator)
               : 0;
  }
  /// Where this shard's votes go: the gid's group's learned leader if
  /// any, otherwise the fragment's launching coordinator.
  ActorId CoordTarget(const PreparedFragment& frag) const {
    ActorId leader = GroupStateOf(frag.ref.global_id).leader;
    return leader != kInvalidActor ? leader : frag.ref.coordinator;
  }

  /// A plain transaction's quorum matched on `ref` at `seq`: learn the
  /// client's floor from it and keep the transaction's outcome record.
  /// Only matched refs get here, so an unvouched ref can neither raise a
  /// floor nor leave a record.
  void RecordMatchedRef(const shim::VerifyMsg::TxnRef& ref, SeqNum seq);

  /// Drains validated/aborted sequences in k_max order (Fig. 3 lines
  /// 24-29 + ccheck).
  void ProcessInOrder();

  /// Settles sequence `seq`: runs SettleTxn for each transaction of the
  /// settled shape (a quorum's winner supplies the transaction's ref and
  /// set; an unmatched quorum settles with no set, as an abort), then
  /// applies the batch-outcome rule: the batch is alive iff it is empty
  /// or any transaction applied, parked, or stands at a YES vote.
  void Settle(SeqNum seq, const SeqState& state);

  /// THE settle step, one transaction at a time, for a transaction of a
  /// settled batch and for one drained from a prepare-lock queue alike.
  /// While it may wait, a transaction blocked by a foreign prepare lock
  /// parks (Park); otherwise a fragment runs PrepareFragment and a plain
  /// transaction is cchecked, applied or aborted, and answered. `rw` is
  /// null for a transaction with no executable outcome (its quorum was
  /// unmatched when τ_m fired). `drained` is the node of the waiter the
  /// arguments belong to, null for a fresh transaction. Returns whether
  /// the transaction applied, parked, or stands at a YES vote.
  bool SettleTxn(SeqNum seq, const shim::VerifyMsg::TxnRef& ref,
                 const storage::RwSet* rw, const crypto::Digest& digest,
                 const Bytes& result, LockWaiters::node_type* drained);

  /// 2PC phase 1 at this shard: ccheck + prepare-lock the fragment, then
  /// vote to the coordinator; with no `rw` it votes NO. Returns whether
  /// the fragment's standing vote is YES (for duplicates: the recorded
  /// vote / applied outcome), which is what batch-outcome accounting
  /// keys on.
  bool PrepareFragment(SeqNum seq, const shim::VerifyMsg::TxnRef& ref,
                       const storage::RwSet* rw);
  void SendVote(const TxnKey& global_id, PreparedFragment& frag);
  /// Flushes the shares buffered by SendVote during a batched section
  /// (settle loop, decision-drain) as one kShardVoteCert message per
  /// coordinator. No-op when nothing is buffered.
  void FlushVoteCerts();
  void ApplyDecision(const TxnKey& global_id, bool commit, uint64_t cseq,
                     uint64_t watermark);
  /// First key of `rw` prepare-locked by an owner other than `self`
  /// (nullptr when unblocked); 0 for a transaction that holds no locks.
  const std::string* FirstBlockedKey(const storage::RwSet& rw,
                                     core::LockTable::Owner self) const;

  // --- prepare-lock queueing ---
  /// Parks a transaction behind `key`: a fresh one as a new waiter with
  /// the full hop budget, a `drained` one again (free on the key it just
  /// left, one hop on another), moving its node back into the table.
  /// False when the park is refused (a queue depth of 0, a full queue or
  /// a spent budget): the caller then settles the transaction at once,
  /// which is the abort-on-lock rule.
  bool Park(const std::string& key, SeqNum seq,
            const shim::VerifyMsg::TxnRef& ref, const storage::RwSet& rw,
            const crypto::Digest& digest, const Bytes& result,
            LockWaiters::node_type* drained);
  /// Runs SettleTxn for every waiter parked on `key`, in FIFO order.
  void DrainLockWaiters(const std::string& key);

  /// Records a decided global id (and watermark-prunes the maps).
  void RecordGlobalOutcome(const TxnKey& global_id, bool applied,
                           uint64_t cseq);
  /// Prunes one group's dedup maps at that group's watermark.
  void PruneAtWatermark(CoordGroupState& gs, uint64_t watermark);

  void SendOneResponse(const shim::VerifyMsg::TxnRef& ref, SeqNum seq,
                       const crypto::Digest& digest, bool aborted,
                       const Bytes& result);
  void NotifyPrimary(SeqNum seq, const crypto::Digest& digest, bool aborted);
  void StartAbortTimer(SeqNum seq);
  void OnAbortTimer(SeqNum seq);
  /// Sends `msg` to every shim node; the wire size is the message's
  /// counted WireSize(), taken once for the whole fan-out.
  void BroadcastToShim(const shim::MessagePtr& msg);
  void MaybeSendAcks();

  VerifierConfig config_;
  storage::KvStore* store_;
  crypto::KeyRegistry* keys_;
  sim::Simulator* sim_;
  sim::Network* net_;
  std::vector<ActorId> shim_nodes_;

  SeqNum kmax_ = 1;
  std::map<SeqNum, SeqState> pending_;  // Includes the π list (matched
                                        // entries waiting for k_max).
  FloorTable<TxnRecord> txn_records_;
  storage::AuditLog audit_log_;
  ViewNum last_seen_view_ = 0;  // For routing primary notifications.

  // Fig. 4 ACK bookkeeping: gap sequences and missing txns we promised to
  // acknowledge once resolved.
  std::set<SeqNum> pending_gap_acks_;
  std::map<TxnKey, crypto::Digest> pending_txn_acks_;

  // --- cross-shard 2PC state ---
  /// Shared lock table: prepare locks keyed by each prepared fragment's
  /// lock owner, plus the bounded per-key waiter queues.
  core::LockTable prepare_locks_;
  core::LockTable::Owner next_lock_owner_ = 1;
  std::map<TxnKey, PreparedFragment> prepared_;
  OutcomeMap applied_global_;
  OutcomeMap aborted_global_;
  /// Bounded dedup window for presumed-abort answers (cseq 0: nothing to
  /// prune them against). Global: presumed answers carry no cseq, so no
  /// group's watermark is involved.
  std::deque<TxnKey> presumed_order_;
  storage::AuditLog decision_log_;
  SeqNum decision_seq_ = 0;
  std::function<void()> lock_release_callback_;
  LockWaiters lock_waiters_;
  /// Global ids with a parked fragment waiter, so duplicate fragment
  /// instances never queue twice.
  std::set<TxnKey> queued_fragment_gids_;
  uint64_t next_waiter_id_ = 1;
  /// Per-group hint/ack/prune state, indexed by coordinator group id
  /// (size >= 1; index 0 is the whole state when groups == 1).
  std::vector<CoordGroupState> coord_groups_;
  /// Shares accumulated during a batched section, keyed by coordinator;
  /// FlushVoteCerts drains them. Outside a batched section SendVote
  /// flushes immediately (retry timers fire one share at a time).
  std::map<ActorId, crypto::VoteCertificate> vote_cert_buffer_;
  /// True while a settle round (or decision drain) batches votes.
  bool vote_batching_ = false;

  uint64_t twopc_votes_yes_ = 0;
  uint64_t twopc_votes_no_ = 0;
  uint64_t twopc_committed_ = 0;
  uint64_t twopc_aborted_ = 0;
  uint64_t vote_certs_sent_ = 0;
  uint64_t decisions_rejected_ = 0;
  uint64_t lock_waits_queued_ = 0;
  uint64_t lock_waits_applied_ = 0;
  uint64_t lock_waits_aborted_ = 0;
  uint64_t lock_waits_voted_ = 0;
  uint64_t acks_dropped_ = 0;

  uint64_t applied_batches_ = 0;
  uint64_t applied_txns_ = 0;
  uint64_t aborted_batches_ = 0;
  uint64_t aborted_txns_ = 0;
  uint64_t flooding_ignored_ = 0;
  uint64_t rejected_verifies_ = 0;
  uint64_t replace_broadcasts_ = 0;
  uint64_t error_broadcasts_ = 0;
  uint64_t responses_sent_ = 0;
};

/// \brief Front-end actor of the on-premise store: serves executor read
/// requests (Fig. 3 lines 17-18). Executors have read-only access; writes
/// go exclusively through the Verifier.
class StorageActor : public sim::Actor {
 public:
  StorageActor(ActorId id, storage::KvStore* store, sim::Network* net);

  void OnMessage(const sim::Envelope& env) override;

  uint64_t read_requests() const { return read_requests_; }

 private:
  storage::KvStore* store_;
  sim::Network* net_;
  uint64_t read_requests_ = 0;
};

}  // namespace sbft::verifier

#endif  // SBFT_VERIFIER_VERIFIER_H_
