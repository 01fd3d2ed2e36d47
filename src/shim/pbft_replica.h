#ifndef SBFT_SHIM_PBFT_REPLICA_H_
#define SBFT_SHIM_PBFT_REPLICA_H_

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/client_floor.h"
#include "crypto/keys.h"
#include "shim/message.h"
#include "shim/shim_config.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace sbft::shim {

/// How replicas cast and collect their prepare and commit votes.
enum class VotePattern : uint8_t {
  /// PBFT: every node broadcasts a MAC'd PREPARE and a DS-signed COMMIT
  /// to every other node — O(n^2) messages per sequence.
  kAllToAll,
  /// Linear, PoE/SBFT style (the paper's §IV-B remark): backups send
  /// DS-signed LINEAR_VOTEs to the primary, which relays 2f+1 of them as
  /// a LINEAR_CERT per phase — O(n) messages per sequence. The commit
  /// certificate is the same C the all-to-all pattern assembles.
  kCollector,
};

/// \brief One shim node running PBFT (paper §IV-B, Fig. 3).
///
/// The replica orders client transactions into batches via the standard
/// three-phase protocol, pipelines multiple sequence numbers, runs the
/// view-change protocol on the §V-A timers, exchanges featherweight
/// checkpoints (§V-B), and reacts to the verifier's ERROR/REPLACE/ACK
/// control messages (Fig. 4). The VotePattern only decides how the
/// prepare and commit votes travel; everything else is shared. Execution
/// is *not* done here: when a batch commits, the commit callback hands
/// (seq, batch, certificate) to the spawner installed by
/// core::Architecture.
class PbftReplica : public sim::Actor {
 public:
  /// Fired exactly once per committed sequence number on every honest
  /// node, in arbitrary seq order (pipelined consensus).
  using CommitCallback = std::function<void(
      SeqNum seq, ViewNum view, const workload::BatchPtr& batch,
      const crypto::CommitCertificate& cert)>;

  /// Fired when the verifier signals (via ERROR(kmax)) that executors for
  /// an already-committed sequence must be re-spawned.
  using RespawnCallback = std::function<void(SeqNum seq)>;

  /// Fired when a RESPONSE reaches this node — from the verifier, it
  /// notifies a validated sequence (Fig. 3 line 33) and releases §VI-C
  /// locks. `from` is the envelope's sender: the observer must check it.
  using ResponseObserver =
      std::function<void(ActorId from, const ResponseMsg& msg)>;

  /// `index` is the node's position in `peers` (identifier 0..n-1, §IV-B);
  /// the primary of view v is peers[v mod n]. The node starts honest.
  PbftReplica(ActorId id, uint32_t index, const ShimConfig& config,
              std::vector<ActorId> peers, crypto::KeyRegistry* keys,
              sim::Simulator* sim, sim::Network* net,
              VotePattern pattern = VotePattern::kAllToAll);

  void OnMessage(const sim::Envelope& env) override;

  void SetCommitCallback(CommitCallback cb) { commit_cb_ = std::move(cb); }
  void SetRespawnCallback(RespawnCallback cb) { respawn_cb_ = std::move(cb); }
  void SetResponseObserver(ResponseObserver cb) {
    response_observer_ = std::move(cb);
  }

  /// True when this node is the primary of the current view.
  bool IsPrimary() const;
  ViewNum view() const { return view_; }
  uint32_t index() const { return index_; }

  /// Submits a transaction directly (used by NewView re-proposals and
  /// tests; normal flow arrives as ClientRequestMsg).
  void SubmitTransaction(const workload::Transaction& txn);

  /// True if this node has committed sequence `seq`.
  bool HasCommitted(SeqNum seq) const;

  /// Runtime crash-stop toggle (fault engine): while crashed the replica
  /// drops every message and its timers take no action. On recovery the
  /// node catches up through featherweight checkpoints (§V-B).
  void SetCrashed(bool crashed) { crashed_ = crashed; }
  bool crashed() const { return crashed_; }

  /// Replaces the byzantine behaviour (fault engine); pass a
  /// default-constructed ByzantineBehavior to return the node to honesty.
  /// The node's spawner reads it at every commit.
  void SetBehavior(const ByzantineBehavior& behavior) {
    behavior_ = behavior;
  }
  const ByzantineBehavior& behavior() const { return behavior_; }

  /// Digest this node committed at `seq` (empty optional otherwise).
  std::optional<crypto::Digest> CommittedDigest(SeqNum seq) const;

  // --- statistics ---
  uint64_t committed_batches() const { return committed_batches_; }
  uint64_t committed_txns() const { return committed_txns_; }
  uint64_t view_changes() const { return view_changes_completed_; }
  uint64_t checkpoints_taken() const { return checkpoints_taken_; }
  uint64_t dark_recoveries() const { return dark_recoveries_; }
  /// Client requests remembered for dedup (above each client's floor).
  size_t seen_txns() const { return seen_txns_.size(); }
  SeqNum stable_seq() const { return stable_seq_; }

 private:
  struct Slot {
    ViewNum view = 0;
    crypto::Digest digest;
    workload::BatchPtr batch = workload::EmptyBatch();
    bool have_preprepare = false;
    bool prepared = false;
    bool committed = false;
    /// Prepare votes by sender. Only the collector pattern signs them
    /// (its primary relays the signatures as the prepare certificate).
    std::map<ActorId, Bytes> prepares;
    std::map<ActorId, Bytes> commit_sigs;
    crypto::CommitCertificate cert;  // Valid once committed.
    sim::EventId request_timer = 0;
  };

  // --- message handlers ---
  void HandleClientRequest(const sim::Envelope& env);
  void HandlePrePrepare(const sim::Envelope& env);
  void HandlePrepare(const sim::Envelope& env);
  void HandleCommit(const sim::Envelope& env);
  void HandleLinearVote(const sim::Envelope& env);
  void HandleLinearCert(const sim::Envelope& env);
  void HandleError(const sim::Envelope& env);
  void HandleReplace(const sim::Envelope& env);
  void HandleAck(const sim::Envelope& env);
  void HandleViewChange(const sim::Envelope& env);
  void HandleNewView(const sim::Envelope& env);
  void HandleCheckpoint(const sim::Envelope& env);

  // --- primary logic ---
  void MaybeProposeBatch();
  /// Proposes the first `count` pending transactions, moved into a batch.
  void ProposeBatch(size_t count);
  void ScheduleBatchFlush();

  // --- consensus helpers ---
  Slot& GetSlot(SeqNum seq);
  /// Records the primary's own prepare for a slot it just proposed.
  void AddOwnPrepare(SeqNum seq);
  /// A backup accepted the proposal in `seq`'s slot: cast its prepare.
  void CastPrepare(SeqNum seq);
  void SendLinearVote(SeqNum seq, LinearPhase phase);
  void RelayLinearCert(LinearPhase phase, crypto::CommitCertificate cert);
  /// The first 2f+1 of `votes`, as a certificate for `seq`'s slot.
  crypto::CommitCertificate QuorumCert(
      SeqNum seq, const std::map<ActorId, Bytes>& votes) const;
  void TryPrepare(SeqNum seq);
  void TryCommit(SeqNum seq);
  void OnCommitted(SeqNum seq);
  void StartRequestTimer(SeqNum seq);
  void CancelRequestTimer(SeqNum seq);

  // --- view change ---
  void StartViewChange(ViewNum target);
  void MaybeCompleteViewChange(ViewNum target);
  void EnterView(ViewNum view);
  /// Hands queued transactions to the new primary after a view change
  /// (backups only) so they cannot starve under view-change churn.
  void ForwardPendingToPrimary();

  // --- checkpoints ---
  void MaybeTakeCheckpoint();
  void AdoptCertificate(const crypto::CompactCertificate& cert,
                        const PreparedProof& proof);

  ActorId PrimaryOf(ViewNum view) const;
  /// Sends `msg` to every other replica; the wire size is the message's
  /// counted WireSize(), taken once for the whole fan-out.
  void BroadcastToPeers(const MessagePtr& msg);

  ShimConfig config_;
  uint32_t index_;
  std::vector<ActorId> peers_;
  crypto::KeyRegistry* keys_;
  sim::Simulator* sim_;
  sim::Network* net_;
  ByzantineBehavior behavior_;
  VotePattern pattern_;
  bool crashed_ = false;  // Runtime crash-stop (fault engine).

  ViewNum view_ = 0;
  SeqNum next_seq_ = 1;         // Next sequence the primary assigns.
  SeqNum stable_seq_ = 0;       // Last checkpoint-stable sequence.
  std::map<SeqNum, Slot> slots_;

  // Primary batching.
  std::deque<workload::Transaction> pending_;
  /// Seen requests, keyed by (client, id) above each client's floor.
  FloorTable<> seen_txns_;
  sim::EventId batch_flush_timer_ = 0;

  // View change state.
  bool in_view_change_ = false;
  ViewNum target_view_ = 0;
  sim::EventId view_change_timer_ = 0;
  std::map<ViewNum, std::map<ActorId, std::vector<PreparedProof>>>
      view_change_msgs_;

  // Verifier re-transmission timers Υ, keyed by the ERROR identity.
  std::unordered_map<uint64_t, sim::EventId> retransmit_timers_;

  // Checkpoint protocol state.
  SeqNum last_checkpoint_sent_ = 0;
  std::map<SeqNum, std::map<ActorId, crypto::Digest>> checkpoint_votes_;

  CommitCallback commit_cb_;
  RespawnCallback respawn_cb_;
  ResponseObserver response_observer_;

  uint64_t committed_batches_ = 0;
  uint64_t committed_txns_ = 0;
  uint64_t view_changes_completed_ = 0;
  uint64_t checkpoints_taken_ = 0;
  uint64_t dark_recoveries_ = 0;
};

}  // namespace sbft::shim

#endif  // SBFT_SHIM_PBFT_REPLICA_H_
