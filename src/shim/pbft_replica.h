#ifndef SBFT_SHIM_PBFT_REPLICA_H_
#define SBFT_SHIM_PBFT_REPLICA_H_

#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crypto/keys.h"
#include "shim/replica.h"

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
/// prepare and commit votes travel; everything else is shared. Intake,
/// batching and the commit callback are the shim::Replica base's.
/// Execution is *not* done here: when a batch commits, the commit
/// callback hands (seq, batch, certificate) to the spawner installed by
/// core::Architecture. Every honest node fires it once per sequence.
///
/// A crashed node's timers take no action; on recovery it catches up
/// through featherweight checkpoints (§V-B).
class PbftReplica : public Replica {
 public:
  /// Fired when the verifier signals (via ERROR(kmax)) that executors for
  /// an already-committed sequence must be re-spawned.
  using RespawnCallback = std::function<void(SeqNum seq)>;

  /// `index` is the node's position in `peers` (identifier 0..n-1, §IV-B);
  /// the primary of view v is peers[v mod n]. The node starts honest.
  PbftReplica(ActorId id, uint32_t index, const ShimConfig& config,
              std::vector<ActorId> peers, crypto::KeyRegistry* keys,
              sim::Simulator* sim, sim::Network* net,
              VotePattern pattern = VotePattern::kAllToAll);

  void SetRespawnCallback(RespawnCallback cb) { respawn_cb_ = std::move(cb); }

  /// True if this node has committed sequence `seq`.
  bool HasCommitted(SeqNum seq) const;

  /// Replaces the byzantine behaviour (fault engine); pass a
  /// default-constructed ByzantineBehavior to return the node to honesty.
  /// The node's spawner reads it at every commit.
  void SetBehavior(const ByzantineBehavior& behavior) {
    behavior_ = behavior;
  }
  const ByzantineBehavior& behavior() const { return behavior_; }

  /// Digest this node committed at `seq` (empty optional otherwise).
  std::optional<crypto::Digest> CommittedDigest(SeqNum seq) const;

  /// Prepare and commit votes this node holds for `seq`. A committed
  /// slot holds none: its certificate is all that is read of them.
  size_t votes_held(SeqNum seq) const;

  // --- statistics ---
  uint64_t checkpoints_taken() const { return checkpoints_taken_; }
  uint64_t dark_recoveries() const { return dark_recoveries_; }
  SeqNum stable_seq() const { return stable_seq_; }

 private:
  /// Votes of one phase by sender, kept in sender order: a slot's votes
  /// sit in one block.
  using Votes = std::vector<std::pair<ActorId, Bytes>>;

  struct Slot {
    ViewNum view = 0;
    crypto::Digest digest;
    workload::BatchPtr batch = workload::EmptyBatch();
    bool have_preprepare = false;
    bool prepared = false;
    bool committed = false;
    /// Prepare votes by sender, in sender order. Only the collector
    /// pattern signs them (its primary relays the signatures as the
    /// prepare certificate). Both vote lists are emptied when the slot
    /// commits, and later votes for it are ignored.
    Votes prepares;
    Votes commit_sigs;
    /// C, set when the slot commits; the EXECUTE and every VERIFY for
    /// the slot share it.
    crypto::CertPtr cert;
    sim::EventId request_timer = 0;

    /// Frees both vote lists (the slot committed).
    void DropVotes() {
      prepares = Votes();
      commit_sigs = Votes();
    }
  };

  void HandleMessage(const sim::Envelope& env, MsgKind kind) override;
  /// Primary, not in a view change, not crashed.
  bool CanPropose() const override;
  size_t UncommittedSlots() const override;
  bool Propose(workload::BatchPtr batch) override;

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

  // --- consensus helpers ---
  Slot& GetSlot(SeqNum seq);
  /// Records the primary's own prepare for a slot it just proposed.
  void AddOwnPrepare(SeqNum seq);
  /// A backup accepted the proposal in `seq`'s slot: cast its prepare.
  void CastPrepare(SeqNum seq);
  void SendLinearVote(SeqNum seq, LinearPhase phase);
  /// Broadcasts `cert` and returns a pointer to the relayed copy.
  crypto::CertPtr RelayLinearCert(LinearPhase phase,
                                  crypto::CommitCertificate cert);
  /// The first 2f+1 of `votes`, as a certificate for `seq`'s slot.
  crypto::CommitCertificate QuorumCert(SeqNum seq, const Votes& votes) const;
  /// `from`'s vote in `votes`; an empty one is added if it cast none.
  static Bytes& VoteOf(Votes& votes, ActorId from);
  void TryPrepare(SeqNum seq);
  void TryCommit(SeqNum seq);
  /// `seq`'s slot committed with certificate `cert`: drops its votes
  /// and reports the commit.
  void OnCommitted(SeqNum seq, crypto::CertPtr cert);
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

  /// Sends `msg` to every other replica; the wire size is the message's
  /// counted WireSize(), taken once for the whole fan-out.
  void BroadcastToPeers(const MessagePtr& msg);

  crypto::KeyRegistry* keys_;
  ByzantineBehavior behavior_;
  VotePattern pattern_;

  SeqNum next_seq_ = 1;         // Next sequence the primary assigns.
  SeqNum stable_seq_ = 0;       // Last checkpoint-stable sequence.
  std::map<SeqNum, Slot> slots_;

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

  RespawnCallback respawn_cb_;

  uint64_t checkpoints_taken_ = 0;
  uint64_t dark_recoveries_ = 0;
};

}  // namespace sbft::shim

#endif  // SBFT_SHIM_PBFT_REPLICA_H_
