#ifndef SBFT_SHIM_LINEAR_REPLICA_H_
#define SBFT_SHIM_LINEAR_REPLICA_H_

#include <deque>
#include <functional>
#include <map>
#include <unordered_set>
#include <vector>

#include "crypto/keys.h"
#include "shim/message.h"
#include "shim/shim_config.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace sbft::shim {

/// \brief Linear-communication BFT shim node (the paper's §IV-B remark:
/// "shim can employ BFT protocols like PoE and SBFT that guarantee linear
/// communication with the help of advanced cryptographic schemes").
///
/// Normal case per sequence number (all O(n) instead of PBFT's O(n^2)):
///
///   1. primary -> all : PREPREPARE(batch, ∆, k)
///   2. node    -> primary : LINEAR_VOTE(prepare, DS)
///   3. primary -> all : LINEAR_CERT(prepare)   [2f+1 votes]
///   4. node    -> primary : LINEAR_VOTE(commit, DS over CommitSigningBytes)
///   5. primary -> all : LINEAR_CERT(commit)    [the standard C]
///
/// The commit certificate is byte-compatible with PbftReplica's, so
/// executors and the verifier are oblivious to which shim protocol ran.
/// Fault handling: request timers τ_m trigger a coordinated view change
/// (same ViewChangeMsg/NewViewMsg flow as PbftReplica); REPLACE from the
/// verifier does the same.
class LinearBftReplica : public sim::Actor {
 public:
  using CommitCallback = std::function<void(
      SeqNum seq, ViewNum view, const workload::BatchPtr& batch,
      const crypto::CommitCertificate& cert)>;
  using RespawnCallback = std::function<void(SeqNum seq)>;
  /// `from` is the RESPONSE envelope's sender: the observer must check it.
  using ResponseObserver =
      std::function<void(ActorId from, const ResponseMsg& msg)>;

  LinearBftReplica(ActorId id, uint32_t index, const ShimConfig& config,
                   std::vector<ActorId> peers, crypto::KeyRegistry* keys,
                   sim::Simulator* sim, sim::Network* net,
                   ByzantineBehavior behavior = {});

  void OnMessage(const sim::Envelope& env) override;

  void SetCommitCallback(CommitCallback cb) { commit_cb_ = std::move(cb); }
  void SetRespawnCallback(RespawnCallback cb) { respawn_cb_ = std::move(cb); }
  void SetResponseObserver(ResponseObserver cb) {
    response_observer_ = std::move(cb);
  }

  bool IsPrimary() const;
  ViewNum view() const { return view_; }
  void SubmitTransaction(const workload::Transaction& txn);
  bool HasCommitted(SeqNum seq) const;

  /// Runtime crash-stop toggle (fault engine); mirrors
  /// PbftReplica::SetCrashed.
  void SetCrashed(bool crashed) { crashed_ = crashed; }
  bool crashed() const { return crashed_; }

  /// Replaces the byzantine behaviour at runtime (fault engine).
  void SetBehavior(const ByzantineBehavior& behavior) {
    behavior_ = behavior;
  }
  const ByzantineBehavior& behavior() const { return behavior_; }

  uint64_t committed_batches() const { return committed_batches_; }
  uint64_t committed_txns() const { return committed_txns_; }
  uint64_t view_changes() const { return view_changes_completed_; }

 private:
  struct Slot {
    ViewNum view = 0;
    crypto::Digest digest;
    workload::BatchPtr batch = workload::EmptyBatch();
    bool have_preprepare = false;
    bool prepared = false;
    bool committed = false;
    // Collector state (primary only).
    std::map<ActorId, Bytes> prepare_votes;
    std::map<ActorId, Bytes> commit_votes;
    bool prepare_cert_sent = false;
    crypto::CommitCertificate cert;
    sim::EventId request_timer = 0;
  };

  void HandleClientRequest(const sim::Envelope& env);
  void HandlePrePrepare(const sim::Envelope& env);
  void HandleVote(const sim::Envelope& env);
  void HandleCert(const sim::Envelope& env);
  void HandleReplace(const sim::Envelope& env);
  void HandleError(const sim::Envelope& env);
  void HandleAck(const sim::Envelope& env);
  void HandleViewChange(const sim::Envelope& env);
  void HandleNewView(const sim::Envelope& env);

  void MaybeProposeBatch();
  void ProposeBatch(workload::TransactionBatch batch);
  void ScheduleBatchFlush();
  Slot& GetSlot(SeqNum seq) { return slots_[seq]; }
  void SendVote(SeqNum seq, LinearPhase phase);
  void OnCommitted(SeqNum seq);
  void StartRequestTimer(SeqNum seq);
  void StartViewChange(ViewNum target);
  void MaybeCompleteViewChange(ViewNum target);
  void EnterView(ViewNum view);
  /// Hands queued transactions to the new primary after a view change
  /// (backups only) so they cannot starve under view-change churn.
  void ForwardPendingToPrimary();

  ActorId PrimaryOf(ViewNum view) const;
  /// Sends `msg` to every other replica; wire size taken once from the
  /// message's memoized serialization.
  void BroadcastToPeers(const MessagePtr& msg);
  bool Crashed() const {
    return crashed_ || (behavior_.byzantine && behavior_.crash);
  }

  ShimConfig config_;
  uint32_t index_;
  std::vector<ActorId> peers_;
  crypto::KeyRegistry* keys_;
  sim::Simulator* sim_;
  sim::Network* net_;
  ByzantineBehavior behavior_;
  bool crashed_ = false;  // Runtime crash-stop (fault engine).

  ViewNum view_ = 0;
  SeqNum next_seq_ = 1;
  std::map<SeqNum, Slot> slots_;
  std::deque<workload::Transaction> pending_;
  std::unordered_set<TxnId> seen_txns_;
  sim::EventId batch_flush_timer_ = 0;

  bool in_view_change_ = false;
  ViewNum target_view_ = 0;
  std::map<ViewNum, std::map<ActorId, std::vector<PreparedProof>>>
      view_change_msgs_;
  // Verifier re-transmission timers Υ (Fig. 4), keyed by ERROR identity.
  std::map<uint64_t, sim::EventId> retransmit_timers_;

  CommitCallback commit_cb_;
  RespawnCallback respawn_cb_;
  ResponseObserver response_observer_;

  uint64_t committed_batches_ = 0;
  uint64_t committed_txns_ = 0;
  uint64_t view_changes_completed_ = 0;
};

}  // namespace sbft::shim

#endif  // SBFT_SHIM_LINEAR_REPLICA_H_
