#ifndef SBFT_SHIM_PAXOS_REPLICA_H_
#define SBFT_SHIM_PAXOS_REPLICA_H_

#include <deque>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/client_floor.h"
#include "shim/message.h"
#include "shim/shim_config.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace sbft::shim {

/// \brief SERVERLESSCFT baseline (paper §IX-H): the shim runs a
/// crash-fault-tolerant consensus (leader-stable multi-Paxos, phase 2
/// steady state) instead of PBFT.
///
/// No cryptographic signatures are computed or carried — that is exactly
/// the cost advantage the paper attributes to the CFT baseline — and the
/// quorum is a simple majority instead of 2f+1 of 3f+1.
///
/// Leader failover (fault-engine coverage): the leader of view v is node
/// v % n. Followers watch for leader activity; when the leader goes
/// silent while work is outstanding they bump the view after
/// `view_change_timeout`. The new leader runs a real phase-1 majority
/// read: it broadcasts Prepare(ballot) and waits for promises from a
/// majority (itself included), each carrying the acceptor's
/// highest-ballot accepted suffix. The merged highest-ballot value per
/// slot is re-proposed under the new ballot; slots no promise witnessed
/// are plugged with empty no-op batches so the verifier's k_max cursor
/// can keep moving. Transactions lost with the old leader come back
/// through the verifier's ERROR(missing request) path (Fig. 4), which
/// the leader re-proposes. The majority read is what makes recovery
/// safe when the candidate itself missed accepts (e.g. it was the one
/// partitioned away): any committed value lives on some member of every
/// majority, so the merge cannot orphan a committed slot.
class MultiPaxosReplica : public sim::Actor {
 public:
  using CommitCallback = std::function<void(
      SeqNum seq, ViewNum view, const workload::BatchPtr& batch,
      const crypto::CommitCertificate& cert)>;

  MultiPaxosReplica(ActorId id, uint32_t index, const ShimConfig& config,
                    std::vector<ActorId> peers, sim::Simulator* sim,
                    sim::Network* net);

  void OnMessage(const sim::Envelope& env) override;

  void SetCommitCallback(CommitCallback cb) { commit_cb_ = std::move(cb); }

  /// The leader of view v is node v % n.
  bool IsLeader() const { return index_ == view_ % peers_.size(); }
  ViewNum view() const { return view_; }
  uint64_t view_changes() const { return view_changes_; }

  /// Crash-stop / recover hook (fault engine). A crashed replica drops
  /// every message and proposes nothing; on recovery it rejoins with its
  /// in-memory state and adopts the current ballot from the next Accept.
  void SetCrashed(bool crashed);
  bool crashed() const { return crashed_; }

  void SubmitTransaction(const workload::Transaction& txn);

  uint64_t committed_batches() const { return committed_batches_; }
  uint64_t committed_txns() const { return committed_txns_; }

 private:
  struct Slot {
    workload::BatchPtr batch = workload::EmptyBatch();
    crypto::Digest digest;
    std::set<ActorId> accepted;
    bool committed = false;
  };

  /// Acceptor-side record of the highest-ballot value seen per slot —
  /// what a new leader re-proposes after failover.
  struct AcceptedValue {
    uint64_t ballot = 0;
    workload::BatchPtr batch = workload::EmptyBatch();
  };

  void HandleClientRequest(const sim::Envelope& env);
  void HandleAccept(const sim::Envelope& env);
  void HandleAccepted(const sim::Envelope& env);
  void HandleError(const sim::Envelope& env);
  void HandlePrepare(const sim::Envelope& env);
  void HandlePromise(const sim::Envelope& env);
  void MaybeProposeBatch();
  void ProposeBatch(workload::TransactionBatch batch);
  void ProposeAtSlot(SeqNum slot_num, workload::BatchPtr batch);
  void ScheduleBatchFlush();
  void ScheduleLeaderCheck();
  void OnLeaderCheck();
  /// New-leader takeover: starts the phase-1 majority read (Prepare
  /// broadcast + self-promise). Proposals are gated until the read
  /// completes in FinishPhaseOne.
  void TakeOverLeadership();
  /// Majority of promises in hand: merge the highest-ballot values into
  /// accepted_log_, re-propose everything above the commit frontier
  /// (no-op batches for unwitnessed holes), and resume normal proposing.
  void FinishPhaseOne();
  ActorId LeaderOf(uint64_t ballot) const {
    return peers_[(ballot - 1) % peers_.size()];
  }

  size_t Majority() const { return peers_.size() / 2 + 1; }

  ShimConfig config_;
  uint32_t index_;
  std::vector<ActorId> peers_;
  sim::Simulator* sim_;
  sim::Network* net_;

  ViewNum view_ = 0;     // Leader = view_ % n.
  uint64_t ballot_ = 1;  // Always view_ + 1.
  SeqNum next_slot_ = 1;
  std::map<SeqNum, Slot> slots_;
  std::map<SeqNum, AcceptedValue> accepted_log_;
  SeqNum slot_frontier_ = 0;  // Highest slot witnessed in any Accept.
  /// Contiguous commit frontier: as leader, advanced over slots_; as
  /// follower, learned from the leader's Accept piggyback. A takeover
  /// re-proposes only slots above this watermark.
  SeqNum commit_frontier_ = 0;
  std::deque<workload::Transaction> pending_;
  /// Seen requests, keyed by (client, id) above each client's floor.
  FloorTable<> seen_txns_;
  sim::EventId batch_flush_timer_ = 0;
  SimTime last_leader_activity_ = 0;
  bool leader_check_armed_ = false;
  bool crashed_ = false;
  uint64_t view_changes_ = 0;

  // Phase-1 read in flight (new-leader takeover). While pending, no
  // phase-2 proposals go out — a value chosen under an older ballot
  // could otherwise be overwritten by a fresh batch at the same slot.
  bool phase1_pending_ = false;
  uint64_t phase1_ballot_ = 0;
  std::set<ActorId> phase1_promises_;
  std::map<SeqNum, AcceptedValue> phase1_merged_;
  bool phase1_retry_armed_ = false;

  CommitCallback commit_cb_;
  uint64_t committed_batches_ = 0;
  uint64_t committed_txns_ = 0;
};

/// \brief NOSHIM baseline (paper §IX-H): no consensus at all — one
/// coordinator node receives client requests and immediately hands the
/// batch to the spawner, approximating the Baresi et al. architecture the
/// paper compares against.
class NoShimCoordinator : public sim::Actor {
 public:
  using CommitCallback = MultiPaxosReplica::CommitCallback;

  NoShimCoordinator(ActorId id, const ShimConfig& config, sim::Simulator* sim,
                    sim::Network* net);

  void OnMessage(const sim::Envelope& env) override;
  void SetCommitCallback(CommitCallback cb) { commit_cb_ = std::move(cb); }
  void SubmitTransaction(const workload::Transaction& txn);

  uint64_t committed_batches() const { return committed_batches_; }
  uint64_t committed_txns() const { return committed_txns_; }

 private:
  void MaybeFlush();
  void ScheduleBatchFlush();
  void Emit(workload::TransactionBatch batch);

  ShimConfig config_;
  sim::Simulator* sim_;
  sim::Network* net_;
  SeqNum next_seq_ = 1;
  std::deque<workload::Transaction> pending_;
  sim::EventId batch_flush_timer_ = 0;
  CommitCallback commit_cb_;
  uint64_t committed_batches_ = 0;
  uint64_t committed_txns_ = 0;
};

}  // namespace sbft::shim

#endif  // SBFT_SHIM_PAXOS_REPLICA_H_
