#ifndef SBFT_SHIM_PAXOS_REPLICA_H_
#define SBFT_SHIM_PAXOS_REPLICA_H_

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "shim/replica.h"

namespace sbft::shim {

/// \brief The crash-fault shim of the paper's §IX-H baselines: a
/// leader-stable multi-Paxos (phase 2 steady state) in place of PBFT.
/// SERVERLESSCFT runs it on n nodes, NOSHIM on one: a leader that is its
/// own majority commits each batch as it proposes it, sending nothing.
/// No signatures are computed or carried — the cost advantage the paper
/// attributes to the CFT baseline — and the quorum is a simple majority.
/// Intake, batching and the commit callback are the shim::Replica base's.
///
/// Both logs keep only the slots above the contiguous commit frontier:
/// the leader prunes when it commits, a follower when an Accept carries
/// the leader's frontier. The leader re-broadcasts the Accept of a slot
/// still uncommitted `request_timeout` after it was sent, until the slot
/// commits or the ballot changes; followers answer every Accept, so a
/// lost Accept or Accepted cannot hold the frontier for good.
///
/// Leader failover (fault-engine coverage): the leader of view v is node
/// v % n. Followers watch for leader activity; when the leader goes
/// silent while work is outstanding they bump the view after
/// `view_change_timeout`. The new leader runs a real phase-1 majority
/// read: Prepare(ballot) to all, and promises from a majority (itself
/// included), each carrying the acceptor's commit frontier and its
/// highest-ballot accepted values above it. The merged highest-ballot
/// value per slot is re-proposed under the new ballot; slots no promise
/// witnessed are plugged with empty no-op batches so the verifier's k_max
/// cursor can keep moving. Fresh batches go above both the merged
/// frontier and the highest witnessed slot, since a promise carries
/// nothing at or below its sender's frontier. Transactions lost with the
/// old leader come back through the verifier's ERROR(missing request)
/// path (Fig. 4), which the leader re-proposes. The majority read keeps
/// recovery safe when the candidate itself missed accepts (e.g. it was
/// the one partitioned away): every committed slot is in some majority
/// member's promise, or at or below the frontier it reports.
class MultiPaxosReplica : public Replica {
 public:
  MultiPaxosReplica(ActorId id, uint32_t index, const ShimConfig& config,
                    std::vector<ActorId> peers, sim::Simulator* sim,
                    sim::Network* net);

  /// On recovery the node rejoins with its in-memory state and adopts the
  /// current ballot from the next Accept.
  void SetCrashed(bool crashed) override;

  /// Entries in the longer of the slot table and the accepted log: the
  /// slots above the commit frontier this node knows.
  size_t log_size() const {
    return std::max(slots_.size(), accepted_log_.size());
  }

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

  void HandleMessage(const sim::Envelope& env, MsgKind kind) override;
  /// Leader, no phase-1 read pending, not crashed.
  bool CanPropose() const override;
  size_t UncommittedSlots() const override;
  bool Propose(workload::BatchPtr batch) override;

  void HandleClientRequest(const sim::Envelope& env);
  void HandleAccept(const sim::Envelope& env);
  void HandleAccepted(const sim::Envelope& env);
  void HandleError(const sim::Envelope& env);
  void HandlePrepare(const sim::Envelope& env);
  void HandlePromise(const sim::Envelope& env);
  /// Returns whether the slot committed as it was proposed, which only a
  /// group of one does.
  bool ProposeAtSlot(SeqNum slot_num, workload::BatchPtr batch);
  /// Sends `slot_num`'s Accept, under the current ballot and with the
  /// commit frontier, to every other node.
  void BroadcastAccept(SeqNum slot_num);
  /// Re-broadcasts `slot_num`'s Accept every `request_timeout` until the
  /// slot commits or the ballot changes; a crashed leader skips the send.
  void ScheduleAcceptResend(SeqNum slot_num);
  /// The leader commits `slot_num` once a majority, itself included, has
  /// accepted it; returns whether it committed just now.
  bool MaybeCommit(SeqNum slot_num);
  /// Erases the slots and accepted values at or below commit_frontier_.
  void PruneToCommitFrontier();
  void ScheduleLeaderCheck();
  void OnLeaderCheck();
  /// Moves to a higher ballot another node leads.
  void AdoptBallot(uint64_t ballot);
  /// New-leader takeover: starts the phase-1 majority read (Prepare
  /// broadcast + self-promise). Proposals are gated until the read
  /// completes in FinishPhaseOne.
  void TakeOverLeadership();
  /// Majority of promises in hand: merge the highest-ballot values into
  /// accepted_log_, re-propose everything above the commit frontier
  /// (no-op batches for unwitnessed holes), and resume normal proposing.
  void FinishPhaseOne();
  ActorId LeaderOf(uint64_t ballot) const { return PrimaryOf(ballot - 1); }

  size_t Majority() const { return peers_.size() / 2 + 1; }

  uint64_t ballot_ = 1;  // Always view_ + 1.
  SeqNum next_slot_ = 1;
  std::map<SeqNum, Slot> slots_;
  std::map<SeqNum, AcceptedValue> accepted_log_;
  SeqNum slot_frontier_ = 0;  // Highest slot witnessed in any Accept.
  /// Contiguous commit frontier: as leader, advanced over slots_; as
  /// follower, learned from the leader's Accept piggyback; as candidate,
  /// from the promises. Both logs hold only the slots above it, and a
  /// takeover re-proposes only those.
  SeqNum commit_frontier_ = 0;
  SimTime last_leader_activity_ = 0;
  bool leader_check_armed_ = false;

  // Phase-1 read in flight (new-leader takeover). While pending, no
  // phase-2 proposals go out — a value chosen under an older ballot
  // could otherwise be overwritten by a fresh batch at the same slot.
  bool phase1_pending_ = false;
  uint64_t phase1_ballot_ = 0;
  std::set<ActorId> phase1_promises_;
  std::map<SeqNum, AcceptedValue> phase1_merged_;
  bool phase1_retry_armed_ = false;
};

}  // namespace sbft::shim

#endif  // SBFT_SHIM_PAXOS_REPLICA_H_
