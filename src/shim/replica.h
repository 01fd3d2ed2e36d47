#ifndef SBFT_SHIM_REPLICA_H_
#define SBFT_SHIM_REPLICA_H_

#include <deque>
#include <functional>
#include <string_view>
#include <vector>

#include "common/client_floor.h"
#include "shim/message.h"
#include "shim/shim_config.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace sbft::shim {

/// \brief One shim node, whatever its consensus: what PbftReplica and
/// MultiPaxosReplica do the same way (DESIGN.md §14).
///
/// The node cuts client transactions into batches, hands each to its
/// protocol for one consensus slot (§IV-B) and reports every commit
/// through one callback. While the protocol may propose, full batches
/// leave as long as fewer than `pipeline_width` slots are uncommitted
/// (§VI-A); past that bound only the `batch_timeout` flush proposes, one
/// batch per timeout, and it also sends a partial batch. The protocol
/// handles every message but RESPONSE, which goes to the observer; a
/// crashed node handles nothing. Node v mod n leads view v.
class Replica : public sim::Actor {
 public:
  /// Fired once per sequence this node commits, in arbitrary seq order
  /// (pipelined consensus).
  using CommitCallback = std::function<void(
      SeqNum seq, ViewNum view, const workload::BatchPtr& batch,
      const crypto::CertPtr& cert)>;

  /// Fired when a RESPONSE reaches this node — from the verifier, it
  /// reports a settled sequence (Fig. 3 line 33) and releases §VI-C
  /// locks. `from` is the envelope's sender: the observer must check it.
  using ResponseObserver =
      std::function<void(ActorId from, const ResponseMsg& msg)>;

  void OnMessage(const sim::Envelope& env) final;

  void SetCommitCallback(CommitCallback cb) { commit_cb_ = std::move(cb); }
  void SetResponseObserver(ResponseObserver cb) {
    response_observer_ = std::move(cb);
  }

  /// Queues `txn` for a batch unless it was seen or is at or below its
  /// client's floor, and proposes what the pipeline allows. The queue
  /// and the batch hold `txn` itself, not a copy: a node passes a pointer
  /// into the message that delivered it.
  void SubmitTransaction(workload::TxnPtr txn);

  /// Runtime crash-stop toggle (fault engine): a crashed node drops every
  /// message and proposes nothing.
  virtual void SetCrashed(bool crashed) { crashed_ = crashed; }
  bool crashed() const { return crashed_; }

  /// True when this node leads the current view: the PBFT primary, the
  /// Multi-Paxos leader.
  bool IsPrimary() const { return PrimaryOf(view_) == id(); }
  ViewNum view() const { return view_; }
  uint64_t view_changes() const { return view_changes_; }

  uint64_t committed_batches() const { return committed_batches_; }
  uint64_t committed_txns() const { return committed_txns_; }
  /// Client requests remembered for dedup (above each client's floor).
  size_t seen_txns() const { return seen_txns_.size(); }

 protected:
  /// `index` is the node's position in `peers` (identifier 0..n-1); the
  /// node is named `kind` followed by it.
  Replica(ActorId id, std::string_view kind, uint32_t index,
          const ShimConfig& config, std::vector<ActorId> peers,
          sim::Simulator* sim, sim::Network* net);

  /// The node that leads `view`.
  ActorId PrimaryOf(ViewNum view) const {
    return peers_[view % peers_.size()];
  }

  /// Handles a message of `kind`, which is never RESPONSE.
  virtual void HandleMessage(const sim::Envelope& env, MsgKind kind) = 0;

  // --- the protocol's hooks ---
  /// Whether this node may start a slot now.
  virtual bool CanPropose() const = 0;
  /// Slots this node proposed or accepted that have not committed.
  virtual size_t UncommittedSlots() const = 0;
  /// Starts consensus on `batch` in the next slot; returns whether the
  /// slot committed as it was proposed.
  virtual bool Propose(workload::BatchPtr batch) = 0;

  /// Proposes full batches while the pipeline has room, then arms the
  /// flush for what is left.
  void MaybeProposeBatch();

  /// Counts a commit and hands it to the commit callback.
  void ReportCommit(SeqNum seq, ViewNum view, const workload::BatchPtr& batch,
                    const crypto::CertPtr& cert);

  ShimConfig config_;
  std::vector<ActorId> peers_;
  sim::Simulator* sim_;
  sim::Network* net_;

  ViewNum view_ = 0;
  uint64_t view_changes_ = 0;
  bool crashed_ = false;

  /// Transactions waiting for a batch, in arrival order.
  std::deque<workload::TxnPtr> pending_;
  /// Seen requests, keyed by (client, id) above each client's floor.
  FloorTable<> seen_txns_;

 private:
  void ScheduleBatchFlush();
  /// Proposes the first `count` pending transactions, moved into a batch.
  bool ProposeBatch(size_t count);

  sim::EventId batch_flush_timer_ = 0;
  CommitCallback commit_cb_;
  ResponseObserver response_observer_;
  uint64_t committed_batches_ = 0;
  uint64_t committed_txns_ = 0;
};

}  // namespace sbft::shim

#endif  // SBFT_SHIM_REPLICA_H_
