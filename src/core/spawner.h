#ifndef SBFT_CORE_SPAWNER_H_
#define SBFT_CORE_SPAWNER_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/lock_table.h"
#include "serverless/cloud.h"
#include "shim/message.h"

namespace sbft::core {

/// \brief The invoker (paper §VIII): turns shim commits into serverless
/// executor spawns.
///
/// Implements the three spawning policies of §VI:
///  - primary-only concurrent spawning (the Fig. 3 default);
///  - decentralized spawning with e executors per node, eq. (1)/(2);
///  - best-effort conflict avoidance (§VI-C): a logical lock map over
///    data items; conflicting batches queue until the verifier's RESPONSE
///    releases the locks.
///
/// Also carries the byzantine spawning attacks (§V): fewer executors,
/// delayed spawning, duplicate spawning.
class Spawner {
 public:
  Spawner(const SystemConfig& config, serverless::CloudSimulator* cloud,
          crypto::KeyRegistry* keys, sim::Simulator* sim,
          ActorId verifier, ActorId storage);

  /// Called from a shim node's commit callback. `node` identifies the
  /// spawning node, `is_primary` its role at commit time, `behavior` the
  /// byzantine policy its replica holds at commit time.
  void OnCommit(ActorId node, bool is_primary,
                const shim::ByzantineBehavior& behavior, SeqNum seq,
                ViewNum view, const workload::BatchPtr& batch,
                const crypto::CertPtr& cert);

  /// Re-spawns executors for a sequence (verifier ERROR(kmax) recovery).
  /// A no-op for a sequence the verifier has settled.
  void OnRespawn(SeqNum seq);

  /// Verifier RESPONSE reached the primary: release §VI-C locks, and
  /// record that every sequence up to `seq` is settled, which prunes the
  /// respawn cache and retires finished executors' keys
  /// (CloudSimulator::OnSettled). The caller must have checked that the
  /// RESPONSE came from the verifier.
  void OnResponse(SeqNum seq);

  /// Read-only view of the verifier's 2PC prepare locks (the shared
  /// LockTable). When set, the conflict-avoidance stage also holds back
  /// batches whose keys collide with in-flight cross-shard fragments —
  /// unifying the paper's §VI-C lock stage with the 2PC participant
  /// locks instead of letting the two mechanisms fight.
  void SetPrepareLockView(const LockTable* prepare_locks) {
    prepare_locks_ = prepare_locks;
  }

  /// The verifier released prepare locks (a 2PC decision landed):
  /// re-drive the lock stage in conflict-avoidance mode.
  void OnPrepareLocksReleased() {
    if (config_.conflict_avoidance) ProcessLockStage();
  }

  uint64_t batches_spawned() const { return batches_spawned_; }
  uint64_t executors_spawned() const { return executors_spawned_; }
  uint64_t spawn_throttled() const { return spawn_throttled_; }
  uint64_t batches_queued_on_conflict() const {
    return batches_queued_on_conflict_;
  }
  uint64_t batches_held_on_prepare_locks() const {
    return batches_held_on_prepare_locks_;
  }
  size_t locked_keys() const { return lock_stage_.size(); }
  /// EXECUTE payloads held for respawns.
  size_t respawn_cache_size() const { return recent_work_.size(); }
  /// The EXECUTE held for a respawn of `seq`, or null.
  std::shared_ptr<const shim::ExecuteMsg> respawn_work(SeqNum seq) const {
    auto it = recent_work_.find(seq);
    return it == recent_work_.end() ? nullptr : it->second;
  }
  /// Highest sequence a verifier RESPONSE has reported settled.
  SeqNum settled_seq() const { return settled_seq_; }

 private:
  struct QueuedBatch {
    SeqNum seq = 0;
    std::shared_ptr<const shim::ExecuteMsg> work;
    std::vector<std::string> keys;
    // Stats flags: count each batch at most once per blocking cause, so
    // conflict-queue waits and prepare-lock holds stay attributable.
    bool counted_blocked = false;
    bool counted_prepare_hold = false;
  };

  /// Executors this node must spawn under the current mode (eq. (1)/(2)).
  uint32_t ExecutorsForNode(bool is_primary) const;

  void SpawnSet(std::shared_ptr<const shim::ExecuteMsg> work, uint32_t count,
                const shim::ByzantineBehavior& behavior);

  /// Spawns one executor, retrying with backoff when the provider
  /// throttles (account concurrency limit) — without retry a burst of
  /// commits could strand a sequence without executors and stall the
  /// verifier's k_max cursor.
  void SpawnOne(std::shared_ptr<const shim::ExecuteMsg> work,
                serverless::ExecutorBehavior behavior, int attempts_left);

  /// §VI-C lock stage. Batches enter in strict sequence order (commits
  /// can arrive out of order under pipelining); a batch spawns once all
  /// its keys are lockable — and, when the prepare-lock view is wired,
  /// free of in-flight 2PC prepare locks. Later batches may overtake a
  /// waiting one only when they touch none of the keys an earlier
  /// waiting batch needs — this keeps the schedule deadlock-free: a
  /// waiting batch only ever waits on locks held by *smaller* sequences
  /// (settled first by the verifier) or on prepare locks (released by a
  /// coordinator decision).
  void ProcessLockStage();
  /// Whether any of `keys` is held by an in-flight 2PC fragment.
  bool BlockedByPrepareLocks(const std::vector<std::string>& keys) const;

  std::shared_ptr<const shim::ExecuteMsg> BuildWork(
      ActorId node, SeqNum seq, ViewNum view,
      const workload::BatchPtr& batch, const crypto::CertPtr& cert) const;

  SystemConfig config_;
  serverless::CloudSimulator* cloud_;
  crypto::KeyRegistry* keys_;
  sim::Simulator* sim_;
  ActorId verifier_;
  ActorId storage_;
  std::vector<sim::RegionId> regions_;
  size_t next_region_ = 0;

  // Whether the shim can ask for respawns (the BFT shims' ERROR(kmax)).
  // Every shim delivers the verifier's RESPONSE to OnResponse, but only
  // these need the payloads kept for a respawn.
  bool respawns_;
  // EXECUTE payloads for respawn requests, kept only above settled_seq_:
  // the verifier drops VERIFYs of settled sequences (§V-C), so the cache
  // is bounded by how far the verifier lags behind consensus.
  std::map<SeqNum, std::shared_ptr<const shim::ExecuteMsg>> recent_work_;
  SeqNum settled_seq_ = 0;

  // §VI-C logical locks: the shared LockTable keyed by holding sequence.
  LockTable lock_stage_;
  // Read-only view of the verifier's 2PC prepare locks (may be null).
  const LockTable* prepare_locks_ = nullptr;
  // Commits not yet admitted to the lock stage (out-of-order buffer).
  std::map<SeqNum, QueuedBatch> pending_lock_;
  // Admitted but waiting for locks, in sequence order.
  std::map<SeqNum, QueuedBatch> waiting_;
  SeqNum next_lock_seq_ = 1;

  uint64_t batches_spawned_ = 0;
  uint64_t executors_spawned_ = 0;
  uint64_t spawn_throttled_ = 0;
  uint64_t batches_queued_on_conflict_ = 0;
  uint64_t batches_held_on_prepare_locks_ = 0;
};

}  // namespace sbft::core

#endif  // SBFT_CORE_SPAWNER_H_
