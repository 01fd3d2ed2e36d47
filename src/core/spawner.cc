#include "core/spawner.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/logging.h"

namespace sbft::core {

Spawner::Spawner(const SystemConfig& config,
                 serverless::CloudSimulator* cloud,
                 crypto::KeyRegistry* keys, sim::Simulator* sim,
                 ActorId verifier, ActorId storage)
    : config_(config),
      cloud_(cloud),
      keys_(keys),
      sim_(sim),
      verifier_(verifier),
      storage_(storage),
      respawns_(config.protocol == Protocol::kServerlessBft ||
                config.protocol == Protocol::kServerlessBftLinear) {
  // Executors round-robin over AWS regions 1..executor_regions (region 0
  // is the OCI/on-premise site).
  for (uint32_t r = 1; r <= config_.executor_regions; ++r) {
    regions_.push_back(r);
  }
  if (regions_.empty()) regions_.push_back(1);
}

uint32_t Spawner::ExecutorsForNode(bool is_primary) const {
  uint32_t n_e = config_.EffectiveExecutors();
  if (config_.spawn_mode == SpawnMode::kPrimaryOnly) {
    return is_primary ? n_e : 0;
  }
  // Decentralized spawning (§VI-B eq. (1)): e = 1 when n_E <= n_R, else
  // ceil(n_E / (2f_R + 1)).
  uint32_t n_r = config_.shim.n;
  if (n_e <= n_r) return 1;
  return (n_e + config_.shim.quorum() - 1) / config_.shim.quorum();
}

std::shared_ptr<const shim::ExecuteMsg> Spawner::BuildWork(
    ActorId node, SeqNum seq, ViewNum view,
    const workload::BatchPtr& batch, const crypto::CertPtr& cert) const {
  auto work = std::make_shared<shim::ExecuteMsg>(node);
  work->view = view;
  work->seq = seq;
  work->batch = batch;
  work->digest = cert->digest;
  work->cert = cert;
  work->spawner_sig = keys_->Sign(
      node, shim::ExecuteMsg::SigningBytes(view, seq, cert->digest));
  return work;
}

void Spawner::OnCommit(ActorId node, bool is_primary,
                       const shim::ByzantineBehavior& behavior, SeqNum seq,
                       ViewNum view, const workload::BatchPtr& batch,
                       const crypto::CertPtr& cert) {
  // Record the EXECUTE payload on every node's commit so a *new* primary
  // can satisfy respawn requests for sequences the old primary spawned
  // short (§V-A recovery) — unless the verifier already settled it (a
  // late backup commit).
  std::shared_ptr<const shim::ExecuteMsg> work;
  auto cached = recent_work_.find(seq);
  if (cached != recent_work_.end()) {
    work = cached->second;
  } else {
    work = BuildWork(node, seq, view, batch, cert);
    if (respawns_ && seq > settled_seq_) recent_work_.emplace(seq, work);
  }
  uint32_t count = ExecutorsForNode(is_primary);
  if (count == 0) return;

  // §VI-C best-effort conflict avoidance (primary-only, known rw sets):
  // admit batches to the lock stage in sequence order.
  if (config_.conflict_avoidance && is_primary &&
      config_.workload.rw_sets_known) {
    QueuedBatch queued;
    queued.seq = seq;
    queued.work = work;
    for (const workload::TxnPtr& txn : batch->txns) {
      for (const std::string& key : txn->WriteKeys()) {
        queued.keys.push_back(key);
      }
      for (const std::string& key : txn->ReadKeys()) {
        queued.keys.push_back(key);  // Read locks prevent stale reads too.
      }
    }
    pending_lock_.emplace(seq, std::move(queued));
    ProcessLockStage();
    return;
  }
  SpawnSet(work, count, behavior);
}

void Spawner::ProcessLockStage() {
  // Admit contiguous sequences (pipelined commits may arrive out of
  // order; locking must follow the shim order, §VI-C step 1).
  while (true) {
    auto it = pending_lock_.find(next_lock_seq_);
    if (it == pending_lock_.end()) break;
    waiting_.emplace(it->first, std::move(it->second));
    pending_lock_.erase(it);
    ++next_lock_seq_;
  }

  // Lock and spawn in order, overtaking only when safe (§VI-C step 3).
  bool progress = true;
  while (progress) {
    progress = false;
    std::unordered_set<std::string> reserved_by_earlier;
    for (auto it = waiting_.begin(); it != waiting_.end();) {
      QueuedBatch& batch = it->second;
      bool blocked = false;
      for (const std::string& key : batch.keys) {
        if (reserved_by_earlier.contains(key)) {
          blocked = true;
          break;
        }
      }
      // Unified commit path: a batch touching a key an in-flight 2PC
      // fragment holds a prepare lock on waits here instead of being
      // proposed into a certain collision; the verifier's release
      // callback re-drives this stage when the decision lands.
      bool prepare_blocked = false;
      if (!blocked && BlockedByPrepareLocks(batch.keys)) {
        blocked = true;
        prepare_blocked = true;
        if (!batch.counted_prepare_hold) {
          batch.counted_prepare_hold = true;
          ++batches_held_on_prepare_locks_;
        }
      }
      if (!blocked && lock_stage_.TryAcquire(batch.seq, batch.keys)) {
        shim::ByzantineBehavior honest;
        SpawnSet(batch.work, config_.EffectiveExecutors(), honest);
        it = waiting_.erase(it);
        progress = true;
        continue;
      }
      // This batch waits; protect its keys from later batches so it can
      // never be starved by an overtaker. A wait caused purely by
      // prepare locks is counted above, not as a conflict-queue wait.
      if (!batch.counted_blocked && !prepare_blocked) {
        batch.counted_blocked = true;
        ++batches_queued_on_conflict_;
      }
      for (const std::string& key : batch.keys) {
        reserved_by_earlier.insert(key);
      }
      ++it;
    }
  }
}

void Spawner::SpawnSet(std::shared_ptr<const shim::ExecuteMsg> work,
                       uint32_t count,
                       const shim::ByzantineBehavior& behavior) {
  uint32_t effective = count;
  int sets = 1;
  SimDuration delay = 0;
  if (behavior.byzantine) {
    if (behavior.spawn_count_override >= 0) {
      effective = static_cast<uint32_t>(behavior.spawn_count_override);
    }
    delay = behavior.spawn_delay;
    sets += behavior.duplicate_spawns;
  }
  if (effective == 0) return;

  auto do_spawn = [this, work, effective, sets]() {
    for (int s = 0; s < sets; ++s) {
      for (uint32_t i = 0; i < effective; ++i) {
        serverless::ExecutorBehavior exec_behavior =
            (static_cast<int>(i) < config_.byzantine_executors)
                ? config_.byzantine_executor_behavior
                : serverless::ExecutorBehavior::kHonest;
        SpawnOne(work, exec_behavior, /*attempts_left=*/400);
      }
    }
    ++batches_spawned_;
  };
  if (delay > 0) {
    sim_->Schedule(delay, do_spawn);
  } else {
    do_spawn();
  }
}

void Spawner::SpawnOne(std::shared_ptr<const shim::ExecuteMsg> work,
                       serverless::ExecutorBehavior behavior,
                       int attempts_left) {
  sim::RegionId region = regions_[next_region_++ % regions_.size()];
  ActorId spawned = cloud_->Spawn(region, work, verifier_, storage_,
                                  config_.CertQuorum(), behavior);
  if (spawned != kInvalidActor) {
    ++executors_spawned_;
    return;
  }
  ++spawn_throttled_;
  if (attempts_left > 0) {
    sim_->Schedule(Millis(20), [this, work, behavior, attempts_left]() {
      SpawnOne(work, behavior, attempts_left - 1);
    });
  }
}

void Spawner::OnRespawn(SeqNum seq) {
  auto it = recent_work_.find(seq);
  if (it == recent_work_.end()) return;
  shim::ByzantineBehavior honest;
  SpawnSet(it->second, config_.EffectiveExecutors(), honest);
}

bool Spawner::BlockedByPrepareLocks(
    const std::vector<std::string>& keys) const {
  if (prepare_locks_ == nullptr || prepare_locks_->size() == 0) {
    return false;
  }
  // Owner namespaces differ (sequences here, global txn ids there), so
  // any held key is foreign by definition; 0 is never a global txn id.
  return prepare_locks_->FirstBlocked(keys, /*self=*/0) != nullptr;
}

void Spawner::OnResponse(SeqNum seq) {
  // The verifier settles in sequence order, so every sequence up to `seq`
  // is settled and a respawn for one would only feed the flooding filter.
  if (seq > settled_seq_) {
    settled_seq_ = seq;
    recent_work_.erase(recent_work_.begin(), recent_work_.upper_bound(seq));
    cloud_->OnSettled(seq);
  }
  lock_stage_.ReleaseOwner(seq);
  ProcessLockStage();
}

}  // namespace sbft::core
