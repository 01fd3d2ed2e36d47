#ifndef SBFT_CORE_LOCK_TABLE_H_
#define SBFT_CORE_LOCK_TABLE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"

namespace sbft::core {

/// \brief The shared lock abstraction of the unified commit path: one
/// key -> owner map with per-key bounded FIFO wait queues.
///
/// Two tiers instantiate it today:
///  - the spawner's §VI-C conflict-avoidance stage (owners are shim
///    sequence numbers; batches lock their declared rw keys before
///    executors are spawned);
///  - the verifier's 2PC prepare locks (owners are global transaction
///    ids; fragments hold their keys between PREPARE vote and the
///    coordinator's decision).
///
/// Having one structure — instead of the two hand-rolled maps PR 4 left
/// behind — makes the contention rules uniform across tiers (SCL,
/// arXiv:2210.11703, makes the same argument for stateful serverless):
/// the spawner can consult the verifier's prepare-lock instance to avoid
/// proposing batches that would collide with in-flight cross-shard
/// fragments, and both tiers share the same bounded-queueing semantics.
///
/// Queueing is deadlock-free by construction in both uses: a waiter
/// never holds locks while queued, and every held lock is released by an
/// event that does not depend on any waiter (a verifier RESPONSE for the
/// spawner tier, a 2PC decision for the prepare tier).
class LockTable {
 public:
  /// Identifies a lock holder (a SeqNum or a global TxnId, both 64-bit).
  using Owner = uint64_t;
  /// Identifies a queued waiter (opaque to the table; owners and waiter
  /// ids live in the caller's namespace).
  using WaiterId = uint64_t;

  LockTable() = default;
  explicit LockTable(uint32_t max_queue_depth)
      : max_queue_depth_(max_queue_depth) {}

  /// Per-key FIFO cap (a cap of 0 makes Enqueue always refuse).
  void set_max_queue_depth(uint32_t depth) { max_queue_depth_ = depth; }

  /// Whether `key` is held by an owner other than `self`.
  bool LockedByOther(const std::string& key, Owner self) const {
    if (locks_.empty()) return false;
    auto it = locks_.find(key);
    return it != locks_.end() && it->second != self;
  }

  /// First key in `keys` held by an owner other than `self`; nullptr when
  /// every key is free (or already owned by `self`).
  const std::string* FirstBlocked(const std::vector<std::string>& keys,
                                  Owner self) const;

  /// All-or-nothing acquisition: every key must be free or already held
  /// by `owner`. On success the keys are recorded against `owner` (keys
  /// already held are not double-recorded).
  bool TryAcquire(Owner owner, const std::vector<std::string>& keys);

  /// Acquires `key` for `owner` if free; returns whether `owner` now
  /// holds it. Records the key against the owner on fresh acquisition.
  bool AcquireOne(Owner owner, const std::string& key);

  /// Releases every key held by `owner`, returning the released keys
  /// (so the caller can drain their wait queues in order).
  std::vector<std::string> ReleaseOwner(Owner owner);

  /// Appends `waiter` to `key`'s FIFO queue. Refuses (returns false)
  /// when the queue is at the configured cap, creating no queue.
  bool Enqueue(const std::string& key, WaiterId waiter);

  /// Pops the whole FIFO queue of `key` (possibly empty). The caller
  /// re-attempts each waiter in order; a still-blocked waiter re-enqueues
  /// on its (new) blocking key.
  std::vector<WaiterId> DrainWaiters(const std::string& key);

  // --- statistics ---
  size_t size() const { return locks_.size(); }
  size_t waiters() const { return total_waiters_; }
  /// High-water mark of any single key's queue depth over the table's
  /// lifetime (the bounded-queue property tests assert on this).
  uint32_t peak_queue_depth() const { return peak_queue_depth_; }
  uint64_t enqueue_refusals() const { return enqueue_refusals_; }

 private:
  uint32_t max_queue_depth_ = 0;
  std::unordered_map<std::string, Owner> locks_;
  std::unordered_map<Owner, std::vector<std::string>> held_;
  std::unordered_map<std::string, std::deque<WaiterId>> queues_;
  size_t total_waiters_ = 0;
  uint32_t peak_queue_depth_ = 0;
  uint64_t enqueue_refusals_ = 0;
};

}  // namespace sbft::core

#endif  // SBFT_CORE_LOCK_TABLE_H_
