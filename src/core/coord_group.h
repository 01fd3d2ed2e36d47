#ifndef SBFT_CORE_COORD_GROUP_H_
#define SBFT_CORE_COORD_GROUP_H_

#include "common/ids.h"
#include "common/rng.h"

namespace sbft::core {

/// Base actor id of the coordinator block: the 890000..890999 range is
/// reserved for coordinator-group members (see shard_plane.h for the
/// other id blocks). Member r of group g lives at
/// kCoordinatorBaseId + g * replicas + r (group-major, see CoordGroups
/// below); member (0, 0) is the default topology's one coordinator.
/// Declared here so the shard plane and the verifier can compute member
/// ids without depending on architecture.h.
constexpr ActorId kCoordinatorBaseId = 890000;

/// \brief Gid-partitioned coordinator topology (DESIGN.md §12).
///
/// The global-txn-id space is split by stable hash into `groups`
/// independent coordinator groups; each group is an R-member CFT group
/// (`replicas`) that quorum-replicates its own 2PC decision log, runs
/// its own heartbeat/failover timers, and advances its own watermark.
/// Every piece of leader-resolution arithmetic — which group owns a
/// gid, which actor id a (group, replica) pair maps to, which member
/// leads a view — lives here, so the coordinator, the verifiers, the
/// router, and the fault engine can never disagree about it.
///
/// The member id layout is group-major inside the coordinator id block:
/// member (g, r) = kCoordinatorBaseId + g * replicas + r. For
/// groups == 1 this is exactly the historical layout (member r at
/// kCoordinatorBaseId + r), which the golden-digest replay contract
/// pins. Caps: groups <= 64 and replicas <= 9, so the whole topology
/// (<= 576 actors) stays inside the reserved 1000-id block.
struct CoordGroups {
  uint32_t groups = 1;
  uint32_t replicas = 1;

  /// Total coordinator actors in the topology.
  uint32_t total() const { return groups * replicas; }

  /// Stable owner group of a gid (client, id): a pure function of the
  /// gid and the group count — independent of views, leaders, or time —
  /// so every router, verifier, and coordinator resolves the same owner
  /// for the lifetime of the transaction. Sequential ids are spread by a
  /// splitmix64 finalizer (consecutive ids land on different groups)
  /// before the modulo.
  static uint32_t GroupOf(const TxnKey& gid, uint32_t groups) {
    if (groups <= 1) return 0;
    return static_cast<uint32_t>(
        Mix64((gid.id + 0x9e3779b97f4a7c15ull) ^ Mix64(gid.client)) %
        groups);
  }
  uint32_t GroupOf(const TxnKey& gid) const { return GroupOf(gid, groups); }

  /// THE leader-resolution rule: the leader of view v is member
  /// (v mod R) of its group. Shared by the coordinator's own
  /// GroupLeader/append guards and the architecture's live-routing
  /// resolution (asserted consistent by coord_group_test).
  static uint32_t LeaderIndexAt(uint64_t view, uint32_t replicas) {
    return replicas <= 1 ? 0 : static_cast<uint32_t>(view % replicas);
  }

  ActorId MemberId(uint32_t group, uint32_t replica) const {
    return kCoordinatorBaseId + group * replicas + replica;
  }
  ActorId LeaderAt(uint32_t group, uint64_t view) const {
    return MemberId(group, LeaderIndexAt(view, replicas));
  }
  bool IsMember(ActorId id) const {
    return id >= kCoordinatorBaseId && id < kCoordinatorBaseId + total();
  }
  /// Group / replica index of a member id (caller guarantees IsMember).
  uint32_t GroupOfMember(ActorId id) const {
    return (id - kCoordinatorBaseId) / (replicas == 0 ? 1 : replicas);
  }
  uint32_t IndexOfMember(ActorId id) const {
    return (id - kCoordinatorBaseId) % (replicas == 0 ? 1 : replicas);
  }
};

}  // namespace sbft::core

#endif  // SBFT_CORE_COORD_GROUP_H_
