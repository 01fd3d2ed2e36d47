#ifndef SBFT_FAULTS_FAULT_EVENT_H_
#define SBFT_FAULTS_FAULT_EVENT_H_

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "shim/shim_config.h"
#include "sim/network.h"

namespace sbft::faults {

/// What a scheduled fault event does when its time comes. Each kind maps
/// onto one runtime hook of the simulation (network, shim replicas, cloud,
/// spawner); the FaultController owns the mapping.
enum class FaultKind : uint8_t {
  kCrashReplica = 0,     ///< Crash-stop shim node `node`.
  kRecoverReplica,       ///< Un-crash shim node `node` (checkpoint catch-up).
  kPartitionNodes,       ///< Cut every link between group_a and group_b.
  kHealNodes,            ///< Restore all links among the shim nodes.
  kPartitionRegions,     ///< Partition regions region_a | region_b.
  kHealRegions,          ///< Heal the region pair.
  kLinkRule,             ///< Install per-link drop/dup/delay between
                         ///< nodes `node` and `node_b`.
  kClearLinkRule,        ///< Remove the per-link rule.
  kClockSkew,            ///< Delay all traffic of `node` by `delay`.
  kSetByzantine,         ///< Switch node `node` to `behavior`.
  kClearByzantine,       ///< Return node `node` to honesty.
  kKillExecutors,        ///< Crash-stop every live executor (all shards).
  kSuspendSpawns,        ///< Provider rejects all spawns (starvation).
  kResumeSpawns,         ///< Provider accepts spawns again.
  kStraggleExecutors,    ///< Extra start latency `delay` on future spawns.
  // Coordinator members (DESIGN.md §10). `node` is the flat member index,
  // not a shim node index; `crash coordinator` is member 0.
  kCrashCoordinatorMember,    ///< Crash-stop member `node`.
  kCrashCoordinatorLeader,    ///< Crash-stop whichever member currently
                              ///< leads (resolved when the event fires).
  kRecoverCoordinatorMember,  ///< Recover member `node` (volatile state
                              ///< lost, decision log kept).
  kPartitionCoordinators,     ///< Cut coordinator-to-coordinator links
                              ///< between group_a and group_b (member
                              ///< indexes); shard/client links stay up.
  kHealCoordinators,          ///< Restore all coordinator group links.
};

/// One timed fault, interpreted by FaultController at SimTime `at`.
/// Which fields are meaningful depends on `kind` (see the enum docs);
/// node references are *global* shim node indexes (0..S*n-1, shard-major:
/// index s*n+i is node i of shard s), not actor ids.
struct FaultEvent {
  SimTime at = 0;
  FaultKind kind = FaultKind::kCrashReplica;

  uint32_t node = 0;    ///< Primary node operand.
  uint32_t node_b = 0;  ///< Second endpoint for kLinkRule/kClearLinkRule.
  sim::RegionId region_a = 0;
  sim::RegionId region_b = 0;
  std::vector<uint32_t> group_a;  ///< kPartitionNodes side A.
  std::vector<uint32_t> group_b;  ///< kPartitionNodes side B.
  sim::LinkRule rule;             ///< kLinkRule payload.
  SimDuration delay = 0;          ///< kClockSkew / kStraggleExecutors.
  shim::ByzantineBehavior behavior;  ///< kSetByzantine payload.
};

}  // namespace sbft::faults

#endif  // SBFT_FAULTS_FAULT_EVENT_H_
