#ifndef SBFT_SHIM_SHIM_CONFIG_H_
#define SBFT_SHIM_SHIM_CONFIG_H_

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"

namespace sbft::shim {

/// Static parameters of the shim (the edge-device consensus layer).
struct ShimConfig {
  /// Number of shim nodes n_R (>= 3f_R + 1).
  uint32_t n = 4;

  /// Batch size for consensus (paper default: 100 client transactions).
  size_t batch_size = 100;

  /// Flush a partial batch after this long (keeps latency bounded at low
  /// load).
  SimDuration batch_timeout = Millis(5);

  /// Node timer τ_m: started on accepting a PREPREPARE, cancelled on
  /// commit; expiry triggers a view change (§V-A). A Multi-Paxos leader
  /// resends a slot's Accept each time it passes uncommitted.
  SimDuration request_timeout = Millis(800);

  /// Node re-transmission timer Υ: started when forwarding an ERROR to
  /// the primary; expiry without an ACK triggers a view change (§V-A2).
  SimDuration retransmit_timeout = Millis(600);

  /// If a view change does not complete in this window, escalate to the
  /// next view.
  SimDuration view_change_timeout = Millis(1500);

  /// Featherweight checkpoint period in sequence numbers (§V-B).
  uint32_t checkpoint_interval = 128;

  /// In-flight consensus slots at which full batches stop (PBFT watermark
  /// window); this is what "concurrent consensus invocation" (§VI-A)
  /// bounds. The batch_timeout flush still proposes past it.
  size_t pipeline_width = 64;

  /// Tolerated byzantine shim nodes f_R = floor((n-1)/3).
  uint32_t f() const { return (n - 1) / 3; }
  /// Quorum size 2f_R + 1.
  uint32_t quorum() const { return 2 * f() + 1; }
};

/// \brief Byzantine behaviour of one shim node. Default-constructed nodes
/// are honest; a fault schedule's `byzantine node` line (§V attacks) sets
/// one on the node's PbftReplica, the only holder, and `honest node`
/// clears it. A crash is not a behaviour: it is `crash node`.
struct ByzantineBehavior {
  /// Master switch; when false all other fields are ignored.
  bool byzantine = false;

  /// Request suppression (§V-A): as primary, drop client requests.
  bool suppress_requests = false;

  /// Nodes-in-dark (§V-B): as primary, exclude `dark_nodes` from
  /// PREPREPARE broadcasts (keeps the quorum at exactly 2f+1).
  std::vector<ActorId> dark_nodes;

  /// Equivocation (§V-B): as primary, propose two different batches for
  /// the same sequence number to two halves of the shim.
  bool equivocate = false;

  /// Byzantine-abort attack (§VI-B): as spawner, delay spawning executors
  /// by this much (0 = no delay).
  SimDuration spawn_delay = 0;

  /// Fewer-executors attack (§V-A): as spawner, spawn only this many
  /// executors (-1 = honest count).
  int spawn_count_override = -1;

  /// Verifier-flooding (§V-C): as spawner, spawn this many duplicate
  /// executor sets.
  int duplicate_spawns = 0;
};

}  // namespace sbft::shim

#endif  // SBFT_SHIM_SHIM_CONFIG_H_
