#ifndef SBFT_CORE_CONFIG_H_
#define SBFT_CORE_CONFIG_H_

#include <vector>

#include "common/ids.h"
#include "core/coord_group.h"
#include "core/coordinator.h"
#include "crypto/keys.h"
#include "serverless/cloud.h"
#include "shim/shim_config.h"
#include "sim/network.h"
#include "verifier/verifier.h"
#include "workload/traffic.h"
#include "workload/ycsb.h"

namespace sbft::core {

// kCoordinatorBaseId and the CoordGroups topology helper (member id
// layout, gid->group hash, leader arithmetic) live in coord_group.h.

/// The verifier and coordinator defaults SystemConfig's fields start
/// from, so each default is written once (in verifier::VerifierConfig
/// and CoordinatorOptions).
inline constexpr verifier::VerifierConfig kVerifierDefaults{};
inline constexpr CoordinatorOptions kCoordinatorDefaults{};

/// Which consensus/execution stack the shim runs (paper §IX-H baselines,
/// plus the §IV-B linear-communication extension).
enum class Protocol {
  kServerlessBft = 0,  ///< The paper's protocol: PBFT shim + executors.
  kServerlessCft = 1,  ///< Multi-Paxos shim + executors.
  kPbftBaseline = 2,   ///< PBFT shim, replicated local execution, no cloud.
  /// The Multi-Paxos shim on one node (shim.n is set to 1): it commits
  /// each batch as it proposes it, with no consensus message.
  kNoShim = 3,
  /// The PBFT shim with the collector vote pattern (PoE/SBFT-style linear
  /// communication, §IV-B remark) + executors.
  kServerlessBftLinear = 4,
};

/// Where executors are spawned from (paper §VI-B).
enum class SpawnMode {
  kPrimaryOnly = 0,    ///< The primary spawns all n_E executors (Fig. 3).
  kDecentralized = 1,  ///< Every node spawns e executors (eq. (1)/(2)).
};

/// \brief CPU cost model for the protocol-processing work at shim nodes,
/// the verifier, and clients.
///
/// These constants substitute for the real CryptoPP/ResilientDB
/// per-message costs of the paper's testbed; they are calibrated so the
/// simulated throughput/latency curves land in the paper's regime
/// (DESIGN.md §16). Simulated crypto cost is decoupled from the wall-clock
/// CryptoMode so the biggest sweeps can run with kNone.
struct CostModel {
  /// Producing one digital signature.
  SimDuration ds_sign = Micros(55);
  /// Verifying one digital signature.
  SimDuration ds_verify = Micros(110);
  /// Computing or checking one MAC.
  SimDuration mac = Micros(2);
  /// Fixed per-message dispatch overhead (deserialize, route).
  SimDuration per_message = Micros(3);
  /// Per-transaction batch-handling overhead (hash, copy).
  SimDuration per_txn = Micros(2);
  /// Coordinator verifying one shard PREPARE vote share plus quorum
  /// bookkeeping. A kShardVoteCert of K shares is charged this for the
  /// first share and half of it for each further one (batch
  /// verification), instead of the generic per_message.
  SimDuration twopc_vote_verify = Micros(6);
  /// Coordinator producing one signed decision message (MAC per
  /// recipient + durable-log append share). Amortized onto the
  /// *receiving participant* per decision message — the kCommit
  /// convention of folding sender-side signing into the receiver charge
  /// — so vote retransmits during a coordinator outage are not billed
  /// phantom signatures.
  SimDuration twopc_decision_sign = Micros(8);
  /// Participant verifying one decision (MAC check + buffered write-set
  /// lookup), charged with twopc_decision_sign per decision received
  /// instead of the generic per_message.
  SimDuration twopc_decision_verify = Micros(4);
};

/// The one cost table every network cost function reads.
inline constexpr CostModel kCosts{};

/// \brief Full description of one architecture instance
/// A = {C, R, E, S, V} plus workload and infrastructure.
struct SystemConfig {
  // --- protocol selection ---
  Protocol protocol = Protocol::kServerlessBft;

  // --- shim (R) ---
  shim::ShimConfig shim;
  /// Cores per shim node (paper setup: 16; Fig. 6(ix,x) varies this).
  int shim_cores = 16;

  // --- executors (E) ---
  /// Executor fault bound f_E.
  uint32_t f_e = kVerifierDefaults.f_e;
  /// Executors spawned per batch; honest default 2f_E+1, or 3f_E+1 when
  /// conflicts are possible (§VI-B).
  uint32_t n_e = 3;
  SpawnMode spawn_mode = SpawnMode::kPrimaryOnly;
  /// Number of cloud regions executors round-robin over (1..11).
  uint32_t executor_regions = 3;
  /// Byzantine executors injected per batch (first k of the set).
  int byzantine_executors = 0;
  serverless::ExecutorBehavior byzantine_executor_behavior =
      serverless::ExecutorBehavior::kWrongResult;
  serverless::CloudConfig cloud;

  // --- verifier + storage (V, S) ---
  int verifier_cores = 8;
  /// Unknown-rw-set conflict handling (§VI-B): abort timer + 3f_E+1.
  bool conflicts_possible = kVerifierDefaults.conflicts_possible;
  /// Best-effort conflict avoidance at the primary (§VI-C); requires
  /// workload.rw_sets_known.
  bool conflict_avoidance = false;
  SimDuration verifier_match_timeout = kVerifierDefaults.match_timeout;

  // --- PBFT baseline execution (Fig. 8) ---
  /// Execution threads per node for Protocol::kPbftBaseline.
  int execution_threads = 8;

  // --- sharded data plane ---
  /// Shard planes the store and commit path are hash-partitioned over
  /// (1 = the original single-plane architecture; >1 instantiates one
  /// shim cluster + verifier + store partition + executor pool per shard
  /// behind a ShardRouter, with cross-shard transactions running 2PC
  /// over the BFT shards). Currently supported for >1 with the default
  /// kServerlessBft protocol.
  uint32_t shard_count = 1;
  /// Coordinator's 2PC vote-collection timeout; expiry without all votes
  /// logs a presumed ABORT.
  SimDuration coordinator_vote_timeout = kCoordinatorDefaults.vote_timeout;
  /// Per-key FIFO cap for transactions queueing behind a 2PC prepare
  /// lock at shard verifiers (bounded prepare-lock queueing); see
  /// verifier::VerifierConfig.
  uint32_t prepare_lock_queue_depth =
      kVerifierDefaults.prepare_lock_queue_depth;
  /// Size of each coordinator group (DESIGN.md §10): R TxnCoordinator
  /// members (actor ids kCoordinatorBaseId + r) forming a CFT cluster
  /// that quorum-replicates the 2PC decision log; a standby takes over
  /// mid-2PC when the leader crashes. 1 is a group of one: it runs the
  /// same protocol as its own majority, so it logs every decision and
  /// takes over its own log when it recovers, but sends no group message.
  uint32_t coordinator_replicas = 1;
  /// Number of independent coordinator groups the global-txn-id space
  /// is hash-partitioned over (DESIGN.md §12). 1 keeps a single group,
  /// which owns every gid. G > 1 instantiates G groups of
  /// `coordinator_replicas` members each (group-major actor ids, see
  /// CoordGroups in coord_group.h); every cross-shard transaction is
  /// owned by the group its gid hashes to, so up to G leaders serve 2PC
  /// decisions in parallel — each group with its own quorum-fenced log,
  /// presumed-abort path, watermark, and failover timers. Capped at 64
  /// (64 x 9 members fit the reserved actor-id block).
  uint32_t coordinator_groups = 1;
  /// Core count of each coordinator member's machine. 0 (the default)
  /// inherits `verifier_cores` — the historical sizing, part of the
  /// golden-digest anchor. Benches set it explicitly to model a small
  /// coordination tier whose CPU, not the shard planes, binds the
  /// cross-shard knee (bench_fig13).
  int coordinator_cores = 0;
  /// Leader heartbeat period inside the coordinator group. Heartbeats
  /// tell the followers the leader is alive and carry its watermark and
  /// the gids it truncated; followers do not ack them. Presumed-abort answers need no lease:
  /// each is quorum-logged before it is sent, like any decision.
  SimDuration coordinator_heartbeat = kCoordinatorDefaults.heartbeat_interval;
  /// Follower silence threshold before it bumps the view and (if it is
  /// the new view's leader) starts takeover.
  SimDuration coordinator_failover_timeout =
      kCoordinatorDefaults.failover_timeout;

  // --- clients (C) ---
  uint32_t num_clients = 400;
  SimDuration client_timeout = Millis(2500);

  // --- workload ---
  workload::YcsbConfig workload;
  /// Traffic discipline of the TrafficSource actors: closed loop by
  /// default (`num_clients` of them, `client_timeout` each); with
  /// `traffic.open_loop` set, `traffic.sources` of them inject at the
  /// configured offered rate instead — see workload/traffic.h.
  workload::TrafficConfig traffic;

  // --- infrastructure ---
  sim::NetworkConfig network;
  crypto::CryptoMode crypto_mode = crypto::CryptoMode::kFast;
  uint64_t seed = 1;
  /// Worker threads for the parallel simulation engine (DESIGN.md §11).
  /// 0 (default) runs the single serial event loop — the byte-identical
  /// golden-digest anchor. >0 gives every shard plane its own event loop
  /// (plus one global loop for clients/sources/the coordinator group),
  /// multiplexed over this many worker threads and synchronized by
  /// conservative lookahead at the cross-loop boundaries. Results are
  /// deterministic for a fixed seed regardless of the thread count, but
  /// differ from the serial engine's event interleaving (the loops'
  /// clocks advance independently within the lookahead window). Requires
  /// shard_count > 1, ignored (with a log) otherwise. Fault injection
  /// refuses it (FaultController::Install returns NotSupported).
  int sim_threads = 0;

  /// Cores of each coordinator member's machine: `coordinator_cores`, or
  /// `verifier_cores` when that is 0.
  int CoordinatorCores() const {
    return coordinator_cores > 0 ? coordinator_cores : verifier_cores;
  }

  /// Effective executor count per batch: honours §VI-B's 3f_E+1 rule.
  uint32_t EffectiveExecutors() const {
    if (conflicts_possible) {
      return std::max<uint32_t>(n_e, 3 * f_e + 1);
    }
    return std::max<uint32_t>(n_e, 2 * f_e + 1);
  }

  /// Commit-certificate quorum executors/verifier demand. The crash-fault
  /// shim (CFT, and no shim, its group of one) carries no signatures
  /// (paper §IX-H), so its quorum is zero.
  uint32_t CertQuorum() const {
    switch (protocol) {
      case Protocol::kServerlessBft:
      case Protocol::kServerlessBftLinear:
      case Protocol::kPbftBaseline:
        return shim.quorum();
      case Protocol::kServerlessCft:
      case Protocol::kNoShim:
        return 0;
    }
    return shim.quorum();
  }
};

}  // namespace sbft::core

#endif  // SBFT_CORE_CONFIG_H_
