#ifndef SBFT_CORE_ARCHITECTURE_H_
#define SBFT_CORE_ARCHITECTURE_H_

#include <memory>
#include <vector>

#include "common/histogram.h"
#include "core/config.h"
#include "core/coordinator.h"
#include "core/shard_plane.h"
#include "core/traffic_source.h"
#include "storage/shard_router.h"

namespace sbft::sim {
class ParallelSimulator;
}  // namespace sbft::sim

namespace sbft::core {

/// \brief Composes one complete architecture instance A = {C, R, E, S, V}
/// (paper §III) inside a deterministic simulation.
///
/// The data plane is sharded: `SystemConfig::shard_count` ShardPlane
/// units (each a shim cluster + verifier + store partition + executor
/// pool) sit behind a ShardRouter that hash-partitions the keyspace.
/// Clients send single-shard transactions to their home shard's primary
/// — the unmodified paper protocol — while transactions whose key set
/// spans shards go to the TxnCoordinator, which runs two-phase commit
/// over the BFT shards. With shard_count == 1 (the default) the wiring,
/// actor ids, and event order are identical to the pre-sharding
/// monolithic Architecture, so all legacy runs replay byte-identically.
///
/// Region placement mirrors the paper's setup (§IX): clients, shim
/// nodes, verifiers, coordinator, and storage sit at the OCI site
/// (region 0); executors are spawned in AWS regions 1..executor_regions.
class Architecture {
 public:
  explicit Architecture(const SystemConfig& config);
  ~Architecture();

  Architecture(const Architecture&) = delete;
  Architecture& operator=(const Architecture&) = delete;

  /// Starts every request source (the stores are loaded at
  /// construction).
  void Start();

  /// Advances the simulation to `deadline` on whichever engine is active:
  /// the serial event loop (sim_threads == 0) or the conservative
  /// parallel engine (DESIGN.md §11). Use this instead of
  /// simulator()->RunUntil so the same driver code serves both modes.
  void RunUntil(SimTime deadline);

  /// True when the parallel engine is active (config.sim_threads > 0 and
  /// the configuration supports it).
  bool parallel() const { return parallel_; }
  sim::ParallelSimulator* parallel_simulator() { return psim_.get(); }

  /// The event loop an actor id belongs to: loops 0..shard_count-1 are
  /// the shard planes, loop shard_count (the last) is the global loop
  /// (clients, sources, the coordinator group). A pure function of the
  /// id blocks — see ShardPlane's constants.
  int LoopOfActor(ActorId id) const;

  /// The global event loop (all actors' loop in serial mode; the
  /// clients/sources/coordinator loop in parallel mode).
  sim::Simulator* simulator() { return &sim_; }
  /// Shard `s`'s event loop: its own Simulator in parallel mode, the
  /// global one otherwise.
  sim::Simulator* plane_simulator(uint32_t s) {
    return parallel_ ? plane_sims_[s].get() : &sim_;
  }
  sim::Network* network() { return net_.get(); }
  crypto::KeyRegistry* keys() { return &keys_; }
  const SystemConfig& config() const { return config_; }

  // --- shard planes ---
  uint32_t shard_count() const {
    return static_cast<uint32_t>(planes_.size());
  }
  ShardPlane* plane(uint32_t shard) { return planes_[shard].get(); }
  const ShardPlane* plane(uint32_t shard) const {
    return planes_[shard].get();
  }
  const storage::ShardRouter& router() const { return router_; }
  /// Cross-shard 2PC coordinator — member (0, 0) (the view-0 leader of
  /// group 0 and the whole coordinator when `coordinator_groups` and
  /// `coordinator_replicas` are both 1); nullptr in single-plane
  /// systems.
  TxnCoordinator* coordinator() {
    return coordinators_.empty() ? nullptr : coordinators_[0].get();
  }
  /// Coordinator member by flat index (group-major: member r of group g
  /// is flat index g * replicas + r). The fault engine and the legacy
  /// tests address the topology through this flat view.
  TxnCoordinator* coordinator(uint32_t r) {
    return r < coordinators_.size() ? coordinators_[r].get() : nullptr;
  }
  /// Member r of coordinator group g (DESIGN.md §10/§12).
  TxnCoordinator* coordinator_member(uint32_t g, uint32_t r) {
    return coordinator(g * coord_topology_.replicas + r);
  }
  /// Total coordinator members across all groups (flat count G x R; the
  /// historical name predates gid partitioning).
  uint32_t coordinator_replicas() const {
    return static_cast<uint32_t>(coordinators_.size());
  }
  /// Number of gid-partitioned coordinator groups (1 = unpartitioned).
  uint32_t coordinator_groups() const { return coord_topology_.groups; }
  /// The clamped topology actually built (groups x replicas).
  const CoordGroups& coord_topology() const { return coord_topology_; }
  /// Where cross-shard traffic owned by `group` should go right now: the
  /// nominal leader of the highest view held by a live member of that
  /// group, falling back to any live member of the group (which
  /// forwards/redirects). Mirrors the shim's CurrentPrimary
  /// live-resolution convention.
  ActorId CurrentCoordinatorId(uint32_t group) const;
  /// Group 0's serving member (the whole topology when groups == 1).
  ActorId CurrentCoordinatorId() const { return CurrentCoordinatorId(0); }
  /// Sum of view changes across all coordinator members.
  uint64_t CoordinatorViewChanges() const;
  /// Per-group served-decision counts (commits + explicit aborts decided
  /// by each group's members). Index = group id; empty in single-plane
  /// systems. Feeds the RunReport imbalance observability.
  std::vector<uint64_t> CoordinatorGroupDecisions() const;

  // --- shard-0 conveniences (legacy accessors; tests and the figure
  // benches address the single-plane system through these) ---
  storage::KvStore* store() { return planes_[0]->store(); }
  verifier::Verifier* verifier() { return planes_[0]->verifier(); }
  serverless::CloudSimulator* cloud() { return planes_[0]->cloud(); }
  Spawner* spawner() { return planes_[0]->spawner(); }

  /// The request sources: `num_clients` closed-loop ones at
  /// kFirstClientId + i, or with `traffic.open_loop` the
  /// `traffic.sources` open-loop ones at kFirstSourceId + i.
  const std::vector<std::unique_ptr<TrafficSource>>& sources() const {
    return sources_;
  }

  /// Actor ids of all shim nodes, shard-major: global node index
  /// s * n + i is node i of shard s. Identical to the historical ids for
  /// shard_count == 1.
  const std::vector<ActorId>& shim_ids() const { return shim_ids_; }

  /// All shim nodes across shards, shard-major (raw pointers into the
  /// planes): global node index s * n + i is node i of shard s.
  const std::vector<shim::Replica*>& replicas() const {
    return replicas_flat_;
  }
  /// The same nodes typed as PbftReplicas; empty for the crash-fault
  /// protocols.
  const std::vector<shim::PbftReplica*>& pbft_replicas() const {
    return pbft_flat_;
  }

  /// Resolves the shim node clients of shard 0 should currently talk to.
  ActorId CurrentPrimary() const { return planes_[0]->CurrentPrimary(); }

  /// Where a client should send `txn`: its home shard's primary, or the
  /// coordinator when the key set spans shards.
  ActorId RouteTarget(const workload::Transaction& txn) const;
  /// Retransmission target after τ_m: the home shard's verifier, or the
  /// coordinator for cross-shard transactions (Fig. 4 client role).
  ActorId FallbackTarget(const workload::Transaction& txn) const;
  /// Latency histogram `txn` settles into: the one every source records
  /// into. Sources run on the global loop, so one thread writes it on
  /// either engine.
  Histogram* LatencyFor(const workload::Transaction& /*txn*/) {
    return &latency_;
  }

  /// Every source's client-observed latency, as one distribution.
  Histogram MergedLatency() const { return latency_; }
  /// Clears the latency histogram (start of measurement).
  void ResetLatency() { latency_.Reset(); }

  /// Turns the sources' latency recording on/off (used to skip warmup).
  void SetRecording(bool recording);

  /// Sum of completed (non-aborted) transactions across sources.
  uint64_t TotalCompleted() const;
  /// Sum of aborted transactions across sources.
  uint64_t TotalAborted() const;
  /// Sum of source retransmissions (Fig. 4 activity).
  uint64_t TotalRetransmissions() const;
  /// Sum of completed view changes across replicas of all shards.
  uint64_t TotalViewChanges() const;

  /// Units of work offered by the sources (requests or arrivals, plus
  /// workflow hops; retries not re-counted).
  uint64_t TotalOffered() const;
  /// Units abandoned (shed at caps or out of retry/hop budget).
  uint64_t TotalDropped() const;
  /// Architecture-wide in-flight high-water mark since the last reset.
  uint64_t PeakInflight() const { return inflight_.peak; }
  uint64_t CurrentInflight() const { return inflight_.inflight; }
  /// Restarts the high-water mark from the current backlog (start of the
  /// measurement window).
  void ResetPeakInflight() { inflight_.ResetPeak(); }

  // Well-known actor ids (shard 0 keeps the historical constants; see
  // ShardPlane for the per-shard id blocks).
  static constexpr ActorId kVerifierId = 900000;
  static constexpr ActorId kStorageId = 900001;
  /// Alias of core::kCoordinatorBaseId (config.h): group member r lives
  /// at kCoordinatorId + r.
  static constexpr ActorId kCoordinatorId = kCoordinatorBaseId;
  static constexpr ActorId kFirstClientId = 1000000;
  static constexpr ActorId kFirstSourceId = 2000000;
  static constexpr ActorId kFirstExecutorId = 5000000;

 private:
  /// Routing verdict for one transaction, computed in a single pass over
  /// its operations with no allocation (this runs per client send /
  /// response / timeout). `home` is the lowest shard touched — the same
  /// shard ShardsOf()[0] would report.
  struct Route {
    uint32_t home = 0;
    bool cross_shard = false;
  };

  void BuildCoordinator();
  void BuildCoordinatorMember(uint32_t r, const std::vector<ActorId>& group,
                              const std::vector<ActorId>& shard_verifiers,
                              const CoordinatorOptions& base_options);
  void BuildTrafficGenerator();
  void BuildSources();
  void AddSource(ActorId id, workload::TxnGenerator* generator,
                 std::unique_ptr<workload::ArrivalProcess> arrivals, Rng rng,
                 const workload::TrafficConfig& traffic);
  Route RouteOf(const workload::Transaction& txn) const;

  SystemConfig config_;
  sim::Simulator sim_;
  crypto::KeyRegistry keys_;
  /// Parallel mode only: one event loop per shard plane (sim_ stays the
  /// global loop). Empty in serial mode.
  std::vector<std::unique_ptr<sim::Simulator>> plane_sims_;
  std::unique_ptr<sim::ParallelSimulator> psim_;
  bool parallel_ = false;
  /// View-0 primaries, snapshotted at build time. Parallel-mode routing
  /// (clients on the global loop deciding where a transaction goes) reads
  /// this instead of the planes' live view state, which belongs to other
  /// threads; with fault injection excluded, views never move, so the
  /// snapshot is exact — and a stale read would only cost a client
  /// retransmit to the verifier anyway.
  std::vector<ActorId> static_primaries_;
  std::unique_ptr<sim::Network> net_;
  storage::ShardRouter router_;
  std::unique_ptr<workload::YcsbGenerator> generator_;
  /// Family generator the open-loop sources draw from. Null on the
  /// closed-loop path and for kYcsb, where the sources draw from
  /// generator_.
  std::unique_ptr<workload::TxnGenerator> traffic_generator_;
  /// Typed view of traffic_generator_ in workflow mode (HopTxn access).
  workload::WorkflowGenerator* workflow_generator_ = nullptr;

  std::vector<std::unique_ptr<ShardPlane>> planes_;
  /// All coordinator members, group-major (member r of group g at flat
  /// index g * replicas + r; size 1 = one group of one).
  std::vector<std::unique_ptr<TxnCoordinator>> coordinators_;
  /// The clamped coordinator topology (groups x replicas) actually
  /// built; {1, 1} until BuildCoordinator runs.
  CoordGroups coord_topology_;
  std::vector<std::unique_ptr<sim::ServerResource>> coordinator_cpus_;
  std::vector<std::unique_ptr<TrafficSource>> sources_;
  InflightGauge inflight_;
  Histogram latency_;

  // Flattened shard-major views over the planes (stable for the
  // architecture's lifetime).
  std::vector<ActorId> shim_ids_;
  std::vector<shim::Replica*> replicas_flat_;
  std::vector<shim::PbftReplica*> pbft_flat_;
};

}  // namespace sbft::core

#endif  // SBFT_CORE_ARCHITECTURE_H_
