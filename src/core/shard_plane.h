#ifndef SBFT_CORE_SHARD_PLANE_H_
#define SBFT_CORE_SHARD_PLANE_H_

#include <map>
#include <memory>
#include <vector>

#include "core/config.h"
#include "core/spawner.h"
#include "serverless/cloud.h"
#include "shim/pbft_replica.h"
#include "storage/kv_store.h"
#include "verifier/verifier.h"

namespace sbft::core {

/// \brief One self-contained data-plane unit of the sharded architecture:
/// a shim cluster, a verifier + store partition, and an executor pool
/// (cloud provider + spawner), all registered on the shared simulator and
/// network.
///
/// The Architecture composes `SystemConfig::shard_count` of these planes
/// behind a ShardRouter. Shard 0 keeps the historical well-known actor
/// ids and the exact construction order of the pre-sharding monolithic
/// Architecture, so a single-plane system replays byte-identically to
/// the old code (the golden scenario digests pin this).
class ShardPlane {
 public:
  // --- well-known actor id blocks, by shard ---
  static constexpr ActorId ShimActorId(uint32_t shard, uint32_t index) {
    return shard * 10000 + index + 1;
  }
  static constexpr ActorId VerifierId(uint32_t shard) {
    return 900000 + shard * 1000;
  }
  static constexpr ActorId StorageId(uint32_t shard) {
    return 900001 + shard * 1000;
  }
  static constexpr ActorId FirstExecutorId(uint32_t shard) {
    return 5000000 + shard * 50000000;
  }

  ShardPlane(uint32_t shard, const SystemConfig& config,
             sim::Simulator* sim, sim::Network* net,
             crypto::KeyRegistry* keys);
  ~ShardPlane();

  ShardPlane(const ShardPlane&) = delete;
  ShardPlane& operator=(const ShardPlane&) = delete;

  /// Builds and wires shim, verifier/storage, cloud, and spawner. Call
  /// once, after the store partition has been loaded.
  void Build();

  uint32_t shard() const { return shard_; }
  storage::KvStore* store() { return &store_; }
  verifier::Verifier* verifier() { return verifier_.get(); }
  serverless::CloudSimulator* cloud() { return cloud_.get(); }
  Spawner* spawner() { return spawner_.get(); }

  const std::vector<ActorId>& shim_ids() const { return shim_ids_; }
  ActorId verifier_id() const { return VerifierId(shard_); }

  /// This plane's shim nodes, by index.
  const std::vector<std::unique_ptr<shim::Replica>>& replicas() const {
    return replicas_;
  }
  /// The same nodes typed as PbftReplicas, for what only PBFT has (the
  /// byzantine behaviour, checkpoints); empty on a crash-fault plane.
  const std::vector<shim::PbftReplica*>& pbft_replicas() const {
    return pbft_replicas_;
  }

  /// The shim node clients (or the coordinator) should currently talk to:
  /// for PBFT, the primary of the highest view among the replicas that
  /// are not byzantine when it is called.
  ActorId CurrentPrimary() const;

  /// Completed view changes across this plane's replicas.
  uint64_t ViewChanges() const;

 private:
  void BuildShim();
  void BuildVerifierAndStorage();
  void BuildCloudAndSpawner();
  void WireCommitCallbacks();
  void WirePbftCallbacks();
  void WirePbftBaselineExecution();
  /// A RESPONSE reached one of this plane's shim nodes.
  void OnShimResponse(ActorId from, const shim::ResponseMsg& msg);

  sim::Network::CostFn ShimCostFn() const;
  sim::Network::CostFn VerifierCostFn() const;
  sim::Network::CostFn StorageCostFn() const;

  uint32_t shard_;
  SystemConfig config_;
  sim::Simulator* sim_;
  sim::Network* net_;
  crypto::KeyRegistry* keys_;

  storage::KvStore store_;
  std::vector<ActorId> shim_ids_;
  std::vector<std::unique_ptr<shim::Replica>> replicas_;
  std::vector<shim::PbftReplica*> pbft_replicas_;
  std::vector<std::unique_ptr<sim::ServerResource>> shim_cpus_;
  // Execution pools for the PBFT baseline (Fig. 8 "ET" threads).
  std::vector<std::unique_ptr<sim::ServerResource>> exec_cpus_;

  std::unique_ptr<sim::ServerResource> verifier_cpu_;
  std::unique_ptr<verifier::Verifier> verifier_;
  std::unique_ptr<verifier::StorageActor> storage_actor_;
  std::unique_ptr<serverless::CloudSimulator> cloud_;
  std::unique_ptr<Spawner> spawner_;
};

}  // namespace sbft::core

#endif  // SBFT_CORE_SHARD_PLANE_H_
