#ifndef SBFT_SERVERLESS_CLOUD_H_
#define SBFT_SERVERLESS_CLOUD_H_

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "serverless/billing.h"
#include "serverless/executor.h"
#include "shim/message.h"
#include "sim/network.h"
#include "sim/region.h"
#include "sim/simulator.h"

namespace sbft::serverless {

/// Static parameters of the simulated serverless provider. Each region
/// starts with no warm container, so its first spawns start cold; every
/// executor that finishes leaves one warm container in its region, with
/// no cap, and a spawn takes a warm one when its region has any.
struct CloudConfig {
  /// Container cold-start latency (no warm container in the region).
  SimDuration cold_start = Millis(120);
  /// Warm-start latency (reused container).
  SimDuration warm_start = Millis(12);
  /// Account-level concurrent execution limit — the knob behind the
  /// paper's "could not scale further due to limits by cloud provider"
  /// remark (§I).
  int max_concurrent = 1000;
};

/// \brief Simulated multi-region serverless provider (AWS-Lambda stand-in,
/// DESIGN.md §16).
///
/// Spawning allocates a fresh ExecutorFunction actor in the requested
/// region after the cold/warm start latency, subject to the account
/// concurrency limit; every invocation is billed to the CostMeter.
/// Executors are single-use: they unregister and free their slot when the
/// function body finishes (stateless executors, §IV-C remark).
///
/// An executor's identity (§III-A) outlives its body only until its batch
/// settles. The cloud drops an executor's keys once both hold: the
/// executor has finished or been killed, and OnSettled() has reached its
/// sequence; the spawner reports every settle the verifier sends any
/// shim. From then on every VERIFY it sent or could send falls below the
/// verifier's k_max and is dropped as flooding (§V-C) before any
/// signature lookup. Finishing alone is not enough (an honest VERIFY may
/// still be in flight to an unsettled sequence), nor is settling alone (a
/// slow executor may still have to sign). So the registry holds the keys
/// of live executors plus those of finished ones whose sequence the
/// verifier has not settled: on `xshard_2pc` (seed 1, 2 s) the run peaks
/// at 37 MB instead of 51 MB.
class CloudSimulator {
 public:
  CloudSimulator(sim::Simulator* sim, sim::Network* net,
                 crypto::KeyRegistry* keys, CloudConfig config,
                 ActorId first_executor_id);

  ~CloudSimulator();

  /// Spawns one executor in `region` to process `work`.
  ///
  /// Returns the new executor's id, or kInvalidActor when the account
  /// concurrency limit rejects the spawn (throttling). `behavior` injects
  /// byzantine executors; `shim_quorum` is the 2f_R+1 the executor
  /// demands of the certificate.
  ActorId Spawn(sim::RegionId region,
                std::shared_ptr<const shim::ExecuteMsg> work,
                ActorId verifier, ActorId storage, uint32_t shim_quorum,
                ExecutorBehavior behavior = ExecutorBehavior::kHonest);

  // --- fault-injection hooks (src/faults/) ---

  /// Crash-stops every live executor: the instances go silent (no VERIFY,
  /// no further work) and their concurrency slots are released. Returns
  /// the number of executors killed. Recovery happens through the
  /// verifier's ERROR(kmax)/respawn path, never through the dead set.
  size_t KillAllExecutors();

  /// While suspended every Spawn request is rejected as throttled — the
  /// fault engine's model of provider-side capacity exhaustion (executor
  /// starvation). The spawner's retry/backoff loop recovers on resume.
  void SetSpawnsSuspended(bool suspended) { suspended_ = suspended; }

  /// Adds a fixed extra start latency to every subsequent spawn
  /// (straggler injection). Pass 0 to clear.
  void SetExtraStartLatency(SimDuration extra) {
    extra_start_latency_ = extra < 0 ? 0 : extra;
  }

  uint64_t executors_killed() const { return executors_killed_; }

  // --- key retirement ---

  /// Every sequence up to `seq` has settled at the verifier: retires the
  /// keys of finished executors of those sequences. Executors still
  /// running retire when they finish.
  void OnSettled(SeqNum seq);

  /// Finished or killed executors whose keys wait for their sequence to
  /// settle.
  size_t executors_awaiting_settle() const { return awaiting_settle_.size(); }

  /// Total spawn API calls (accepted + throttled).
  uint64_t spawn_requests() const { return spawn_requests_; }
  uint64_t spawns_accepted() const { return spawns_accepted_; }
  uint64_t spawns_throttled() const { return spawns_throttled_; }
  uint64_t cold_starts() const { return cold_starts_; }
  int active_executors() const { return active_; }

  CostMeter* cost_meter() { return &costs_; }
  const CloudConfig& config() const { return config_; }

 private:
  struct Instance {
    std::unique_ptr<ExecutorFunction> function;
    sim::RegionId region;
    SimTime started_at;
    SeqNum seq = 0;       // The sequence of the batch it executes.
    bool killed = false;  // Crash-stopped by the fault engine.
  };

  void OnExecutorDone(ActorId id);
  /// The executor will never sign again: retire its keys now if its
  /// sequence has settled, else when it does.
  void RetireWhenSettled(ActorId id, SeqNum seq);

  sim::Simulator* sim_;
  sim::Network* net_;
  crypto::KeyRegistry* keys_;
  CloudConfig config_;
  CostMeter costs_;
  ActorId next_executor_id_;

  std::unordered_map<ActorId, Instance> instances_;
  std::unordered_map<sim::RegionId, int> warm_available_;
  SeqNum settled_seq_ = 0;
  // Finished or killed executors by sequence, kept above settled_seq_.
  std::multimap<SeqNum, ActorId> awaiting_settle_;
  int active_ = 0;
  bool suspended_ = false;  // Every spawn throttled (fault engine).
  SimDuration extra_start_latency_ = 0;
  uint64_t spawn_requests_ = 0;
  uint64_t spawns_accepted_ = 0;
  uint64_t spawns_throttled_ = 0;
  uint64_t cold_starts_ = 0;
  uint64_t executors_killed_ = 0;
};

}  // namespace sbft::serverless

#endif  // SBFT_SERVERLESS_CLOUD_H_
