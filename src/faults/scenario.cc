#include "faults/scenario.h"

namespace sbft::faults {

namespace {

/// Small, fast architecture shared by the bundled scenarios: 4 shim nodes
/// (f_R = 1), 3 executors (f_E = 1), 8 closed-loop clients. Sized so one
/// scenario simulates in well under a wall-clock second while still
/// exercising batching, pipelining, checkpoints, and the Fig. 4 timers.
core::SystemConfig ScenarioBaseConfig(uint64_t seed) {
  core::SystemConfig config;
  config.shim.n = 4;
  config.shim.batch_size = 2;
  config.shim.checkpoint_interval = 8;
  config.n_e = 3;
  config.f_e = 1;
  config.num_clients = 8;
  config.client_timeout = Millis(400);
  config.workload.record_count = 1000;
  config.crypto_mode = crypto::CryptoMode::kFast;
  config.seed = seed;
  return config;
}

}  // namespace

std::vector<Scenario> BuiltinScenarios(uint64_t seed) {
  std::vector<Scenario> scenarios;

  {
    Scenario s;
    s.name = "primary_crash";
    s.description =
        "Primary crash-stops mid-run and later restarts; the shim replaces "
        "it via the view-change timers and the node catches up through "
        "featherweight checkpoints.";
    s.config = ScenarioBaseConfig(seed);
    s.schedule_text =
        "at 1s crash node 0\n"
        "at 3500ms recover node 0\n";
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "rolling_shim_crashes";
    s.description =
        "One shim node at a time crash-stops and recovers, rolling through "
        "three of the four nodes; consensus never loses its quorum.";
    s.config = ScenarioBaseConfig(seed);
    s.schedule_text =
        "at 1s crash node 3\n"
        "at 2s recover node 3\n"
        "at 2500ms crash node 2\n"
        "at 3500ms recover node 2\n"
        "at 4s crash node 1\n"
        "at 5s recover node 1\n";
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "partition_heal";
    s.description =
        "The primary is partitioned away from the three backups, the "
        "verifier's ERROR/Υ timers force a view change, and commits resume "
        "after the partition heals.";
    s.config = ScenarioBaseConfig(seed);
    s.schedule_text =
        "at 1s partition nodes 0 | 1 2 3\n"
        "at 3s heal nodes\n";
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "equivocating_primary";
    s.description =
        "The primary equivocates (two batches for one sequence number); "
        "safety must hold — honest nodes never diverge and the audit chain "
        "stays intact.";
    s.config = ScenarioBaseConfig(seed);
    s.schedule_text = "at 500ms byzantine node 0 equivocate\n";
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "executor_starvation";
    s.description =
        "The provider rejects every spawn for 1.5 simulated seconds "
        "(capacity exhaustion) while in-flight executors are massacred; "
        "the spawner's retry loop plus the verifier's respawn path recover "
        "once capacity returns.";
    s.config = ScenarioBaseConfig(seed);
    s.schedule_text =
        "at 1s suspend spawns\n"
        "at 1s kill executors\n"
        "at 2500ms resume spawns\n";
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "lossy_wan";
    s.description =
        "Every shim-to-shim link drops, duplicates, and delays messages "
        "while executor regions flap in and out of a partition with the "
        "home site — the paper's asynchrony assumptions at full tilt.";
    s.config = ScenarioBaseConfig(seed);
    // Links among the four shim nodes: 6 pairs.
    s.schedule_text =
        "at 500ms link 0 1 drop 0.05 dup 0.05 delay 2ms\n"
        "at 500ms link 0 2 drop 0.05 dup 0.05 delay 2ms\n"
        "at 500ms link 0 3 drop 0.05 dup 0.05 delay 2ms\n"
        "at 500ms link 1 2 drop 0.05 dup 0.05 delay 2ms\n"
        "at 500ms link 1 3 drop 0.05 dup 0.05 delay 2ms\n"
        "at 500ms link 2 3 drop 0.05 dup 0.05 delay 2ms\n"
        "at 1500ms partition regions 0 2\n"
        "at 2500ms heal regions 0 2\n"
        "at 3s partition regions 0 3\n"
        "at 4s heal regions 0 3\n";
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "executor_massacre";
    s.description =
        "All live executors are crash-stopped twice; committed sequences "
        "must still settle through the ERROR(kmax)/respawn path — "
        "respawns, never unsafety.";
    s.config = ScenarioBaseConfig(seed);
    s.schedule_text =
        "at 1s kill executors\n"
        "at 3s kill executors\n";
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "skewed_clocks";
    s.description =
        "Two shim nodes run with skewed clocks (all their traffic lags) "
        "and freshly spawned executors straggle; throughput droops but "
        "liveness and safety hold.";
    s.config = ScenarioBaseConfig(seed);
    s.schedule_text =
        "at 500ms skew node 2 3ms\n"
        "at 500ms skew node 3 5ms\n"
        "at 1s straggle executors 60ms\n";
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "shard_partition";
    s.description =
        "Sharded plane (2 shards), 10% cross-shard 2PC: shard 0's primary "
        "is partitioned away from its backups while shard 1 keeps "
        "committing; cross-shard transactions touching the stalled shard "
        "resolve through the coordinator's presumed-abort timeout and "
        "commits resume after the heal — atomicity must hold throughout.";
    s.config = ScenarioBaseConfig(seed);
    s.config.shard_count = 2;
    s.config.workload.cross_shard_percentage = 10.0;
    s.config.coordinator_vote_timeout = Millis(600);
    // Global node indexes are shard-major: 0-3 = shard 0, 4-7 = shard 1.
    s.schedule_text =
        "at 1s partition nodes 0 | 1 2 3\n"
        "at 3s heal nodes\n";
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "coordinator_crash_2pc";
    s.description =
        "Sharded plane (2 shards), 25% cross-shard 2PC: the coordinator "
        "crash-stops mid-protocol — between PREPARE votes and COMMIT "
        "decisions — leaving shards holding prepare locks. Participants "
        "re-send votes until the recovered coordinator answers from its "
        "durable decision log (or presumed-aborts in-doubt transactions); "
        "no shard may apply a write set another shard aborted.";
    s.config = ScenarioBaseConfig(seed);
    s.config.shard_count = 2;
    s.config.workload.cross_shard_percentage = 25.0;
    s.config.coordinator_vote_timeout = Millis(600);
    s.schedule_text =
        "at 1s crash coordinator\n"
        "at 2500ms recover coordinator\n";
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "lock_contention_2pc";
    s.description =
        "The unified commit path under fire: 2 shards, 50% cross-shard, "
        "30% hot-key conflicts over a small keyspace, bounded prepare-lock "
        "queueing (depth 8) and the fully-decided watermark both on, with "
        "the coordinator crash-stopping mid-protocol so shards sit on "
        "prepare locks with queued waiters behind them. Every waiter must "
        "resolve at a decision (never outlive one), queue depth stays "
        "within its cap, and 2PC bookkeeping stays watermark-pruned — "
        "while atomicity and the audit chains hold.";
    s.config = ScenarioBaseConfig(seed);
    s.config.shard_count = 2;
    s.config.num_clients = 16;
    s.config.workload.record_count = 400;
    s.config.workload.cross_shard_percentage = 50.0;
    s.config.workload.conflict_percentage = 30.0;
    s.config.workload.hot_keys = 4;
    s.config.conflicts_possible = true;
    s.config.n_e = 4;  // 3f_E + 1 under conflicts (§VI-B).
    s.config.coordinator_vote_timeout = Millis(600);
    s.config.prepare_lock_queue_depth = 8;
    s.schedule_text =
        "at 1s crash coordinator\n"
        "at 2s recover coordinator\n";
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "thundering_herd_retry";
    s.description =
        "Open-loop bursty traffic (on/off square wave above the small "
        "system's capacity) over 2 shards, with shard 1's backups "
        "crash-stopping mid-burst. Timed-out transactions retransmit to "
        "the verifiers while fresh arrivals keep landing — the thundering "
        "herd — but the per-source retry cap bounds the amplification, "
        "shedding the excess as counted drops instead of a retransmit "
        "storm, and commits resume when the nodes recover.";
    s.config = ScenarioBaseConfig(seed);
    s.config.shard_count = 2;
    s.config.workload.cross_shard_percentage = 10.0;
    s.config.coordinator_vote_timeout = Millis(600);
    s.config.traffic.open_loop = true;
    s.config.traffic.sources = 2;
    s.config.traffic.offered_tps = 900.0;
    s.config.traffic.arrival = workload::ArrivalKind::kBursty;
    s.config.traffic.burst_on = Millis(300);
    s.config.traffic.burst_off = Millis(700);
    s.config.traffic.burst_idle_fraction = 0.1;
    s.config.traffic.retry_timeout = Millis(300);
    s.config.traffic.retry_inflight_cap = 16;
    s.config.traffic.max_inflight = 600;
    // Shard-major node indexes: 4-7 = shard 1; crash two backups so the
    // shard stalls (quorum lost) for the middle of a burst window.
    s.schedule_text =
        "at 1200ms crash node 5\n"
        "at 1300ms crash node 6\n"
        "at 2600ms recover node 5\n"
        "at 2600ms recover node 6\n";
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "gray_straggler_peak";
    s.description =
        "Open-loop diurnal traffic ramping to its peak exactly when the "
        "executor fleet turns gray (every spawned executor straggles) — "
        "the worst-case phase alignment. The verifier's ERROR/respawn "
        "timers and the source-side retry cap must absorb the peak; "
        "goodput dips but the system neither deadlocks nor melts into "
        "unbounded retransmits, and it drains once the stragglers clear.";
    s.config = ScenarioBaseConfig(seed);
    s.config.traffic.open_loop = true;
    s.config.traffic.sources = 2;
    s.config.traffic.offered_tps = 500.0;
    s.config.traffic.arrival = workload::ArrivalKind::kDiurnal;
    s.config.traffic.diurnal_trace = {0.2, 0.5, 1.0, 0.5, 0.2};
    s.config.traffic.diurnal_step = Millis(1000);
    s.config.traffic.retry_timeout = Millis(300);
    s.config.traffic.retry_inflight_cap = 16;
    s.config.traffic.max_inflight = 600;
    // The trace peaks in [2s, 3s); the gray phase covers it.
    s.schedule_text =
        "at 1800ms straggle executors 40ms\n"
        "at 3200ms straggle executors 0ms\n";
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "coordinator_leader_crash_2pc";
    s.description =
        "Replicated coordinator group (3 members), 2 shards, 25% "
        "cross-shard 2PC: the serving leader crash-stops mid-protocol — "
        "prepare votes collected, decisions half-broadcast. A standby "
        "detects the silence, majority-syncs the replicated decision log, "
        "re-replicates it under its view, and finishes the in-flight "
        "transactions from retransmitted votes; participants follow the "
        "view-stamped redirects. Every decided transaction must resolve "
        "atomically, prepare locks must all release, and the old leader "
        "rejoins as a follower on recovery.";
    s.config = ScenarioBaseConfig(seed);
    s.config.shard_count = 2;
    s.config.workload.cross_shard_percentage = 25.0;
    s.config.coordinator_vote_timeout = Millis(600);
    s.config.coordinator_replicas = 3;
    s.config.coordinator_heartbeat = Millis(100);
    s.config.coordinator_failover_timeout = Millis(400);
    s.schedule_text =
        "at 1s crash coordinator leader\n"
        "at 3s recover coordinator 0\n";
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "coordinator_partition_minority";
    s.description =
        "Replicated coordinator group (3 members), 2 shards, 25% "
        "cross-shard 2PC: the leader is partitioned away from both "
        "standbys (coordinator-to-coordinator links only — it still hears "
        "shards and clients). Its decision appends can no longer reach a "
        "quorum, so it stalls rather than decide alone; the majority side "
        "elects a new leader that finishes the in-flight work. After the "
        "heal the deposed leader learns the higher view from an append "
        "ack and demotes — two coordinators must never both serve "
        "decisions that contradict.";
    s.config = ScenarioBaseConfig(seed);
    s.config.shard_count = 2;
    s.config.workload.cross_shard_percentage = 25.0;
    s.config.coordinator_vote_timeout = Millis(600);
    s.config.coordinator_replicas = 3;
    s.config.coordinator_heartbeat = Millis(100);
    s.config.coordinator_failover_timeout = Millis(400);
    s.schedule_text =
        "at 1s partition coordinators 0 | 1 2\n"
        "at 3s heal coordinators\n";
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

Result<Scenario> FindScenario(const std::string& name, uint64_t seed) {
  for (Scenario& scenario : BuiltinScenarios(seed)) {
    if (scenario.name == name) return std::move(scenario);
  }
  return Status::NotFound("unknown scenario: " + name);
}

}  // namespace sbft::faults
