#include "core/architecture.h"

#include <algorithm>

#include "common/logging.h"
#include "sim/parallel.h"

namespace sbft::core {

Architecture::Architecture(const SystemConfig& config)
    : config_(config),
      sim_(config.seed),
      keys_(config.crypto_mode, config.seed),
      router_(1) {  // Re-assigned below once shard_count is validated.
  if (config_.shard_count == 0) config_.shard_count = 1;
  // Runtime-enforced (not assert: release builds must not silently run
  // an unsupported combination). Sharding is built for the paper's
  // ServerlessBFT protocol; other stacks clamp back to one plane. The
  // shard id blocks (ShardPlane) stay collision-free up to 64 planes.
  if (config_.shard_count > 1 &&
      config_.protocol != Protocol::kServerlessBft) {
    SBFT_LOG(kError) << "shard_count > 1 requires ServerlessBFT; "
                        "clamping to a single plane";
    config_.shard_count = 1;
  }
  if (config_.shard_count > 64) {
    SBFT_LOG(kError) << "shard_count capped at 64 (actor-id blocks)";
    config_.shard_count = 64;
  }
  // No shim is the crash-fault shim on one node (§IX-H), whatever the
  // configured node count.
  if (config_.protocol == Protocol::kNoShim) config_.shim.n = 1;
  // Coordinator topology clamps live here — before the shard planes are
  // built — because the verifiers' CoordGroups view (shard_plane.cc) is
  // derived from config_ and must match what BuildCoordinator builds.
  if (config_.coordinator_replicas < 1) config_.coordinator_replicas = 1;
  if (config_.coordinator_replicas > 9) {
    SBFT_LOG(kError) << "coordinator_replicas capped at 9";
    config_.coordinator_replicas = 9;
  }
  if (config_.coordinator_groups < 1) config_.coordinator_groups = 1;
  if (config_.coordinator_groups > 64) {
    SBFT_LOG(kError) << "coordinator_groups capped at 64 (actor-id block)";
    config_.coordinator_groups = 64;
  }
  router_ = storage::ShardRouter(config_.shard_count);
  // The workload generator places keys on deliberate shards for the
  // cross-shard knob; keep its view of the partitioning in sync.
  config_.workload.shard_count = config_.shard_count;

  // Parallel engine: only meaningful with more than one plane (a single
  // plane has nothing to overlap — its one loop would just pay the
  // synchronization tax). Fault injection is refused by
  // FaultController::Install, not here, because faults are installed
  // after construction.
  if (config_.sim_threads < 0) config_.sim_threads = 0;
  if (config_.sim_threads > 0 && config_.shard_count < 2) {
    SBFT_LOG(kError) << "sim_threads > 0 requires shard_count > 1; "
                        "running the serial engine";
    config_.sim_threads = 0;
  }
  parallel_ = config_.sim_threads > 0;
  if (parallel_) {
    // One event loop per plane; sim_ stays the global loop. Per-loop rng
    // streams derive from the root seed and the shard index — a pure
    // function of the configuration, so runs are identical for any
    // thread count.
    for (uint32_t s = 0; s < config_.shard_count; ++s) {
      plane_sims_.push_back(std::make_unique<sim::Simulator>(
          config_.seed ^ (0x51ab0000ull + s)));
    }
  }

  net_ = std::make_unique<sim::Network>(&sim_, sim::RegionTable::Aws11(),
                                        config_.network);
  generator_ = std::make_unique<workload::YcsbGenerator>(
      config_.workload, sim_.rng()->Fork(0x9c5b));
  // Open-loop traffic: the family generator forks its rng streams here,
  // strictly after the YCSB fork above — and only when the mode is on,
  // so closed-loop runs draw the exact historical sequence.
  if (config_.traffic.open_loop) BuildTrafficGenerator();
  // In open-loop mode the stores hold the traffic family's records (no
  // closed-loop clients run, so the YCSB rows would be dead weight for
  // other families).
  workload::TxnGenerator* loader = generator_.get();
  if (traffic_generator_ != nullptr) loader = traffic_generator_.get();

  // Build every shard plane in shard order. For shard_count == 1 this is
  // the exact construction sequence of the pre-sharding Architecture:
  // load the store, then shim, verifier/storage, cloud/spawner, wiring.
  // Keys are a pure function of (seed, id), so registration order does
  // not derive them.
  for (uint32_t s = 0; s < config_.shard_count; ++s) {
    sim::Simulator* plane_sim = parallel_ ? plane_sims_[s].get() : &sim_;
    auto plane = std::make_unique<ShardPlane>(s, config_, plane_sim,
                                              net_.get(), &keys_);
    loader->LoadInto(plane->store(), router_, s);
    plane->Build();
    planes_.push_back(std::move(plane));
  }

  // Flattened shard-major views.
  for (const auto& plane : planes_) {
    for (ActorId id : plane->shim_ids()) shim_ids_.push_back(id);
    for (const auto& r : plane->replicas()) replicas_flat_.push_back(r.get());
    for (shim::PbftReplica* r : plane->pbft_replicas()) pbft_flat_.push_back(r);
  }

  // Parallel-mode routing snapshot: the view-0 primaries, taken before
  // any event runs. See static_primaries_'s comment for why this is
  // exact under the no-faults restriction.
  if (parallel_) {
    for (const auto& plane : planes_) {
      static_primaries_.push_back(plane->CurrentPrimary());
    }
  }

  if (config_.shard_count > 1) BuildCoordinator();
  BuildSources();

  if (parallel_) {
    std::vector<sim::Simulator*> loop_sims;
    for (auto& plane_sim : plane_sims_) loop_sims.push_back(plane_sim.get());
    loop_sims.push_back(&sim_);  // Global loop last, by convention.
    sim::ParallelSimulator::Options options;
    options.threads = config_.sim_threads;
    options.lookahead = net_->CrossLoopFloor();
    psim_ = std::make_unique<sim::ParallelSimulator>(loop_sims, options);
    net_->EnableParallel(
        psim_.get(), [this](ActorId id) { return LoopOfActor(id); },
        loop_sims);
    keys_.EnableConcurrent();
  }
}

Architecture::~Architecture() = default;

void Architecture::RunUntil(SimTime deadline) {
  if (psim_ != nullptr) {
    psim_->RunUntil(deadline);
    return;
  }
  sim_.RunUntil(deadline);
}

int Architecture::LoopOfActor(ActorId id) const {
  const int global = static_cast<int>(planes_.size());
  constexpr ActorId kExecutorStride =
      ShardPlane::FirstExecutorId(1) - ShardPlane::FirstExecutorId(0);
  if (id >= kFirstExecutorId) {  // Executors: on their plane's loop.
    return static_cast<int>((id - kFirstExecutorId) / kExecutorStride);
  }
  if (id >= kFirstSourceId) return global;  // Traffic sources.
  if (id >= kFirstClientId) return global;  // Clients.
  if (id >= kVerifierId) {  // Verifier and storage blocks.
    return static_cast<int>((id - kVerifierId) / 1000);
  }
  if (id >= kCoordinatorId) return global;  // Coordinator group.
  if (id >= 1) {  // Shim nodes: shard * 10000 + index + 1.
    return static_cast<int>((id - 1) / 10000);
  }
  return global;
}

void Architecture::BuildCoordinator() {
  // Members are built group-major (all of group 0, then group 1, ...),
  // each as RegisterNode -> construct -> cpu -> Register -> AttachServer.
  coord_topology_ =
      CoordGroups{config_.coordinator_groups, config_.coordinator_replicas};
  std::vector<ActorId> shard_verifiers;
  for (uint32_t s = 0; s < config_.shard_count; ++s) {
    shard_verifiers.push_back(ShardPlane::VerifierId(s));
  }
  CoordinatorOptions base_options;
  base_options.vote_timeout = config_.coordinator_vote_timeout;
  base_options.num_groups = coord_topology_.groups;
  base_options.heartbeat_interval = config_.coordinator_heartbeat;
  base_options.failover_timeout = config_.coordinator_failover_timeout;
  for (uint32_t g = 0; g < coord_topology_.groups; ++g) {
    std::vector<ActorId> group;
    for (uint32_t r = 0; r < coord_topology_.replicas; ++r) {
      group.push_back(coord_topology_.MemberId(g, r));
    }
    CoordinatorOptions group_options = base_options;
    group_options.group = group;
    group_options.group_id = g;
    for (uint32_t r = 0; r < coord_topology_.replicas; ++r) {
      BuildCoordinatorMember(r, group, shard_verifiers, group_options);
    }
  }
}

void Architecture::BuildCoordinatorMember(
    uint32_t r, const std::vector<ActorId>& group,
    const std::vector<ActorId>& shard_verifiers,
    const CoordinatorOptions& base_options) {
  ActorId member_id = group[r];
  keys_.RegisterNode(member_id);
  CoordinatorOptions coordinator_options = base_options;
  coordinator_options.group_index = r;
  auto coordinator = std::make_unique<TxnCoordinator>(
      member_id, &router_, shard_verifiers,
      [this](uint32_t shard) {
        // The live primary belongs to the plane's own thread in parallel
        // mode; the build-time snapshot is exact there (no faults, so no
        // view changes).
        return parallel_ ? static_primaries_[shard]
                         : planes_[shard]->CurrentPrimary();
      },
      &keys_, &sim_, net_.get(), coordinator_options);
  auto cpu =
      std::make_unique<sim::ServerResource>(&sim_, config_.CoordinatorCores());
  net_->Register(coordinator.get(), sim::RegionTable::kHomeRegion);
  net_->AttachServer(
      member_id, cpu.get(),
      [](const sim::Envelope& env) -> SimDuration {
        const auto* msg =
            static_cast<const shim::Message*>(env.message.get());
        if (msg != nullptr && msg->kind == shim::MsgKind::kClientRequest) {
          // Verify the client's DS + sign each fragment (amortized).
          return kCosts.per_message + kCosts.ds_verify + kCosts.ds_sign;
        }
        if (msg != nullptr && msg->kind == shim::MsgKind::kShardVoteCert) {
          // Full verification charge for the first share, half for each
          // further one. This models batch verification of real
          // signatures, which shares one multi-exponentiation across the
          // certificate; the simulator computes no such signature
          // (DESIGN.md §8). The decision signing is charged per decision
          // *message* on the receiving participant (kCommit convention:
          // sender-side signing folds into the receiver charge) —
          // charging it here would bill a signature per vote retransmit,
          // phantom work for votes that never produce a decision.
          const auto* cert = static_cast<const shim::ShardVoteCertMsg*>(msg);
          auto shares =
              static_cast<SimDuration>(cert->cert.shares.size());
          if (shares <= 1) return kCosts.twopc_vote_verify;
          return kCosts.twopc_vote_verify +
                 (shares - 1) * (kCosts.twopc_vote_verify / 2);
        }
        return kCosts.per_message;
      });
  coordinators_.push_back(std::move(coordinator));
  coordinator_cpus_.push_back(std::move(cpu));
}

ActorId Architecture::CurrentCoordinatorId(uint32_t group) const {
  if (coordinators_.empty()) return kCoordinatorId;
  uint32_t replicas = coord_topology_.replicas;
  size_t base = static_cast<size_t>(group) * replicas;
  if (base >= coordinators_.size()) return coordinators_[0]->id();
  // Nominal leader of the highest view any live member of the group
  // holds; if that member is itself down, any live member of the group
  // works (it forwards client requests and bounces redirects for
  // votes). Other groups' views never enter the resolution — failover
  // in one group must not re-aim another group's traffic.
  uint64_t best_view = 0;
  bool found = false;
  for (uint32_t r = 0; r < replicas; ++r) {
    const auto& member = coordinators_[base + r];
    if (member->crashed()) continue;
    if (!found || member->view() > best_view) best_view = member->view();
    found = true;
  }
  if (!found) return coordinators_[base]->id();
  const auto& leader =
      coordinators_[base + CoordGroups::LeaderIndexAt(best_view, replicas)];
  if (!leader->crashed()) return leader->id();
  for (uint32_t r = 0; r < replicas; ++r) {
    const auto& member = coordinators_[base + r];
    if (!member->crashed()) return member->id();
  }
  return coordinators_[base]->id();
}

uint64_t Architecture::CoordinatorViewChanges() const {
  uint64_t total = 0;
  for (const auto& member : coordinators_) total += member->view_changes();
  return total;
}

std::vector<uint64_t> Architecture::CoordinatorGroupDecisions() const {
  std::vector<uint64_t> per_group(
      coordinators_.empty() ? 0 : coord_topology_.groups, 0);
  for (const auto& member : coordinators_) {
    // Decisions replicate inside a group, so only count each member's
    // own served decisions via its group id: followers never run
    // FinishDecide, their counters stay zero, and the sum per group is
    // exactly what that group's serving leaders decided.
    per_group[member->group_id()] +=
        member->commits_decided() + member->aborts_decided();
  }
  return per_group;
}

void Architecture::BuildTrafficGenerator() {
  using workload::TrafficFamily;
  switch (config_.traffic.family) {
    case TrafficFamily::kYcsb:
      // Sources draw from the shared YCSB generator; no extra fork.
      break;
    case TrafficFamily::kTpcc:
      traffic_generator_ = std::make_unique<workload::TpccGenerator>(
          config_.traffic.tpcc, sim_.rng()->Fork(0x7acc));
      break;
    case TrafficFamily::kWorkflow: {
      // The workflow generator places hop writes on deliberate shards.
      config_.traffic.workflow.shard_count = config_.shard_count;
      auto wf = std::make_unique<workload::WorkflowGenerator>(
          config_.traffic.workflow, sim_.rng()->Fork(0x3f10));
      workflow_generator_ = wf.get();
      traffic_generator_ = std::move(wf);
      break;
    }
  }
}

void Architecture::BuildSources() {
  if (!config_.traffic.open_loop) {
    // Closed loop (paper §IX): each client sends its next request when
    // the last is answered. With no arrival process, no rng stream is
    // forked, so the clients draw exactly what the goldens pin; the
    // retry cap never binds one request.
    workload::TrafficConfig closed;
    closed.retry_timeout = config_.client_timeout;
    for (uint32_t i = 0; i < config_.num_clients; ++i) {
      AddSource(kFirstClientId + i, generator_.get(), nullptr, Rng(0),
                closed);
    }
    return;
  }
  if (config_.traffic.sources == 0) config_.traffic.sources = 1;
  uint32_t n = config_.traffic.sources;
  // offered_tps is aggregate: split evenly across the source actors
  // (peak rate for the modulated arrival kinds).
  double per_source = config_.traffic.offered_tps / n;
  workload::TxnGenerator* gen = traffic_generator_ != nullptr
                                    ? traffic_generator_.get()
                                    : generator_.get();
  for (uint32_t i = 0; i < n; ++i) {
    std::unique_ptr<workload::ArrivalProcess> arrivals;
    switch (config_.traffic.arrival) {
      case workload::ArrivalKind::kPoisson:
        arrivals = std::make_unique<workload::PoissonArrivals>(per_source);
        break;
      case workload::ArrivalKind::kBursty:
        arrivals = std::make_unique<workload::BurstyArrivals>(
            per_source, config_.traffic.burst_on, config_.traffic.burst_off,
            config_.traffic.burst_idle_fraction);
        break;
      case workload::ArrivalKind::kDiurnal:
        arrivals = std::make_unique<workload::DiurnalArrivals>(
            per_source, config_.traffic.diurnal_trace,
            config_.traffic.diurnal_step);
        break;
    }
    AddSource(kFirstSourceId + i, gen, std::move(arrivals),
              sim_.rng()->Fork(0xa150 + i), config_.traffic);
  }
}

void Architecture::AddSource(
    ActorId id, workload::TxnGenerator* generator,
    std::unique_ptr<workload::ArrivalProcess> arrivals, Rng rng,
    const workload::TrafficConfig& traffic) {
  keys_.RegisterNode(id);
  auto source = std::make_unique<TrafficSource>(
      id,
      [this](const workload::Transaction& txn) { return RouteTarget(txn); },
      [this](const workload::Transaction& txn) { return FallbackTarget(txn); },
      generator, workflow_generator_, &keys_, &sim_, net_.get(),
      std::move(arrivals), rng, traffic, &inflight_);
  source->SetLatencyResolver(
      [this](const workload::Transaction& txn) { return LatencyFor(txn); });
  net_->Register(source.get(), sim::RegionTable::kHomeRegion);
  sources_.push_back(std::move(source));
}

// ---------------------------------------------------------------------------
// Routing.
// ---------------------------------------------------------------------------

Architecture::Route Architecture::RouteOf(
    const workload::Transaction& txn) const {
  Route route;
  bool first = true;
  for (const workload::Operation& op : txn.ops) {
    if (op.type == workload::OpType::kCompute) continue;
    storage::ShardId shard = router_.ShardOf(op.key);
    if (first) {
      route.home = shard;
      first = false;
      continue;
    }
    if (shard != route.home) {
      route.cross_shard = true;
      route.home = std::min(route.home, shard);
    }
  }
  return route;
}

ActorId Architecture::RouteTarget(const workload::Transaction& txn) const {
  Route route = RouteOf(txn);
  if (route.cross_shard) {
    return CurrentCoordinatorId(coord_topology_.GroupOf({txn.client, txn.id}));
  }
  // Clients run on the global loop; a plane's live view state belongs to
  // its own thread in parallel mode, so route by the build-time snapshot
  // (exact without faults; see static_primaries_).
  if (parallel_) return static_primaries_[route.home];
  return planes_[route.home]->CurrentPrimary();
}

ActorId Architecture::FallbackTarget(const workload::Transaction& txn) const {
  Route route = RouteOf(txn);
  if (route.cross_shard) {
    return CurrentCoordinatorId(coord_topology_.GroupOf({txn.client, txn.id}));
  }
  return planes_[route.home]->verifier_id();
}

// ---------------------------------------------------------------------------
// Runtime.
// ---------------------------------------------------------------------------

void Architecture::Start() {
  for (auto& source : sources_) {
    source->Start();
  }
}

void Architecture::SetRecording(bool recording) {
  for (auto& source : sources_) {
    source->SetRecording(recording);
  }
}

uint64_t Architecture::TotalCompleted() const {
  uint64_t total = 0;
  for (const auto& source : sources_) total += source->completed();
  return total;
}

uint64_t Architecture::TotalAborted() const {
  uint64_t total = 0;
  for (const auto& source : sources_) total += source->aborted();
  return total;
}

uint64_t Architecture::TotalRetransmissions() const {
  uint64_t total = 0;
  for (const auto& source : sources_) total += source->retransmissions();
  return total;
}

uint64_t Architecture::TotalOffered() const {
  uint64_t total = 0;
  for (const auto& source : sources_) total += source->offered();
  return total;
}

uint64_t Architecture::TotalDropped() const {
  uint64_t total = 0;
  for (const auto& source : sources_) total += source->dropped();
  return total;
}

uint64_t Architecture::TotalViewChanges() const {
  uint64_t total = 0;
  for (const auto& plane : planes_) total += plane->ViewChanges();
  return total;
}

}  // namespace sbft::core
