#include "faults/controller.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "common/logging.h"

namespace sbft::faults {

namespace {

const char* KindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrashReplica: return "crash node";
    case FaultKind::kRecoverReplica: return "recover node";
    case FaultKind::kPartitionNodes: return "partition nodes";
    case FaultKind::kHealNodes: return "heal nodes";
    case FaultKind::kPartitionRegions: return "partition regions";
    case FaultKind::kHealRegions: return "heal regions";
    case FaultKind::kLinkRule: return "link rule";
    case FaultKind::kClearLinkRule: return "clear link";
    case FaultKind::kClockSkew: return "clock skew";
    case FaultKind::kSetByzantine: return "byzantine node";
    case FaultKind::kClearByzantine: return "honest node";
    case FaultKind::kKillExecutors: return "kill executors";
    case FaultKind::kSuspendSpawns: return "suspend spawns";
    case FaultKind::kResumeSpawns: return "resume spawns";
    case FaultKind::kStraggleExecutors: return "straggle executors";
    case FaultKind::kCrashCoordinatorMember:
      return "crash coordinator member";
    case FaultKind::kCrashCoordinatorLeader:
      return "crash coordinator leader";
    case FaultKind::kRecoverCoordinatorMember:
      return "recover coordinator member";
    case FaultKind::kPartitionCoordinators: return "partition coordinators";
    case FaultKind::kHealCoordinators: return "heal coordinators";
  }
  return "?";
}

}  // namespace

FaultController::FaultController(core::Architecture* arch)
    : Actor(kControllerId, "fault-controller"), arch_(arch) {}

FaultController::~FaultController() {
  if (installed_) arch_->network()->Unregister(id());
}

Status FaultController::Validate(const FaultEvent& event) const {
  uint32_t n = static_cast<uint32_t>(arch_->shim_ids().size());
  size_t regions = arch_->network()->regions().size();
  auto bad_node = [&](uint32_t node) { return node >= n; };
  // A partition's two sides: each index must be below `limit`.
  auto bad_side = [&](uint32_t limit) {
    auto bad = [limit](uint32_t index) { return index >= limit; };
    return std::ranges::any_of(event.group_a, bad) ||
           std::ranges::any_of(event.group_b, bad);
  };
  std::ostringstream os;
  switch (event.kind) {
    case FaultKind::kCrashReplica:
    case FaultKind::kRecoverReplica:
    case FaultKind::kClockSkew:
    case FaultKind::kSetByzantine:
    case FaultKind::kClearByzantine:
      if (bad_node(event.node)) {
        os << KindName(event.kind) << " " << event.node << ": only " << n
           << " shim nodes";
        return Status::InvalidArgument(os.str());
      }
      break;
    case FaultKind::kLinkRule:
    case FaultKind::kClearLinkRule:
      if (bad_node(event.node) || bad_node(event.node_b)) {
        os << KindName(event.kind) << " " << event.node << " "
           << event.node_b << ": only " << n << " shim nodes";
        return Status::InvalidArgument(os.str());
      }
      break;
    case FaultKind::kPartitionNodes:
      if (bad_side(n)) {
        return Status::InvalidArgument("partition nodes: bad index");
      }
      break;
    case FaultKind::kPartitionRegions:
    case FaultKind::kHealRegions:
      if (event.region_a >= regions || event.region_b >= regions) {
        os << KindName(event.kind) << " " << event.region_a << " "
           << event.region_b << ": only " << regions << " regions";
        return Status::InvalidArgument(os.str());
      }
      break;
    case FaultKind::kCrashCoordinatorLeader:
    case FaultKind::kHealCoordinators:
      if (arch_->coordinator() == nullptr) {
        os << KindName(event.kind)
           << ": no coordinator (shard_count must be > 1)";
        return Status::InvalidArgument(os.str());
      }
      break;
    case FaultKind::kCrashCoordinatorMember:
    case FaultKind::kRecoverCoordinatorMember:
      if (event.node >= arch_->coordinator_replicas()) {
        os << KindName(event.kind) << " " << event.node << ": only "
           << arch_->coordinator_replicas() << " coordinator members";
        return Status::InvalidArgument(os.str());
      }
      break;
    case FaultKind::kPartitionCoordinators:
      if (bad_side(arch_->coordinator_replicas())) {
        return Status::InvalidArgument(
            "partition coordinators: bad member index");
      }
      break;
    default:
      break;  // No operands to validate.
  }
  return Status::Ok();
}

Status FaultController::Install(const FaultSchedule& schedule) {
  assert(!installed_ && "Install must be called once");
  // Faults run on the global loop and would flip plane-owned replicas and
  // network maps from the wrong thread.
  if (arch_->parallel()) {
    return Status::NotSupported(
        "fault injection requires sim_threads = 0 (the parallel engine)");
  }
  for (const FaultEvent& event : schedule.events()) {
    Status status = Validate(event);
    if (!status.ok()) return status;
  }
  installed_ = true;
  arch_->network()->Register(this, sim::RegionTable::kHomeRegion);
  for (const FaultEvent& event : schedule.events()) {
    // Copy the event into the closure: the schedule may not outlive us.
    arch_->simulator()->ScheduleAt(event.at,
                                   [this, event]() { Apply(event); });
  }
  return Status::Ok();
}

ActorId FaultController::ShimActor(uint32_t index) const {
  const std::vector<ActorId>& ids = arch_->shim_ids();
  return index < ids.size() ? ids[index] : kInvalidActor;
}

void FaultController::SetReplicaCrashed(uint32_t index, bool crashed) {
  const auto& replicas = arch_->replicas();
  if (index < replicas.size()) replicas[index]->SetCrashed(crashed);
}

void FaultController::SetReplicaBehavior(
    uint32_t index, const shim::ByzantineBehavior& behavior) {
  const auto& pbft = arch_->pbft_replicas();
  if (index < pbft.size()) pbft[index]->SetBehavior(behavior);
}

void FaultController::Apply(const FaultEvent& event) {
  sim::Network* net = arch_->network();
  switch (event.kind) {
    case FaultKind::kCrashReplica:
      SetReplicaCrashed(event.node, true);
      break;
    case FaultKind::kRecoverReplica:
      SetReplicaCrashed(event.node, false);
      break;
    case FaultKind::kPartitionNodes:
      for (uint32_t a : event.group_a) {
        for (uint32_t b : event.group_b) {
          net->SetLinkEnabled(ShimActor(a), ShimActor(b), false);
        }
      }
      break;
    case FaultKind::kHealNodes: {
      const std::vector<ActorId>& ids = arch_->shim_ids();
      for (size_t a = 0; a < ids.size(); ++a) {
        for (size_t b = a + 1; b < ids.size(); ++b) {
          net->SetLinkEnabled(ids[a], ids[b], true);
        }
      }
      break;
    }
    case FaultKind::kPartitionRegions:
      net->SetRegionPartition(event.region_a, event.region_b, true);
      break;
    case FaultKind::kHealRegions:
      net->SetRegionPartition(event.region_a, event.region_b, false);
      break;
    case FaultKind::kLinkRule:
      net->SetLinkRule(ShimActor(event.node), ShimActor(event.node_b),
                       event.rule);
      break;
    case FaultKind::kClearLinkRule:
      net->ClearLinkRule(ShimActor(event.node), ShimActor(event.node_b));
      break;
    case FaultKind::kClockSkew:
      net->SetActorDelay(ShimActor(event.node), event.delay);
      break;
    case FaultKind::kSetByzantine:
      SetReplicaBehavior(event.node, event.behavior);
      break;
    case FaultKind::kClearByzantine:
      SetReplicaBehavior(event.node, shim::ByzantineBehavior{});
      break;
    case FaultKind::kKillExecutors:
      for (uint32_t s = 0; s < arch_->shard_count(); ++s) {
        arch_->plane(s)->cloud()->KillAllExecutors();
      }
      break;
    case FaultKind::kSuspendSpawns:
      for (uint32_t s = 0; s < arch_->shard_count(); ++s) {
        arch_->plane(s)->cloud()->SetSpawnsSuspended(true);
      }
      break;
    case FaultKind::kResumeSpawns:
      for (uint32_t s = 0; s < arch_->shard_count(); ++s) {
        arch_->plane(s)->cloud()->SetSpawnsSuspended(false);
      }
      break;
    case FaultKind::kStraggleExecutors:
      for (uint32_t s = 0; s < arch_->shard_count(); ++s) {
        arch_->plane(s)->cloud()->SetExtraStartLatency(event.delay);
      }
      break;
    case FaultKind::kCrashCoordinatorMember:
      arch_->coordinator(event.node)->SetCrashed(true);
      break;
    case FaultKind::kCrashCoordinatorLeader: {
      // Resolve at fire time: a prior crash/failover in the same
      // schedule may have moved leadership since the scenario was
      // written — "the leader" always means the one serving right now.
      uint32_t r = arch_->CurrentCoordinatorId() -
                   core::Architecture::kCoordinatorId;
      core::TxnCoordinator* leader = arch_->coordinator(r);
      if (leader != nullptr) leader->SetCrashed(true);
      break;
    }
    case FaultKind::kRecoverCoordinatorMember:
      arch_->coordinator(event.node)->SetCrashed(false);
      break;
    case FaultKind::kPartitionCoordinators:
      for (uint32_t a : event.group_a) {
        for (uint32_t b : event.group_b) {
          net->SetLinkEnabled(core::Architecture::kCoordinatorId + a,
                              core::Architecture::kCoordinatorId + b,
                              false);
        }
      }
      break;
    case FaultKind::kHealCoordinators: {
      uint32_t replicas = arch_->coordinator_replicas();
      for (uint32_t a = 0; a < replicas; ++a) {
        for (uint32_t b = a + 1; b < replicas; ++b) {
          net->SetLinkEnabled(core::Architecture::kCoordinatorId + a,
                              core::Architecture::kCoordinatorId + b, true);
        }
      }
      break;
    }
  }
  ++events_applied_;
  SBFT_LOG(kInfo) << name() << " applied: "
                  << FormatDuration(arch_->simulator()->now()) << " "
                  << KindName(event.kind);
}

}  // namespace sbft::faults
