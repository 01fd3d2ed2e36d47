#include "serverless/cloud.h"

#include "common/logging.h"

namespace sbft::serverless {

/// The memory each executor invocation is billed for.
constexpr double kExecutorMemoryGb = 1.0;

CloudSimulator::CloudSimulator(sim::Simulator* sim, sim::Network* net,
                               crypto::KeyRegistry* keys, CloudConfig config,
                               ActorId first_executor_id)
    : sim_(sim),
      net_(net),
      keys_(keys),
      config_(config),
      next_executor_id_(first_executor_id) {}

CloudSimulator::~CloudSimulator() {
  for (auto& [id, instance] : instances_) {
    net_->Unregister(id);
  }
}

ActorId CloudSimulator::Spawn(sim::RegionId region,
                              std::shared_ptr<const shim::ExecuteMsg> work,
                              ActorId verifier, ActorId storage,
                              uint32_t shim_quorum,
                              ExecutorBehavior behavior) {
  ++spawn_requests_;
  if (suspended_ || active_ >= config_.max_concurrent) {
    ++spawns_throttled_;
    return kInvalidActor;
  }
  ++spawns_accepted_;
  ++active_;

  ActorId id = next_executor_id_++;
  keys_->RegisterNode(id);  // Identity assumption (§III-A).

  Instance instance;
  instance.region = region;
  instance.started_at = sim_->now();
  instance.seq = work->seq;
  instance.function = std::make_unique<ExecutorFunction>(
      id, std::move(work), verifier, storage, shim_quorum, keys_, sim_, net_,
      behavior, [this](ActorId done_id) { OnExecutorDone(done_id); });

  net_->Register(instance.function.get(), region);

  // Cold vs warm start.
  SimDuration start_latency;
  int& warm = warm_available_[region];
  if (warm > 0) {
    --warm;
    start_latency = config_.warm_start;
  } else {
    ++cold_starts_;
    start_latency = config_.cold_start;
  }
  start_latency += extra_start_latency_;

  ExecutorFunction* fn = instance.function.get();
  instances_.emplace(id, std::move(instance));
  sim_->Schedule(start_latency, [this, id, fn]() {
    // The instance may already be gone (teardown) or crash-stopped.
    auto it = instances_.find(id);
    if (it == instances_.end() || it->second.killed) return;
    fn->Start();
  });
  return id;
}

size_t CloudSimulator::KillAllExecutors() {
  size_t killed = 0;
  for (auto& [id, instance] : instances_) {
    if (instance.killed) continue;
    instance.killed = true;
    instance.function->Kill();
    net_->Unregister(id);
    RetireWhenSettled(id, instance.seq);
    --active_;
    ++killed;
    // The instance object stays alive until teardown: a CPU step of its
    // function may still be scheduled, and that event references it.
  }
  executors_killed_ += killed;
  return killed;
}

void CloudSimulator::OnExecutorDone(ActorId id) {
  auto it = instances_.find(id);
  if (it == instances_.end() || it->second.killed) return;
  // Mark retired so a KillAllExecutors racing the deferred destruction
  // below cannot release this instance's slot a second time.
  it->second.killed = true;
  SimDuration lifetime = sim_->now() - it->second.started_at;
  costs_.ChargeInvocation(lifetime, kExecutorMemoryGb);
  ++warm_available_[it->second.region];  // Container stays warm.
  --active_;
  net_->Unregister(id);
  RetireWhenSettled(id, it->second.seq);

  // Defer the actual destruction: the completion callback may be running
  // inside the executor's own call stack.
  sim_->Schedule(0, [this, id]() { instances_.erase(id); });
}

void CloudSimulator::RetireWhenSettled(ActorId id, SeqNum seq) {
  if (seq <= settled_seq_) {
    keys_->Unregister(id);
  } else {
    awaiting_settle_.emplace(seq, id);
  }
}

void CloudSimulator::OnSettled(SeqNum seq) {
  if (seq <= settled_seq_) return;
  settled_seq_ = seq;
  auto end = awaiting_settle_.upper_bound(seq);
  for (auto it = awaiting_settle_.begin(); it != end; ++it) {
    keys_->Unregister(it->second);
  }
  awaiting_settle_.erase(awaiting_settle_.begin(), end);
}

}  // namespace sbft::serverless
