#include "sim/network.h"

#include <cassert>

#include "sim/parallel.h"

namespace sbft::sim {

/// Uniform extra delay in [0, kJitterMax) added per delivered copy.
constexpr SimDuration kJitterMax = Micros(200);
/// NIC line rate used for transmission delay (paper setup: 10 GiB NICs).
constexpr double kBandwidthGbps = 10.0;

Network::Network(Simulator* sim, RegionTable regions, NetworkConfig config)
    : regions_(std::move(regions)), config_(config) {
  loops_.emplace_back(sim, sim->rng()->Fork(0x4e42));
}

int Network::CurrentLoop() const {
  return psim_ == nullptr ? 0 : psim_->CurrentLoop();
}

int Network::LoopOf(ActorId id) const {
  return psim_ == nullptr ? 0 : loop_of_fn_(id);
}

void Network::Register(Actor* actor, RegionId region) {
  assert(region < regions_.size());
  Endpoint ep;
  ep.actor = actor;
  ep.region = region;
  // Runtime registration (executor spawn) happens on the owning loop's
  // own thread and lands in that loop's map.
  loops_[LoopOf(actor->id())].endpoints[actor->id()] = std::move(ep);
}

void Network::Unregister(ActorId id) {
  loops_[LoopOf(id)].endpoints.erase(id);
}

void Network::AttachServer(ActorId id, ServerResource* server,
                           CostFn cost_fn) {
  auto& eps = loops_[LoopOf(id)].endpoints;
  auto it = eps.find(id);
  assert(it != eps.end() && "attach server to unregistered actor");
  it->second.server = server;
  it->second.cost_fn = std::move(cost_fn);
}

void Network::EnableParallel(ParallelSimulator* psim,
                             std::function<int(ActorId)> loop_of,
                             std::vector<Simulator*> loop_sims) {
  assert(psim != nullptr && psim_ == nullptr);
  // Fault injection mutates shared maps, and the observer would run on
  // every loop's thread: both stay on the serial engine (FaultController::
  // Install refuses a parallel architecture).
  assert(disabled_links_.empty() && link_rules_.empty() &&
         partitioned_regions_.empty() && actor_delays_.empty() &&
         "fault injection requires sim_threads=0");
  assert(!observer_ && "the delivery observer requires sim_threads=0");
  LoopNet serial = std::move(loops_.front());
  assert(serial.sent == 0 && "EnableParallel after the first send");
  psim_ = psim;
  loop_of_fn_ = std::move(loop_of);
  const int n = psim_->num_loops();
  assert(static_cast<int>(loop_sims.size()) == n);
  // Per-loop rng streams forked in loop order from the (so far unused)
  // serial stream — deterministic for a fixed seed and loop count.
  loops_.clear();
  loops_.reserve(n);
  for (int i = 0; i < n; ++i) {
    loops_.emplace_back(loop_sims[i],
                        serial.rng.Fork(0x9a90 + static_cast<uint64_t>(i)));
  }
  // Shard the statically-registered endpoints by loop and snapshot their
  // regions for cross-loop destination resolution.
  for (auto& [id, ep] : serial.endpoints) {
    static_regions_.emplace(id, ep.region);
    loops_[loop_of_fn_(id)].endpoints[id] = std::move(ep);
  }
}

uint64_t Network::LinkKey(ActorId a, ActorId b) {
  ActorId lo = std::min(a, b);
  ActorId hi = std::max(a, b);
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

uint64_t Network::RegionKey(RegionId a, RegionId b) {
  RegionId lo = std::min(a, b);
  RegionId hi = std::max(a, b);
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

void Network::SetLinkEnabled(ActorId a, ActorId b, bool enabled) {
  assert(psim_ == nullptr && "fault injection requires sim_threads=0");
  if (enabled) {
    disabled_links_.erase(LinkKey(a, b));
  } else {
    disabled_links_.insert(LinkKey(a, b));
  }
}

void Network::SetLinkRule(ActorId a, ActorId b, const LinkRule& rule) {
  assert(psim_ == nullptr && "fault injection requires sim_threads=0");
  link_rules_[LinkKey(a, b)] = rule;
}

void Network::ClearLinkRule(ActorId a, ActorId b) {
  assert(psim_ == nullptr && "fault injection requires sim_threads=0");
  link_rules_.erase(LinkKey(a, b));
}

void Network::SetRegionPartition(RegionId a, RegionId b, bool partitioned) {
  assert(psim_ == nullptr && "fault injection requires sim_threads=0");
  if (partitioned) {
    partitioned_regions_.insert(RegionKey(a, b));
  } else {
    partitioned_regions_.erase(RegionKey(a, b));
  }
}

void Network::SetActorDelay(ActorId id, SimDuration delay) {
  assert(psim_ == nullptr && "fault injection requires sim_threads=0");
  if (delay <= 0) {
    actor_delays_.erase(id);
  } else {
    actor_delays_[id] = delay;
  }
}

void Network::SetDeliveryObserver(DeliveryObserver observer) {
  assert(psim_ == nullptr && "the delivery observer requires sim_threads=0");
  observer_ = std::move(observer);
}

Network::Verdict Network::DecideDelivery(ActorId from, ActorId to,
                                         RegionId from_region,
                                         RegionId to_region, Rng* rng) {
  // Each pair key is built and hashed at most once per send, and the
  // fault-state maps — empty in every fault-free run — are only probed
  // when they hold entries. The rng draw order is unchanged, so verdicts
  // (and therefore every scenario digest) are identical to the
  // double-lookup version.
  Verdict verdict;
  const uint64_t link = LinkKey(from, to);
  if (!disabled_links_.empty() && disabled_links_.contains(link)) {
    verdict.deliver = false;
    return verdict;
  }
  if (!partitioned_regions_.empty() &&
      partitioned_regions_.contains(RegionKey(from_region, to_region))) {
    verdict.deliver = false;
    return verdict;
  }
  double drop_p = config_.drop_probability;
  double dup_p = config_.duplicate_probability;
  if (!link_rules_.empty()) {
    auto rule_it = link_rules_.find(link);
    if (rule_it != link_rules_.end()) {
      // Independent loss sources compose: the message survives only if it
      // dodges both the global and the per-link drop coin.
      drop_p = 1.0 - (1.0 - drop_p) * (1.0 - rule_it->second.drop_probability);
      dup_p =
          1.0 - (1.0 - dup_p) * (1.0 - rule_it->second.duplicate_probability);
      verdict.extra_delay += rule_it->second.extra_delay;
    }
  }
  if (drop_p > 0 && rng->Bernoulli(drop_p)) {
    verdict.deliver = false;
    return verdict;
  }
  if (dup_p > 0 && rng->Bernoulli(dup_p)) {
    verdict.copies = 2;
  }
  if (!actor_delays_.empty()) {
    auto skew_from = actor_delays_.find(from);
    if (skew_from != actor_delays_.end()) {
      verdict.extra_delay += skew_from->second;
    }
    auto skew_to = actor_delays_.find(to);
    if (skew_to != actor_delays_.end()) {
      verdict.extra_delay += skew_to->second;
    }
  }
  return verdict;
}

void Network::Send(ActorId from, ActorId to, MessagePtr message,
                   size_t wire_bytes) {
  // An actor always sends from its own loop's execution context.
  const int cur = CurrentLoop();
  assert(LoopOf(from) == cur && "sender executing on a foreign loop");
  LoopNet& ln = loops_[cur];
  auto from_it = ln.endpoints.find(from);
  if (from_it == ln.endpoints.end()) {
    ++ln.sent;
    ln.bytes += wire_bytes;
    ++ln.dropped;
    return;
  }
  SendFrom(cur, from, from_it->second.region, to, message, wire_bytes);
}

void Network::SendFrom(int cur, ActorId from, RegionId from_region,
                       ActorId to, const MessagePtr& message,
                       size_t wire_bytes) {
  LoopNet& ln = loops_[cur];
  ++ln.sent;
  ln.bytes += wire_bytes;

  // The receiving region is resolved at send time; if the receiver
  // vanishes before arrival the message is dropped at delivery.
  const int dst = LoopOf(to);
  RegionId to_region;
  if (dst == cur) {
    auto it = ln.endpoints.find(to);
    if (it == ln.endpoints.end()) {
      ++ln.dropped;
      return;
    }
    to_region = it->second.region;
  } else {
    // Cross-loop destinations are always statically placed (clients,
    // sources, coordinator group, shim, verifier, storage); executors
    // only ever talk within their own plane.
    auto it = static_regions_.find(to);
    if (it == static_regions_.end()) {
      ++ln.dropped;
      return;
    }
    to_region = it->second;
  }

  Verdict verdict = DecideDelivery(from, to, from_region, to_region, &ln.rng);
  if (!verdict.deliver) {
    ++ln.dropped;
    return;
  }

  double tx_seconds =
      static_cast<double>(wire_bytes) * 8.0 / (kBandwidthGbps * 1e9);
  SimDuration delay = Seconds(tx_seconds) +
                      regions_.OneWay(from_region, to_region) +
                      verdict.extra_delay +
                      static_cast<SimDuration>(ln.rng.Uniform(kJitterMax));

  Envelope env;
  env.from = from;
  env.to = to;
  env.sent_at = ln.sim->now();
  env.wire_bytes = wire_bytes;
  env.message = message;

  for (int c = 0; c < verdict.copies; ++c) {
    SimDuration copy_delay = delay;
    if (c > 0) {
      copy_delay += static_cast<SimDuration>(ln.rng.Uniform(kJitterMax));
    }
    // The last (usually only) copy moves the envelope into the event,
    // saving a shared_ptr refcount round-trip per delivery.
    Envelope copy_env = c + 1 == verdict.copies ? std::move(env) : env;
    if (dst == cur) {
      ln.sim->Schedule(copy_delay,
                       [this, env = std::move(copy_env)]() mutable {
                         Deliver(std::move(env));
                       });
      continue;
    }
    ++ln.cross;
    // The natural delay already clears the floor (propagation alone is
    // >= CrossLoopFloor for home-region pairs); the max() makes the
    // engine's safety contract explicit rather than inferred.
    if (copy_delay < psim_->lookahead()) copy_delay = psim_->lookahead();
    psim_->Post(dst, ln.sim->now() + copy_delay,
                [this, env = std::move(copy_env)]() mutable {
                  Deliver(std::move(env));
                });
  }
}

void Network::Broadcast(ActorId from, const std::vector<ActorId>& targets,
                        ActorId skip, MessagePtr message, size_t wire_bytes) {
  // The sender endpoint (and with it the sending region) is resolved once
  // for the whole fan-out; `wire_bytes` is likewise computed once by the
  // caller (typically the message's counted WireSize()) instead of per
  // target.
  const int cur = CurrentLoop();
  assert(LoopOf(from) == cur && "sender executing on a foreign loop");
  LoopNet& ln = loops_[cur];
  auto from_it = ln.endpoints.find(from);
  if (from_it == ln.endpoints.end()) {
    // Unregistered sender: every copy still counts as sent-and-dropped,
    // matching Send()'s accounting.
    for (ActorId to : targets) {
      if (to == kInvalidActor || to == skip) continue;
      ++ln.sent;
      ln.bytes += wire_bytes;
      ++ln.dropped;
    }
    return;
  }
  for (ActorId to : targets) {
    if (to == kInvalidActor || to == skip) continue;
    SendFrom(cur, from, from_it->second.region, to, message, wire_bytes);
  }
}

void Network::Deliver(Envelope env) {
  // Delivery executes on the destination loop's thread (same-loop
  // Schedule or cross-loop mailbox), so the loop's endpoint map and
  // counters are safe to touch without synchronization.
  const int cur = CurrentLoop();
  LoopNet& ln = loops_[cur];
  env.delivered_at = ln.sim->now();
  auto it = ln.endpoints.find(env.to);
  if (it == ln.endpoints.end()) {
    ++ln.dropped;
    return;
  }
  Endpoint& ep = it->second;
  ++ln.delivered;

  if (ep.server != nullptr) {
    SimDuration cost = ep.cost_fn ? ep.cost_fn(env) : 0;
    ep.server->Submit(cost, [this, cur, env = std::move(env)]() {
      // Re-resolve: the actor may have unregistered while queued.
      const auto& eps = loops_[cur].endpoints;
      auto it2 = eps.find(env.to);
      if (it2 == eps.end()) return;
      it2->second.actor->OnMessage(env);
      if (observer_) observer_(env);
    });
  } else {
    ep.actor->OnMessage(env);
    if (observer_) observer_(env);
  }
}

uint64_t Network::Total(uint64_t LoopNet::*counter) const {
  uint64_t total = 0;
  for (const LoopNet& ln : loops_) total += ln.*counter;
  return total;
}

}  // namespace sbft::sim
