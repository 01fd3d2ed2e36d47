#ifndef SBFT_SIM_NETWORK_H_
#define SBFT_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "sim/actor.h"
#include "sim/region.h"
#include "sim/server.h"
#include "sim/simulator.h"

namespace sbft::sim {

class ParallelSimulator;

/// Knobs for the message-level asynchrony the protocol must tolerate
/// (paper §IV-E: "messages can get lost, delayed, or duplicated").
struct NetworkConfig {
  /// Probability an individual message is silently dropped.
  double drop_probability = 0.0;
  /// Probability a message is delivered twice.
  double duplicate_probability = 0.0;
};

/// Per-link fault-injection rule layered on top of the global
/// NetworkConfig knobs (fault engine, src/faults/). Both the global knobs
/// and the link rule are consulted by the same delivery decision, so the
/// two sources cannot diverge.
struct LinkRule {
  /// Extra probability a message on this link is dropped.
  double drop_probability = 0.0;
  /// Extra probability a message on this link is duplicated.
  double duplicate_probability = 0.0;
  /// Deterministic extra one-way delay on this link.
  SimDuration extra_delay = 0;
};

/// \brief Message transport between actors, with WAN latency, bandwidth,
/// fault injection, and per-receiver CPU accounting.
///
/// Delivery pipeline: transmission (bytes / bandwidth) -> propagation
/// (region one-way delay) -> jitter -> optional receiver CPU queueing via
/// an attached ServerResource -> Actor::OnMessage.
class Network {
 public:
  /// Per-envelope CPU cost charged on the receiving node.
  using CostFn = std::function<SimDuration(const Envelope&)>;
  /// Observer invoked on every successful delivery (after CPU).
  using DeliveryObserver = std::function<void(const Envelope&)>;

  Network(Simulator* sim, RegionTable regions, NetworkConfig config);

  /// Registers an actor in a region. The actor must outlive the network
  /// or call Unregister first.
  void Register(Actor* actor, RegionId region);

  /// Removes an actor; in-flight messages to it are dropped on arrival.
  void Unregister(ActorId id);

  /// Attaches a CPU model to an actor: deliveries queue on `server` and
  /// charge `cost_fn(envelope)` before OnMessage runs.
  void AttachServer(ActorId id, ServerResource* server, CostFn cost_fn);

  /// Sends a message; `wire_bytes` is its serialized size.
  void Send(ActorId from, ActorId to, MessagePtr message, size_t wire_bytes);

  /// Sends to every id in `targets` (excluding kInvalidActor entries).
  void Broadcast(ActorId from, const std::vector<ActorId>& targets,
                 MessagePtr message, size_t wire_bytes) {
    Broadcast(from, targets, kInvalidActor, std::move(message), wire_bytes);
  }

  /// Broadcast that additionally skips `skip` — lets a replica fan out to
  /// its full peer list minus itself without building a filtered copy.
  void Broadcast(ActorId from, const std::vector<ActorId>& targets,
                 ActorId skip, MessagePtr message, size_t wire_bytes);

  /// Cuts or restores the link between two actors (both directions).
  void SetLinkEnabled(ActorId a, ActorId b, bool enabled);

  /// Installs a per-link drop/duplicate/delay rule (both directions),
  /// layered on top of the global NetworkConfig knobs.
  void SetLinkRule(ActorId a, ActorId b, const LinkRule& rule);

  /// Removes the per-link rule between two actors.
  void ClearLinkRule(ActorId a, ActorId b);

  /// Partitions (or heals) a pair of regions: messages between actors in
  /// the two regions are dropped while partitioned.
  void SetRegionPartition(RegionId a, RegionId b, bool partitioned);

  /// Adds a fixed delay to every message to and from an actor — the fault
  /// engine's first-order model of clock skew on that node (its view of
  /// the world lags by `delay`). Pass 0 to clear.
  void SetActorDelay(ActorId id, SimDuration delay);

  /// Serial-only test/trace hook, called after every delivery's
  /// OnMessage; pass nullptr to clear. Asserted never to meet the
  /// parallel engine, whose deliveries run on every loop's thread.
  void SetDeliveryObserver(DeliveryObserver observer);

  const RegionTable& regions() const { return regions_; }

  // --- parallel-mode wiring (conservative-PDES engine, DESIGN.md §11) ---

  /// Splits the network's one per-loop state (endpoint map, rng jitter
  /// stream, traffic counters) into one per event loop: same-loop sends
  /// schedule on the sender's Simulator, and cross-loop sends go through
  /// the ParallelSimulator's mailboxes. Call once, after every static
  /// actor is registered and before the first send. `loop_of` maps any
  /// actor id to its loop index (a pure function of the id blocks);
  /// `loop_sims[i]` is loop i's Simulator. Fault injection and the
  /// delivery observer are not supported in parallel mode (asserted).
  void EnableParallel(ParallelSimulator* psim,
                      std::function<int(ActorId)> loop_of,
                      std::vector<Simulator*> loop_sims);

  /// The minimum possible cross-loop delivery latency, derived from the
  /// region table: every statically-placed actor lives in the home
  /// region, so no cross-loop message can arrive sooner than the
  /// intra-home one-way propagation time (transmission delay, jitter,
  /// and rule delays only add). This is the conservative engine's
  /// lookahead floor.
  SimDuration CrossLoopFloor() const {
    SimDuration floor =
        regions_.OneWay(RegionTable::kHomeRegion, RegionTable::kHomeRegion);
    return floor > 0 ? floor : 1;
  }

  bool parallel() const { return psim_ != nullptr; }
  /// Messages that crossed loops through the mailbox mesh.
  uint64_t cross_loop_messages() const { return Total(&LoopNet::cross); }

  uint64_t messages_sent() const { return Total(&LoopNet::sent); }
  uint64_t messages_delivered() const { return Total(&LoopNet::delivered); }
  uint64_t messages_dropped() const { return Total(&LoopNet::dropped); }
  uint64_t bytes_sent() const { return Total(&LoopNet::bytes); }

 private:
  struct Endpoint {
    Actor* actor = nullptr;
    RegionId region = 0;
    ServerResource* server = nullptr;
    CostFn cost_fn;
  };

  /// One delivery decision for a message: whether it gets through, how
  /// many copies arrive, and any deterministic extra delay. This is the
  /// single place where the global NetworkConfig knobs, per-link rules,
  /// partitions, and per-actor skew combine.
  struct Verdict {
    bool deliver = true;
    int copies = 1;
    SimDuration extra_delay = 0;
  };
  Verdict DecideDelivery(ActorId from, ActorId to, RegionId from_region,
                         RegionId to_region, Rng* rng);

  static uint64_t LinkKey(ActorId a, ActorId b);
  static uint64_t RegionKey(RegionId a, RegionId b);

  /// The network state of one event loop: the endpoints that live on it,
  /// its Simulator, its jitter/drop rng stream and its traffic counters.
  /// A serial network has one; EnableParallel splits it into one per
  /// loop. loops_[i] is written at build time and otherwise only by loop
  /// i's own thread (executor churn, sends, deliveries), so it needs no
  /// lock (padded so the counters never false-share).
  struct alignas(64) LoopNet {
    LoopNet(Simulator* s, Rng r) : sim(s), rng(r) {}
    Simulator* sim;
    Rng rng;
    std::unordered_map<ActorId, Endpoint> endpoints;
    uint64_t sent = 0;
    uint64_t delivered = 0;
    uint64_t dropped = 0;
    uint64_t bytes = 0;
    uint64_t cross = 0;
  };

  /// One traffic counter summed over the loops.
  uint64_t Total(uint64_t LoopNet::*counter) const;
  /// The loop the caller executes on (0 on a serial network).
  int CurrentLoop() const;
  /// The loop actor `id` lives on (0 on a serial network).
  int LoopOf(ActorId id) const;
  /// Send from loop `cur` with the sender's region already resolved —
  /// lets Broadcast look the sender up once per fan-out instead of once
  /// per target.
  void SendFrom(int cur, ActorId from, RegionId from_region, ActorId to,
                const MessagePtr& message, size_t wire_bytes);
  void Deliver(Envelope env);

  RegionTable regions_;
  NetworkConfig config_;
  std::vector<LoopNet> loops_;
  std::unordered_set<uint64_t> disabled_links_;
  std::unordered_map<uint64_t, LinkRule> link_rules_;
  std::unordered_set<uint64_t> partitioned_regions_;
  std::unordered_map<ActorId, SimDuration> actor_delays_;
  DeliveryObserver observer_;

  // --- parallel-mode wiring (null and empty on a serial network) ---
  ParallelSimulator* psim_ = nullptr;
  std::function<int(ActorId)> loop_of_fn_;
  /// Read-only snapshot of every statically-placed actor's region, taken
  /// at EnableParallel. Cross-loop sends resolve their destination here:
  /// runtime-registered actors (executors) never receive cross-loop
  /// traffic, so the static directory suffices.
  std::unordered_map<ActorId, RegionId> static_regions_;
};

}  // namespace sbft::sim

#endif  // SBFT_SIM_NETWORK_H_
