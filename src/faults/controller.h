#ifndef SBFT_FAULTS_CONTROLLER_H_
#define SBFT_FAULTS_CONTROLLER_H_

#include "common/status.h"
#include "core/architecture.h"
#include "faults/schedule.h"
#include "sim/actor.h"

namespace sbft::faults {

/// \brief The actor that turns a FaultSchedule into live adversity.
///
/// Install() registers the controller with the architecture's network
/// (control plane only — it never exchanges protocol messages) and
/// schedules one simulator event per fault; Apply() maps each FaultKind
/// onto the corresponding runtime hook: Network link rules / partitions /
/// skew, replica crash & byzantine toggles, CloudSimulator executor
/// faults, and coordinator crashes. Because the simulator fires
/// equal-time events in scheduling order and every hook is deterministic,
/// a (scenario, seed) pair replays to an identical run.
class FaultController : public sim::Actor {
 public:
  /// Well-known actor id of the controller (outside every other range).
  static constexpr ActorId kControllerId = 900100;

  /// Construct after (and destroy before) the Architecture: the
  /// destructor unregisters from its network.
  explicit FaultController(core::Architecture* arch);
  ~FaultController() override;

  /// Validates the schedule against the architecture (node indexes and
  /// regions must exist) and schedules every event; call once, before
  /// running. Returns InvalidArgument naming the offending event when a
  /// target does not resolve — a typo'd scenario must not silently
  /// become a fault-free run. Returns NotSupported, registering nothing,
  /// on an architecture that runs the parallel engine (sim_threads > 0).
  Status Install(const FaultSchedule& schedule);

  void OnMessage(const sim::Envelope&) override {}

  uint64_t events_applied() const { return events_applied_; }

 private:
  Status Validate(const FaultEvent& event) const;
  void Apply(const FaultEvent& event);

  /// Actor id of shim node index `i` (kInvalidActor when out of range).
  ActorId ShimActor(uint32_t index) const;

  /// Crash/recover dispatch across the active shim protocol.
  void SetReplicaCrashed(uint32_t index, bool crashed);
  void SetReplicaBehavior(uint32_t index,
                          const shim::ByzantineBehavior& behavior);

  core::Architecture* arch_;
  bool installed_ = false;
  uint64_t events_applied_ = 0;
};

}  // namespace sbft::faults

#endif  // SBFT_FAULTS_CONTROLLER_H_
