#ifndef SBFT_FAULTS_RUNNER_H_
#define SBFT_FAULTS_RUNNER_H_

#include <string>

#include "common/result.h"
#include "faults/scenario.h"

namespace sbft::faults {

/// \brief Outcome of one scenario run.
///
/// `commit_digest` is the hex head of the verifier's hash-chained audit
/// log — it commits to every applied/aborted sequence in order, so two
/// runs with the same (scenario, seed) must produce byte-identical
/// digests. That is the replayability contract the chaos runner enforces.
struct ScenarioReport {
  std::string scenario;
  uint64_t seed = 0;
  std::string commit_digest;
  bool audit_chain_ok = false;

  uint64_t audit_entries = 0;
  uint64_t completed_txns = 0;
  uint64_t aborted_txns = 0;
  uint64_t view_changes = 0;
  uint64_t client_retransmissions = 0;
  /// REPLACEs the verifiers broadcast: each accuses a primary, so a run
  /// with no byzantine actor should read 0.
  uint64_t replace_broadcasts = 0;
  uint64_t executors_spawned = 0;
  uint64_t executors_killed = 0;
  uint64_t messages_dropped = 0;
  uint64_t fault_events_applied = 0;

  double latency_p50_ms = 0;
  double latency_p99_ms = 0;

  /// One-line rendering for the scenario_runner table.
  std::string OneLine() const;
};

/// Builds the architecture, installs the scenario's fault schedule, runs
/// to the scenario duration, and reports. InvalidArgument on a malformed
/// schedule.
Result<ScenarioReport> RunScenario(const Scenario& scenario);

}  // namespace sbft::faults

#endif  // SBFT_FAULTS_RUNNER_H_
