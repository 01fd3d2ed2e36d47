#ifndef SBFT_CORE_EXPERIMENT_H_
#define SBFT_CORE_EXPERIMENT_H_

#include <string>
#include <vector>

#include "core/architecture.h"
#include "core/config.h"

namespace sbft::core {

/// \brief Measurements from one simulated run, mirroring the metrics the
/// paper reports (§IX: throughput, latency, plus Fig. 8's cents/ktxn).
struct RunReport {
  double duration_s = 0;

  uint64_t completed_txns = 0;
  uint64_t aborted_txns = 0;
  double throughput_tps = 0;   ///< Completed txns per simulated second.
  double abort_rate = 0;       ///< Aborted / (completed + aborted).

  double latency_mean_s = 0;
  double latency_p50_s = 0;
  double latency_p99_s = 0;
  double latency_p999_s = 0;

  // --- traffic: a closed loop offers what it settles, never drops, and
  // keeps `num_clients` requests in flight ---
  uint64_t offered_txns = 0;   ///< Work units offered by the sources.
  double offered_tps = 0;      ///< Offered per simulated second.
  uint64_t dropped_txns = 0;   ///< Shed / retry-capped / hop-budget.
  uint64_t peak_inflight = 0;  ///< In-flight high-water over the window.

  uint64_t messages_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t executors_spawned = 0;
  uint64_t cold_starts = 0;
  uint64_t view_changes = 0;
  uint64_t client_retransmissions = 0;
  uint64_t verifier_floods_ignored = 0;

  double lambda_cents = 0;
  double vm_cents = 0;
  double cents_per_ktxn = 0;

  // --- gid-partitioned coordination (DESIGN.md §12; empty/zero on
  // single-plane runs) ---
  /// 2PC decisions served per coordinator group over the measurement
  /// window (index = group id). Proves the gid hash actually spreads
  /// the coordination load.
  std::vector<uint64_t> coord_group_decisions;
  /// max/mean of coord_group_decisions (1.0 = perfectly balanced; 0
  /// when no group decided anything or only one group exists).
  double coord_group_imbalance = 0;

  /// One-line rendering for the bench tables.
  std::string OneLine() const;
};

/// Runs one configuration: build, warm up, measure, report deltas over
/// the measurement window only (the paper uses 60 s warmup + 180 s
/// measurement; the simulated windows are scaled down, see DESIGN.md §16).
RunReport RunExperiment(const SystemConfig& config,
                        SimDuration warmup = Seconds(1.0),
                        SimDuration measure = Seconds(3.0));

}  // namespace sbft::core

#endif  // SBFT_CORE_EXPERIMENT_H_
