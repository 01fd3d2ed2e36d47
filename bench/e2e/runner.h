#ifndef SBFT_BENCH_E2E_RUNNER_H_
#define SBFT_BENCH_E2E_RUNNER_H_

#include <array>
#include <map>
#include <string>
#include <vector>

#include "tracer.h"
#include "workloads.h"

namespace e2e {

/// How one run of a workload is driven.
struct RepOptions {
  /// Offered rate; 0 = the workload's operating rate.
  double rate_tps = 0;
  /// Simulated windows; 0 = the workload's own.
  double warmup_s = 0;
  double measure_s = 0;
  /// Install the phase tracer (a delivery observer; serial engine only).
  bool phases = false;
  /// Force the serial engine (the traced rep of a parallel workload).
  bool serial = false;
  /// Knee probe: run in 50 ms slices and stop as soon as the outcome is
  /// settled — the in-flight backlog exceeds 0.5 s of arrivals, or the
  /// window's failures exceed the SLO's 1% of the load.
  bool probe = false;
};

/// Public counters of one architecture at one instant. Window deltas
/// are taken by subtracting two snapshots.
enum Counter {
  kEvents = 0,
  kMsgs,
  kBytes,
  kMsgsDropped,
  kCrossLoopMsgs,
  kParallelRounds,
  kCompleted,
  kAborted,
  kOffered,
  kDropped,
  kRetransmits,
  kSpawned,
  kBatchesSpawned,
  kSpawnsAccepted,
  kSpawnsThrottled,
  kColdStarts,
  kLambdaCents,
  kCheckpoints,
  kViewChanges,
  kCoordViewChanges,
  kPresumedAborts,
  kShimBatches,
  kShimTxns,
  kVerifierApplied,
  kVerifierAborted,
  kFloodingIgnored,
  kLockWaitsQueued,
  kLockWaitsAborted,
  kVotesReceived,
  kVoteCertMsgs,
  kKvReads,
  kKvWrites,
  kNumCounters,
};
using Counters = std::array<double, kNumCounters>;

/// Everything one run measured and checked.
struct RepResult {
  // Simulated, over the measurement window.
  double measure_s = 0;
  double offered = 0;
  double committed = 0;
  double aborted = 0;
  double dropped = 0;
  double goodput_tps = 0;
  double failed_frac = 0;
  uint64_t samples = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double mean_ms = 0;       ///< Sources' own histograms (exact sum).
  double cents_per_ktxn = 0;
  double outage_s = 0;      ///< Sum over faults.
  std::vector<double> outages;
  double peak_inflight = 0;
  Counters window{};
  bool aborted_early = false;

  // Wall clock.
  double setup_s = 0;
  double run_wall_s = 0;
  double engine_tps = 0;
  double ns_per_event = 0;
  double peak_rss_mb = 0;  ///< Peak resident set during this run.

  // Evidence: per-plane audit and decision-log heads (hex).
  std::vector<std::string> heads;
  /// Failed output checks, one line each; empty = all passed.
  std::vector<std::string> failures;

  // Phase tracing (RepOptions::phases).
  std::array<double, kNumPhases> phase_mean_ms{};
  std::array<double, kNumPhases> phase_p50_ms{};
  std::array<double, kNumPhases> phase_p99_ms{};
  uint64_t traced = 0;
  uint64_t traced_cross = 0;
  uint64_t incomplete = 0;
  /// Per-layer metrics derived from the window counters and the trace.
  std::map<std::string, double> layer;
};

/// Builds, runs, measures and checks one run of `w` at `seed`.
RepResult RunRep(const Workload& w, uint64_t seed, const RepOptions& opt);

/// Knee search result: the highest offered rate meeting the SLO.
struct Knee {
  double tps = 0;
  bool censored = false;  ///< The top of the range still passed.
  int probes = 0;
  /// Failed output checks of any probe.
  std::vector<std::string> failures;
};

/// Bisects [w.rate_tps, 2 * w.rate_tps] to 2% resolution with short
/// probes (the workload's warmup, 1 s measured).
Knee FindKnee(const Workload& w, uint64_t seed);

/// The operating point (or probe) meets the SLO of `w`.
bool MeetsSlo(const Workload& w, const RepResult& r);

/// Micro-timings of the per-message building blocks, by metric name.
std::map<std::string, double> RunMicro(uint64_t seed);

double WallNow();

}  // namespace e2e

#endif  // SBFT_BENCH_E2E_RUNNER_H_
