#include "core/experiment.h"

#include <algorithm>
#include <cstdio>

namespace sbft::core {

std::string RunReport::OneLine() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "tput=%.0f txn/s lat(mean=%.3fs p50=%.3fs p99=%.3fs) "
                "aborts=%.1f%% cost=%.3f c/ktxn",
                throughput_tps, latency_mean_s, latency_p50_s, latency_p99_s,
                abort_rate * 100.0, cents_per_ktxn);
  std::string line = buf;
  std::snprintf(buf, sizeof(buf),
                " offered=%.0f p999=%.3fs drops=%llu peak_inflight=%llu",
                offered_tps, latency_p999_s,
                static_cast<unsigned long long>(dropped_txns),
                static_cast<unsigned long long>(peak_inflight));
  line += buf;
  if (coord_group_decisions.size() > 1) {
    uint64_t total = 0;
    for (uint64_t d : coord_group_decisions) total += d;
    std::snprintf(buf, sizeof(buf),
                  " coord_groups=%zu decisions=%llu imbalance=%.2f",
                  coord_group_decisions.size(),
                  static_cast<unsigned long long>(total),
                  coord_group_imbalance);
    line += buf;
  }
  return line;
}

RunReport RunExperiment(const SystemConfig& config, SimDuration warmup,
                        SimDuration measure) {
  Architecture arch(config);
  arch.Start();

  // Dispatches to the serial loop or the parallel engine (sim_threads).
  arch.RunUntil(warmup);

  // Plane-summed counters (a sharded architecture spawns, bills, and
  // flood-filters on every plane; shard 0 alone would under-report).
  auto total_spawned = [&arch]() {
    uint64_t total = 0;
    for (uint32_t s = 0; s < arch.shard_count(); ++s) {
      total += arch.plane(s)->spawner()->executors_spawned();
    }
    return total;
  };
  auto total_cold_starts = [&arch]() {
    uint64_t total = 0;
    for (uint32_t s = 0; s < arch.shard_count(); ++s) {
      total += arch.plane(s)->cloud()->cold_starts();
    }
    return total;
  };
  auto total_lambda_cents = [&arch]() {
    double total = 0;
    for (uint32_t s = 0; s < arch.shard_count(); ++s) {
      total += arch.plane(s)->cloud()->cost_meter()->lambda_cents();
    }
    return total;
  };
  auto total_floods = [&arch]() {
    uint64_t total = 0;
    for (uint32_t s = 0; s < arch.shard_count(); ++s) {
      total += arch.plane(s)->verifier()->flooding_ignored();
    }
    return total;
  };

  // Snapshot counters at the end of warmup.
  const uint64_t completed0 = arch.TotalCompleted();
  const uint64_t aborted0 = arch.TotalAborted();
  const uint64_t messages0 = arch.network()->messages_sent();
  const uint64_t bytes0 = arch.network()->bytes_sent();
  const uint64_t spawned0 = total_spawned();
  const uint64_t cold0 = total_cold_starts();
  const uint64_t retrans0 = arch.TotalRetransmissions();
  const uint64_t offered0 = arch.TotalOffered();
  const uint64_t dropped0 = arch.TotalDropped();
  const double lambda0 = total_lambda_cents();
  const uint64_t view_changes0 = arch.TotalViewChanges();
  const uint64_t floods0 = total_floods();
  const std::vector<uint64_t> coord_decisions0 =
      arch.CoordinatorGroupDecisions();
  arch.ResetLatency();
  arch.ResetPeakInflight();
  arch.SetRecording(true);

  arch.RunUntil(warmup + measure);

  RunReport report;
  report.duration_s = ToSeconds(measure);
  report.completed_txns = arch.TotalCompleted() - completed0;
  report.aborted_txns = arch.TotalAborted() - aborted0;
  report.throughput_tps =
      static_cast<double>(report.completed_txns) / report.duration_s;
  uint64_t settled = report.completed_txns + report.aborted_txns;
  report.abort_rate =
      settled == 0 ? 0
                   : static_cast<double>(report.aborted_txns) /
                         static_cast<double>(settled);

  // Per-shard latency histograms, merged into the report's distribution.
  const Histogram latency = arch.MergedLatency();
  report.latency_mean_s = latency.mean() / static_cast<double>(kSecond);
  report.latency_p50_s =
      static_cast<double>(latency.p50()) / static_cast<double>(kSecond);
  report.latency_p99_s =
      static_cast<double>(latency.p99()) / static_cast<double>(kSecond);
  report.latency_p999_s =
      static_cast<double>(latency.p999()) / static_cast<double>(kSecond);

  report.offered_txns = arch.TotalOffered() - offered0;
  report.offered_tps =
      static_cast<double>(report.offered_txns) / report.duration_s;
  report.dropped_txns = arch.TotalDropped() - dropped0;
  report.peak_inflight = arch.PeakInflight();

  report.messages_sent = arch.network()->messages_sent() - messages0;
  report.bytes_sent = arch.network()->bytes_sent() - bytes0;
  report.executors_spawned = total_spawned() - spawned0;
  report.cold_starts = total_cold_starts() - cold0;
  report.view_changes = arch.TotalViewChanges() - view_changes0;
  report.client_retransmissions = arch.TotalRetransmissions() - retrans0;
  report.verifier_floods_ignored = total_floods() - floods0;

  // Monetary cost over the measurement window (Fig. 8 methodology):
  // Lambda charges accrued during measurement plus VM time for the shim
  // and verifier machines (one set per shard plane, plus the
  // coordinator's machine in sharded runs).
  report.lambda_cents = total_lambda_cents() - lambda0;
  serverless::CostMeter vm_meter;
  int per_plane_cores = static_cast<int>(arch.config().shim.n) *
                            arch.config().shim_cores +
                        arch.config().verifier_cores;
  if (arch.config().protocol == Protocol::kPbftBaseline) {
    per_plane_cores =
        static_cast<int>(arch.config().shim.n) *
        (arch.config().shim_cores + arch.config().execution_threads);
  }
  int vm_cores = per_plane_cores * static_cast<int>(arch.shard_count());
  if (arch.shard_count() > 1) {
    // One machine per coordinator member (G groups x R replicas).
    vm_cores += arch.config().CoordinatorCores() *
                static_cast<int>(arch.coord_topology().total());
  }
  vm_meter.ChargeVmTime(vm_cores, measure);
  report.vm_cents = vm_meter.vm_cents();

  uint64_t txns = report.completed_txns;
  if (txns > 0) {
    report.cents_per_ktxn =
        (report.lambda_cents + report.vm_cents) * 1000.0 /
        static_cast<double>(txns);
  }

  // Per-coordinator-group served decisions over the window, plus the
  // max/mean imbalance ratio (DESIGN.md §12 observability).
  report.coord_group_decisions = arch.CoordinatorGroupDecisions();
  for (size_t g = 0; g < report.coord_group_decisions.size(); ++g) {
    report.coord_group_decisions[g] -=
        g < coord_decisions0.size() ? coord_decisions0[g] : 0;
  }
  if (report.coord_group_decisions.size() > 1) {
    uint64_t total = 0;
    uint64_t peak = 0;
    for (uint64_t d : report.coord_group_decisions) {
      total += d;
      peak = std::max(peak, d);
    }
    if (total > 0) {
      double mean = static_cast<double>(total) /
                    static_cast<double>(report.coord_group_decisions.size());
      report.coord_group_imbalance = static_cast<double>(peak) / mean;
    }
  }
  return report;
}

}  // namespace sbft::core
