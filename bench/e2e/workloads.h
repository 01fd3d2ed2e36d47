#ifndef SBFT_BENCH_E2E_WORKLOADS_H_
#define SBFT_BENCH_E2E_WORKLOADS_H_

#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"

namespace e2e {

/// What a request needs from the system for a fault to stall it.
enum class Needs {
  kCrossShard,  ///< Any cross-shard transaction (the coordinator group).
  kShard0,      ///< Any transaction touching shard plane 0.
};

/// One injected fault, in the scenario grammar of faults/schedule.h.
struct Fault {
  double at_s = 0;
  std::string line;
  Needs needs = Needs::kCrossShard;
};

/// The operating point's own service-level objective: p99 within the
/// limit, at most 1% of the offered load failed, at least 95% of it
/// answered. A workload whose aborts are the point of the exercise (hot
/// keys) counts only drops as failures and aborts as answers.
struct Slo {
  double p99_ms = 100;      ///< 0 = no tail objective.
  bool aborts_expected = false;
  double max_outage_s = 0;  ///< 0 = no outage objective.
};

/// One benchmark workload: an open-loop Poisson YCSB deployment at a
/// fixed operating rate, with simulated warmup/measure windows.
struct Workload {
  std::string name;
  std::string why;
  double rate_tps = 0;
  double warmup_s = 0.5;
  double measure_s = 2.0;
  /// Typical wall seconds of one rep (4-core KVM Xeon); sizes how many
  /// replicas a `--workload` run of a given length simulates.
  double rep_wall_s = 1.0;
  /// Bisect the knee over [rate_tps, 2 * rate_tps].
  bool knee = false;
  /// The serial workload this one re-runs on the parallel engine.
  std::string serial_twin;
  std::vector<Fault> faults;
  Slo slo;
  /// The deployment at `rate` transactions per simulated second.
  sbft::core::SystemConfig (*config)(double rate) = nullptr;

  sbft::core::SystemConfig Config(double rate, uint64_t seed) const {
    sbft::core::SystemConfig c = config(rate);
    c.seed = seed;
    return c;
  }
};

/// All workloads, in suite order.
const std::vector<Workload>& Workloads();

/// nullptr when no workload has that name.
const Workload* FindWorkload(std::string_view name);

}  // namespace e2e

#endif  // SBFT_BENCH_E2E_WORKLOADS_H_
