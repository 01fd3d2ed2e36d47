#ifndef SBFT_WORKLOAD_TRAFFIC_H_
#define SBFT_WORKLOAD_TRAFFIC_H_

#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "workload/tpcc.h"
#include "workload/workflow.h"

namespace sbft::workload {

/// Shape of the arrival process an open-loop source realizes.
enum class ArrivalKind {
  kPoisson = 0,  ///< Homogeneous Poisson at the configured rate.
  kBursty = 1,   ///< On/off square-wave modulated Poisson.
  kDiurnal = 2,  ///< Trace-driven rate multipliers (a scaled day).
};

/// Which transaction family the traffic sources inject.
enum class TrafficFamily {
  kYcsb = 0,      ///< The YCSB key-value workload (paper §IX).
  kTpcc = 1,      ///< TPC-C-style NewOrder multi-key RMW.
  kWorkflow = 2,  ///< Serverless workflow chains (one txn per hop).
};

/// \brief Open-loop traffic configuration.
///
/// Off by default: `open_loop == false` runs `SystemConfig::num_clients`
/// closed-loop TrafficSource actors, each sending its next request when
/// the last one is answered. They have no arrival process, fork no rng
/// stream and read none of the fields below, so they replay the golden
/// digests. When on, `sources` TrafficSource actors inject transactions
/// at `offered_tps` aggregate regardless of completion — the open-loop
/// regime where saturation, retry storms, and overload shedding are
/// observable.
struct TrafficConfig {
  bool open_loop = false;

  /// Traffic source actors (regions' worth of injectors). The offered
  /// rate is split evenly across them.
  uint32_t sources = 4;
  /// Aggregate offered load, txn/s, across all sources (the peak rate
  /// for the modulated arrival kinds; bursty/diurnal average below it).
  double offered_tps = 2000.0;

  ArrivalKind arrival = ArrivalKind::kPoisson;
  /// Bursty: peak window length, idle window length, and the idle-rate
  /// fraction of peak (duty-cycle modulation).
  SimDuration burst_on = Millis(100);
  SimDuration burst_off = Millis(400);
  double burst_idle_fraction = 0.1;
  /// Diurnal: rate multipliers per `diurnal_step` slot, wrapping (the
  /// trace; empty means flat 1.0). `offered_tps` is the base rate.
  std::vector<double> diurnal_trace;
  SimDuration diurnal_step = Millis(500);

  TrafficFamily family = TrafficFamily::kYcsb;
  TpccConfig tpcc;
  WorkflowConfig workflow;

  /// Retransmission timer per in-flight transaction (τ_m); the closed
  /// loop uses `SystemConfig::client_timeout` instead.
  SimDuration retry_timeout = Millis(400);
  /// Cap on transactions a source keeps *retrying* concurrently; once
  /// the cap is full, further timeouts drop the transaction (counted in
  /// dropped()) instead of joining the retransmit storm. 0 = drop on
  /// first timeout; the cap is what bounds retry amplification under
  /// overload.
  uint32_t retry_inflight_cap = 64;
  /// Hard cap on total in-flight transactions per source; arrivals
  /// beyond it are shed (offered + dropped). 0 = unbounded.
  uint64_t max_inflight = 0;
};

}  // namespace sbft::workload

#endif  // SBFT_WORKLOAD_TRAFFIC_H_
