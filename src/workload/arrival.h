#ifndef SBFT_WORKLOAD_ARRIVAL_H_
#define SBFT_WORKLOAD_ARRIVAL_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"

namespace sbft::workload {

/// \brief Stochastic arrival process driving an open-loop traffic source.
///
/// Each call yields the gap from `now` to the next transaction arrival,
/// drawing from the caller's Rng — one process instance per source, so a
/// seed pins the full arrival stream byte-identically. Gaps are always
/// >= 1 ns (the simulator needs strictly advancing injection times).
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /// Gap from `now` (simulated) until the next arrival.
  virtual SimDuration NextGap(SimTime now, Rng* rng) = 0;

  /// Instantaneous rate (txn/s) at `t` — the intensity function the
  /// process realizes; exposed so tests and benches can reason about
  /// offered load without re-deriving the modulation.
  virtual double RateAt(SimTime t) const = 0;
};

/// Homogeneous Poisson arrivals at `rate_tps`: i.i.d. exponential
/// interarrival gaps, one Exponential draw per arrival.
class PoissonArrivals : public ArrivalProcess {
 public:
  explicit PoissonArrivals(double rate_tps);
  SimDuration NextGap(SimTime now, Rng* rng) override;
  double RateAt(SimTime) const override { return rate_tps_; }

 private:
  double rate_tps_;
};

/// On/off modulated Poisson (bursty): a square-wave intensity that runs
/// at `peak_tps` for `on` out of every `on + off`, and at
/// `idle_fraction * peak_tps` in between. Realized by Lewis-Shedler
/// thinning against the peak rate, so the draw sequence is deterministic
/// for a seed regardless of where in the cycle `now` falls.
class BurstyArrivals : public ArrivalProcess {
 public:
  BurstyArrivals(double peak_tps, SimDuration on, SimDuration off,
                 double idle_fraction);
  SimDuration NextGap(SimTime now, Rng* rng) override;
  double RateAt(SimTime t) const override;

 private:
  double peak_tps_;
  SimDuration on_;
  SimDuration period_;
  double idle_fraction_;
};

/// Trace-driven diurnal arrivals: `multipliers` scales `base_tps` in
/// fixed `step`-long slots, wrapping at the end of the trace (a scaled
/// day). Thinning against the trace peak keeps the stream seed-pinned.
class DiurnalArrivals : public ArrivalProcess {
 public:
  DiurnalArrivals(double base_tps, std::vector<double> multipliers,
                  SimDuration step);
  SimDuration NextGap(SimTime now, Rng* rng) override;
  double RateAt(SimTime t) const override;

 private:
  double base_tps_;
  std::vector<double> multipliers_;
  SimDuration step_;
  double peak_tps_;
};

}  // namespace sbft::workload

#endif  // SBFT_WORKLOAD_ARRIVAL_H_
