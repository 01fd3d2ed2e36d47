// Figure 11 (beyond the paper's closed-loop sweeps): open-loop
// saturation — offered load vs goodput on a small SERVBFT deployment.
// The paper's client sweep (Fig. 5) is closed-loop, so the x-axis stops
// where the system stops absorbing work; the open-loop sources keep
// offering past that point, exposing the knee and the congestion
// collapse behind it: goodput tracks offered load, then falls while the
// p999 tail inflects by an order of magnitude and the retry cap starts
// shedding.

#include "bench_util.h"

namespace {

sbft::core::SystemConfig SaturationConfig(double offered_tps) {
  using namespace sbft;
  // Deliberately small (n=4, batch 2) so the knee sits at a rate the
  // sweep can bracket quickly; the same config family the open-loop
  // regression tests calibrate against.
  core::SystemConfig config;
  config.shim.n = 4;
  config.shim.batch_size = 2;
  config.shim.checkpoint_interval = 8;
  config.n_e = 3;
  config.f_e = 1;
  config.workload.record_count = 1000;
  config.crypto_mode = crypto::CryptoMode::kFast;
  config.seed = 2023;
  config.traffic.open_loop = true;
  config.traffic.sources = 2;
  config.traffic.offered_tps = offered_tps;
  config.traffic.retry_timeout = Millis(400);
  config.traffic.retry_inflight_cap = 32;
  config.traffic.max_inflight = 2000;
  return config;
}

void PrintSatHeader() {
  std::printf("%-14s %12s %12s %12s %12s %10s %10s %10s\n", "offered(t/s)",
              "goodput(t/s)", "p50(ms)", "p99(ms)", "p999(ms)", "drops",
              "peak-infl", "retrans");
}

void PrintSatRow(const sbft::core::RunReport& r) {
  std::printf("%-14.0f %12.0f %12.1f %12.1f %12.1f %10llu %10llu %10llu\n",
              r.offered_tps, r.throughput_tps, r.latency_p50_s * 1e3,
              r.latency_p99_s * 1e3, r.latency_p999_s * 1e3,
              static_cast<unsigned long long>(r.dropped_txns),
              static_cast<unsigned long long>(r.peak_inflight),
              static_cast<unsigned long long>(r.client_retransmissions));
  std::fflush(stdout);
}

}  // namespace

int main() {
  using namespace sbft;
  bench::Banner(
      "Figure 11", "open-loop saturation: offered load vs goodput",
      "goodput tracks offered load up to the knee, then collapses while "
      "the latency tail inflects; a closed-loop client sweep cannot reach "
      "this regime because it never offers more than the system absorbs");

  std::printf("\n--- open-loop sweep (Poisson arrivals, 2 sources) ---\n");
  PrintSatHeader();
  const double rates[] = {500,  1000, 2000,  4000,  6000,
                          8000, 10000, 12000, 16000, 24000};
  for (double rate : rates) {
    core::RunReport report = core::RunExperiment(SaturationConfig(rate),
                                                 Seconds(0.5), Seconds(2.0));
    PrintSatRow(report);
  }

  // Closed-loop reference on the same deployment: however many clients
  // are attached, offered load self-limits to completions — throughput
  // plateaus at capacity with nothing shed, which is exactly why the
  // knee above needs open-loop sources to be visible.
  std::printf("\n--- closed-loop reference (same deployment) ---\n");
  bench::PrintHeader("clients");
  for (uint32_t clients : {8u, 64u, 256u, 1024u}) {
    core::SystemConfig config = SaturationConfig(0);
    config.traffic.open_loop = false;
    config.num_clients = clients;
    core::RunReport report =
        core::RunExperiment(config, Seconds(0.5), Seconds(2.0));
    bench::PrintRow(std::to_string(clients), report);
  }
  return 0;
}
