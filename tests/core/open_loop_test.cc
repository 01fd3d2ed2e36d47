// Open-loop traffic subsystem: offered vs goodput accounting in
// RunReport, saturation behaviour past the knee (something the
// closed-loop client can't express — it never offers more than the
// system absorbs), and the per-source retry cap that bounds retransmit
// amplification by shedding instead of storming.

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/serverless_bft.h"

namespace sbft::core {
namespace {

SystemConfig OpenLoopConfig(double offered_tps, uint64_t seed = 21) {
  SystemConfig config;
  config.shim.n = 4;
  config.shim.batch_size = 2;
  config.shim.checkpoint_interval = 8;
  config.n_e = 3;
  config.f_e = 1;
  config.workload.record_count = 1000;
  config.crypto_mode = crypto::CryptoMode::kFast;
  config.seed = seed;
  config.traffic.open_loop = true;
  config.traffic.sources = 2;
  config.traffic.offered_tps = offered_tps;
  config.traffic.retry_timeout = Millis(400);
  config.traffic.retry_inflight_cap = 32;
  config.traffic.max_inflight = 2000;
  return config;
}

TEST(OpenLoopTest, ClosedLoopOffersWhatItSettles) {
  SystemConfig config = OpenLoopConfig(100.0);
  config.traffic.open_loop = false;
  RunReport report = RunExperiment(config, Seconds(0.5), Seconds(1.0));
  EXPECT_GT(report.completed_txns, 0u);
  // Each answer releases exactly one request, nothing is ever shed, and
  // every client always has its one request in flight.
  EXPECT_EQ(report.offered_txns,
            report.completed_txns + report.aborted_txns);
  EXPECT_EQ(report.dropped_txns, 0u);
  EXPECT_EQ(report.peak_inflight, config.num_clients);
}

TEST(OpenLoopTest, LightLoadGoodputTracksOfferedRate) {
  RunReport report =
      RunExperiment(OpenLoopConfig(150.0), Seconds(0.5), Seconds(2.0));
  // The Poisson sources realize the configured rate...
  EXPECT_NEAR(report.offered_tps, 150.0, 150.0 * 0.15);
  // ...and an unsaturated system commits essentially all of it.
  EXPECT_GT(report.throughput_tps, report.offered_tps * 0.9);
  EXPECT_EQ(report.dropped_txns, 0u);
  EXPECT_GT(report.peak_inflight, 0u);
  EXPECT_GT(report.latency_p999_s, 0.0);
  EXPECT_GE(report.latency_p999_s, report.latency_p50_s);
}

TEST(OpenLoopTest, PastTheKneeGoodputCollapsesAndTailInflects) {
  // The small system's knee sits between 8k and 12k offered tps; below
  // it goodput tracks offered, past it goodput collapses while the
  // latency tail inflects by an order of magnitude — the regime the
  // closed-loop client cannot reach at any client count it runs here.
  RunReport below =
      RunExperiment(OpenLoopConfig(5000.0), Seconds(0.5), Seconds(2.0));
  RunReport below_2023 =
      RunExperiment(OpenLoopConfig(5000.0, 2023), Seconds(0.5), Seconds(2.0));
  RunReport over =
      RunExperiment(OpenLoopConfig(12000.0), Seconds(0.5), Seconds(2.0));

  // Below the knee the sources realize their rate and the system commits
  // nearly all of it, at a second seed too.
  for (const RunReport* report : {&below, &below_2023}) {
    EXPECT_NEAR(report->offered_tps, 5000.0, 5000.0 * 0.05);
    EXPECT_GT(report->throughput_tps, report->offered_tps * 0.9);
    EXPECT_EQ(report->dropped_txns, 0u);
  }

  // Offered load kept rising; goodput did not follow it.
  EXPECT_GT(over.offered_tps, below.offered_tps * 2);
  EXPECT_LT(over.throughput_tps, over.offered_tps * 0.5);
  // Saturation is visible in the backlog, the shed work, and the tail.
  EXPECT_GT(over.peak_inflight, below.peak_inflight * 4);
  EXPECT_GT(over.dropped_txns, 0u);
  EXPECT_GT(over.latency_p999_s, below.latency_p999_s * 5);
}

TEST(OpenLoopTest, RetryCapZeroDropsOnFirstTimeoutWithoutRetransmit) {
  SystemConfig config = OpenLoopConfig(150.0);
  // Tighter than the commit latency: every transaction times out at
  // least once, so the cap is exercised on each of them.
  config.traffic.retry_timeout = Millis(10);
  config.traffic.retry_inflight_cap = 0;
  RunReport report = RunExperiment(config, Seconds(0.5), Seconds(1.5));
  EXPECT_GT(report.dropped_txns, 0u);
  EXPECT_EQ(report.client_retransmissions, 0u);
}

TEST(OpenLoopTest, RetryCapBoundsConcurrentRetransmits) {
  SystemConfig config = OpenLoopConfig(150.0);
  config.traffic.retry_timeout = Millis(10);
  config.traffic.retry_inflight_cap = 1000;  // Effectively uncapped.
  RunReport uncapped = RunExperiment(config, Seconds(0.5), Seconds(1.5));
  // With room to retry, timed-out transactions retransmit and complete.
  EXPECT_GT(uncapped.client_retransmissions, 0u);
  EXPECT_EQ(uncapped.dropped_txns, 0u);
  EXPECT_GT(uncapped.completed_txns, 0u);

  config.traffic.retry_inflight_cap = 4;
  RunReport capped = RunExperiment(config, Seconds(0.5), Seconds(1.5));
  // The cap converts would-be retransmits into counted drops.
  EXPECT_GT(capped.dropped_txns, 0u);
  EXPECT_LT(capped.client_retransmissions, uncapped.client_retransmissions);
}

TEST(OpenLoopTest, TpccFamilyCommitsUnderOpenLoop) {
  SystemConfig config = OpenLoopConfig(100.0);
  config.traffic.family = workload::TrafficFamily::kTpcc;
  config.traffic.tpcc.warehouses = 4;
  config.traffic.tpcc.items = 200;
  RunReport report = RunExperiment(config, Seconds(0.5), Seconds(1.5));
  EXPECT_GT(report.completed_txns, 0u);
  EXPECT_GT(report.throughput_tps, report.offered_tps * 0.8);
}

}  // namespace
}  // namespace sbft::core
