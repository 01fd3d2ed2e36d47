// Ablation for the paper's §IV-B remark: "PBFT requires two phases of
// quadratic communication complexity. Instead, shim can employ BFT
// protocols like PoE and SBFT that guarantee linear communication with
// the help of advanced cryptographic schemes like threshold signatures."
//
// Compares the quadratic PBFT shim against the linear shim as the shim
// grows, reporting throughput and messages per transaction. Both run
// shim::PbftReplica and differ only in its vote pattern: all-to-all
// PREPARE/COMMIT broadcasts, or votes collected by the primary and relayed
// as certificates. Intake, batching, view change and featherweight
// checkpoints are the same code, so the linear rows also pay the O(n^2)
// CHECKPOINT exchange every checkpoint_interval sequences.

#include "bench_util.h"

int main() {
  using namespace sbft;
  bench::Banner(
      "Ablation (§IV-B remark)", "quadratic PBFT shim vs linear shim",
      "linear communication keeps per-txn message counts flat as the shim "
      "grows, so the linear shim retains throughput at large n where "
      "PBFT's O(n^2) PREPARE/COMMIT traffic dominates");

  struct Variant {
    const char* name;
    core::Protocol protocol;
  };
  const Variant variants[] = {
      {"SERVERLESSBFT (PBFT, O(n^2))", core::Protocol::kServerlessBft},
      {"SERVERLESSBFT-LINEAR (O(n))", core::Protocol::kServerlessBftLinear},
  };
  const uint32_t node_counts[] = {8, 16, 32, 64, 128};

  for (const Variant& variant : variants) {
    std::printf("\n--- %s ---\n", variant.name);
    std::printf("%-12s %14s %12s %14s\n", "replicas", "throughput(t/s)",
                "lat-p50(ms)", "msgs/txn");
    for (uint32_t n : node_counts) {
      core::SystemConfig config = bench::BaseConfig();
      config.protocol = variant.protocol;
      config.shim.n = n;
      config.num_clients = 10000;
      core::RunReport report = bench::Run(config, 0.5, 1.0);
      double msgs_per_txn =
          report.completed_txns == 0
              ? 0
              : static_cast<double>(report.messages_sent) /
                    static_cast<double>(report.completed_txns);
      std::printf("%-12u %14.0f %12.1f %14.1f\n", n, report.throughput_tps,
                  report.latency_p50_s * 1e3, msgs_per_txn);
      std::fflush(stdout);
    }
  }
  return 0;
}
