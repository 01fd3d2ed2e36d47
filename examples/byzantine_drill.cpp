// Byzantine attack drill: runs the attack catalogue of paper §V against a
// live deployment and reports how each one is absorbed or recovered —
// request suppression (view change via the Fig. 4 timers), nodes-in-dark
// (featherweight checkpoints), verifier flooding (ignore-after-match),
// and byzantine executors (f_E+1 matching). Exits 1, naming the drill,
// when any drill's audit chain breaks.
//
//   ./build/examples/byzantine_drill

#include <cstdio>
#include <cstdlib>

#include "core/serverless_bft.h"
#include "faults/controller.h"
#include "faults/schedule.h"

namespace {

using namespace sbft;

core::SystemConfig BaseConfig() {
  core::SystemConfig config;
  config.shim.n = 4;
  config.shim.batch_size = 5;
  config.shim.checkpoint_interval = 16;
  config.n_e = 3;
  config.f_e = 1;
  config.num_clients = 12;
  config.client_timeout = Millis(400);
  config.workload.record_count = 5000;
  config.crypto_mode = crypto::CryptoMode::kFast;
  config.seed = 99;
  return config;
}

/// Runs `arch` for 6 s with `attack`, a fault schedule ("" for none)
/// installed before Start(); a shim node's attack that starts with the
/// run is an `at 0ms` line.
void Run(core::Architecture& arch, const char* attack) {
  faults::FaultController controller(&arch);
  auto schedule = faults::FaultSchedule::Parse(attack);
  Status installed = schedule.ok() ? controller.Install(*schedule)
                                   : schedule.status();
  if (!installed.ok()) {
    std::fprintf(stderr, "byzantine_drill: %s\n",
                 installed.ToString().c_str());
    std::exit(1);
  }
  arch.Start();
  arch.simulator()->RunUntil(Seconds(6));
}

/// Prints one drill's row and returns whether its audit chain held.
bool Report(const char* attack, core::Architecture& arch) {
  const bool intact = arch.verifier()->audit_log().VerifyChain();
  std::printf("%-28s committed=%-6llu view-changes=%-3llu "
              "retransmissions=%-4llu floods-ignored=%-5llu audit=%s\n",
              attack,
              static_cast<unsigned long long>(arch.TotalCompleted()),
              static_cast<unsigned long long>(arch.TotalViewChanges()),
              static_cast<unsigned long long>(arch.TotalRetransmissions()),
              static_cast<unsigned long long>(
                  arch.verifier()->flooding_ignored()),
              intact ? "ok" : "BROKEN");
  if (!intact) {
    std::fprintf(stderr, "byzantine_drill: audit chain broken in drill '%s'\n",
                 attack);
  }
  return intact;
}

}  // namespace

int main() {
  std::printf("ServerlessBFT byzantine drill (paper §V attack catalogue)\n");
  std::printf("4 shim nodes (f_R=1), 3 executors (f_E=1), 12 clients, 6s\n\n");
  bool intact = true;

  {  // Baseline: everyone honest.
    core::Architecture arch(BaseConfig());
    Run(arch, "");
    intact &= Report("baseline (honest)", arch);
  }
  {  // §V-A: the primary drops every client request.
    core::Architecture arch(BaseConfig());
    Run(arch, "at 0ms byzantine node 0 suppress-requests\n");
    intact &= Report("request suppression", arch);
  }
  {  // §V-A: primary crash-stops.
    core::Architecture arch(BaseConfig());
    Run(arch, "at 0ms crash node 0\n");
    intact &= Report("crashed primary", arch);
  }
  {  // §V-B: one honest node (actor id 4) kept in the dark.
    core::Architecture arch(BaseConfig());
    Run(arch, "at 0ms byzantine node 0 dark=4\n");
    intact &= Report("nodes in dark", arch);
    std::printf("%-28s dark node adopted %llu certificates via "
                "featherweight checkpoints\n",
                "",
                static_cast<unsigned long long>(
                    arch.pbft_replicas()[3]->dark_recoveries()));
  }
  {  // §V-B: equivocating primary (safety must hold).
    core::Architecture arch(BaseConfig());
    Run(arch, "at 0ms byzantine node 0 equivocate\n");
    intact &= Report("equivocation", arch);
  }
  {  // §V-C: duplicate spawning floods the verifier (self-penalizing).
    core::Architecture arch(BaseConfig());
    Run(arch, "at 0ms byzantine node 0 duplicate-spawns=2\n");
    intact &= Report("duplicate spawning", arch);
    std::printf("%-28s lambda bill %.4f cents (3x the honest work — the "
                "attacker pays)\n",
                "", arch.cloud()->cost_meter()->lambda_cents());
  }
  {  // §III: byzantine executors lie about results.
    core::SystemConfig config = BaseConfig();
    config.byzantine_executors = 1;
    config.byzantine_executor_behavior =
        serverless::ExecutorBehavior::kWrongResult;
    core::Architecture arch(config);
    Run(arch, "");
    intact &= Report("lying executors (f_E)", arch);
  }
  {  // §VI-B: delayed spawning to force aborts on conflicting txns.
    core::SystemConfig config = BaseConfig();
    config.conflicts_possible = true;
    config.workload.rw_sets_known = false;
    config.workload.conflict_percentage = 30;
    config.n_e = 4;  // 3f_E+1.
    config.verifier_match_timeout = Millis(250);
    core::Architecture arch(config);
    Run(arch, "at 0ms byzantine node 0 spawn-delay=120ms\n");
    intact &= Report("byzantine aborts (§VI-B)", arch);
    std::printf("%-28s aborted=%llu (aborts, never inconsistency)\n", "",
                static_cast<unsigned long long>(arch.TotalAborted()));
  }
  if (!intact) return 1;
  std::printf("\nall drills completed; every audit chain stayed intact.\n");
  return 0;
}
