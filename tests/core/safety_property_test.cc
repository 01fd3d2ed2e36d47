// Property-based sweeps of the §IV-E / §VII guarantees: for a grid of
// seeds, fault mixes, and network conditions, every run must satisfy the
// safety invariants, and fault-free runs must satisfy liveness.

#include <gtest/gtest.h>

#include "core/serverless_bft.h"
#include "faults/controller.h"
#include "faults/schedule.h"

#include "log_trail.h"

namespace sbft::core {
namespace {

struct PropertyCase {
  const char* name;
  uint64_t seed;
  double drop;
  double duplicate;
  int byzantine_kind;  // 0 none, 1 crash backup, 2 dark, 3 byz executors,
                       // 4 suppressing primary.
};

class SafetyPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

SystemConfig ConfigFor(const PropertyCase& param) {
  SystemConfig config;
  config.shim.n = 4;
  config.shim.batch_size = 3;
  config.shim.checkpoint_interval = 16;
  config.n_e = 3;
  config.f_e = 1;
  config.num_clients = 12;
  config.client_timeout = Millis(500);
  config.workload.record_count = 500;
  config.crypto_mode = crypto::CryptoMode::kFast;
  config.seed = param.seed;
  config.network.drop_probability = param.drop;
  config.network.duplicate_probability = param.duplicate;
  if (param.byzantine_kind == 3) {
    config.byzantine_executors = 1;
    config.byzantine_executor_behavior =
        serverless::ExecutorBehavior::kWrongResult;
  }
  return config;
}

/// The shim-node fault of `param`, as a schedule that starts with the run.
const char* ScheduleFor(const PropertyCase& param) {
  switch (param.byzantine_kind) {
    case 1:
      return "at 0ms crash node 2\n";
    case 2:
      return "at 0ms byzantine node 0 dark=3\n";
    case 4:
      return "at 0ms byzantine node 0 suppress-requests\n";
    default:
      return "";
  }
}

TEST_P(SafetyPropertyTest, InvariantsHold) {
  const PropertyCase& param = GetParam();
  SystemConfig config = ConfigFor(param);
  Architecture arch(config);
  LogTrail trail(arch);
  faults::FaultController controller(&arch);
  auto schedule = faults::FaultSchedule::Parse(ScheduleFor(param));
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  ASSERT_TRUE(controller.Install(*schedule).ok()) << param.name;
  arch.Start();
  arch.simulator()->RunUntil(Seconds(4));

  // --- Shim Consistency + Non-Divergence (§IV-E): committed digests
  // agree across honest nodes for every sequence number.
  SeqNum max_seq = 0;
  for (uint32_t i = 0; i < config.shim.n; ++i) {
    max_seq = std::max(max_seq, arch.pbft_replicas()[i]->stable_seq() + 200);
  }
  for (SeqNum seq = 1; seq <= max_seq; ++seq) {
    const crypto::Digest* first = nullptr;
    for (uint32_t i = 0; i < config.shim.n; ++i) {
      if (arch.pbft_replicas()[i]->behavior().byzantine) continue;
      auto digest = arch.pbft_replicas()[i]->CommittedDigest(seq);
      if (!digest.has_value()) continue;
      if (first == nullptr) {
        first = &*digest;
      } else {
        ASSERT_EQ(*first, *digest)
            << param.name << ": divergence at seq " << seq;
      }
    }
  }

  // --- Verifier Non-Divergence: storage updates strictly follow shim
  // order (audit log history is gap-free from seq 1 and hash-chain
  // intact).
  const LogTrail::Entries& entries = trail.audit[0];
  ASSERT_EQ(entries.size(), arch.verifier()->audit_log().size())
      << param.name;
  ASSERT_TRUE(arch.verifier()->audit_log().VerifyChain()) << param.name;
  for (size_t i = 1; i < entries.size(); ++i) {
    ASSERT_EQ(entries[i].seq, entries[i - 1].seq + 1)
        << param.name << ": verifier skipped a sequence";
  }
  if (!entries.empty()) {
    ASSERT_EQ(entries.front().seq, 1u) << param.name;
  }

  // --- Client integrity: completed+aborted never exceeds what the
  // verifier settled (no phantom responses).
  EXPECT_LE(arch.TotalCompleted(),
            arch.verifier()->applied_txns() + 1)
      << param.name;

  // --- Liveness (§VII, requires synchrony): when the network is clean,
  // transactions must complete.
  if (param.drop == 0.0) {
    EXPECT_GT(arch.TotalCompleted(), 0u) << param.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SafetyPropertyTest,
    ::testing::Values(
        PropertyCase{"clean_s1", 1, 0.0, 0.0, 0},
        PropertyCase{"clean_s2", 2, 0.0, 0.0, 0},
        PropertyCase{"clean_s3", 3, 0.0, 0.0, 0},
        PropertyCase{"lossy_s4", 4, 0.02, 0.0, 0},
        PropertyCase{"lossy_s5", 5, 0.05, 0.02, 0},
        PropertyCase{"dupes_s6", 6, 0.0, 0.10, 0},
        PropertyCase{"crash_s7", 7, 0.0, 0.0, 1},
        PropertyCase{"crash_lossy_s8", 8, 0.03, 0.0, 1},
        PropertyCase{"dark_s9", 9, 0.0, 0.0, 2},
        PropertyCase{"dark_lossy_s10", 10, 0.02, 0.02, 2},
        PropertyCase{"byzexec_s11", 11, 0.0, 0.0, 3},
        PropertyCase{"byzexec_lossy_s12", 12, 0.03, 0.0, 3},
        PropertyCase{"suppress_s13", 13, 0.0, 0.0, 4},
        PropertyCase{"suppress_dupes_s14", 14, 0.0, 0.05, 4}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace sbft::core
