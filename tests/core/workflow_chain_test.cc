// Exactly-once semantics for serverless workflow chains: each hop is a
// cross-shard transaction driven by an open-loop source (Beldi-style —
// hop k+1 only after hop k commits, aborted hops reissued as fresh
// transactions, timeouts retransmitting the same signed request). Under
// a coordinator crash mid-run, the verifiers' 2PC evidence (the whole
// history of their decision logs, read from the logs' sinks) must show:
// at most one attempt per hop ever applied, applied hops atomic across
// shards, and completed chains with exactly one applied attempt for
// every hop.

#include <gtest/gtest.h>

#include "core/serverless_bft.h"
#include "faults/controller.h"
#include "faults/schedule.h"

#include "twopc_evidence.h"

namespace sbft::core {
namespace {

SystemConfig WorkflowChainConfig() {
  SystemConfig config;
  config.shard_count = 2;
  config.shim.n = 4;
  config.shim.batch_size = 2;
  config.shim.checkpoint_interval = 8;
  config.n_e = 3;
  config.f_e = 1;
  config.coordinator_vote_timeout = Millis(600);
  config.crypto_mode = crypto::CryptoMode::kFast;
  config.seed = 33;
  config.traffic.open_loop = true;
  config.traffic.sources = 2;
  config.traffic.offered_tps = 120.0;
  config.traffic.family = workload::TrafficFamily::kWorkflow;
  config.traffic.workflow.functions = 4;
  config.traffic.workflow.state_keys_per_function = 200;
  config.traffic.workflow.chain_hops = 3;
  config.traffic.retry_timeout = Millis(400);
  config.traffic.retry_inflight_cap = 32;
  return config;
}

TEST(WorkflowChainTest, HopsCommitExactlyOnceAcrossCoordinatorCrash) {
  SystemConfig config = WorkflowChainConfig();
  Architecture arch(config);
  LogTrail trail(arch);

  // Crash the coordinator mid-protocol — prepare locks held, decisions
  // in doubt — and recover it while sources keep injecting and
  // retransmitting.
  auto schedule = faults::FaultSchedule::Parse(
      "at 1s crash coordinator\n"
      "at 2500ms recover coordinator\n");
  ASSERT_TRUE(schedule.ok());
  faults::FaultController controller(&arch);
  ASSERT_TRUE(controller.Install(*schedule).ok());

  arch.Start();
  arch.simulator()->RunUntil(Seconds(6.0));
  // Quiesce: stop injecting and let in-flight hops (and their decision
  // deliveries to the shard verifiers) drain before auditing.
  for (const auto& source : arch.sources()) source->Pause();
  arch.simulator()->RunUntil(Seconds(9.0));

  // Union the per-shard 2PC evidence.
  const TwoPcEvidence evidence = CollectTwoPcEvidence(arch, trail);
  // Atomicity: no hop attempt applied on one shard, aborted on another.
  EXPECT_TRUE(evidence.SplitOutcomes().empty());

  uint64_t chains_completed = 0;
  uint64_t chains_seen = 0;
  uint64_t hop_retries = 0;
  for (const auto& source : arch.sources()) {
    for (const TrafficSource::ChainRecord& chain : source->chains()) {
      ++chains_seen;
      if (chain.completed) ++chains_completed;
      for (size_t hop = 0; hop < chain.hop_attempts.size(); ++hop) {
        const auto& attempts = chain.hop_attempts[hop];
        if (attempts.size() > 1) hop_retries += attempts.size() - 1;
        // Exactly-once per hop: of all attempts ever issued for this
        // hop, at most one is in any shard's applied set — a duplicate
        // application (same id twice is impossible by the dedup maps;
        // two *different* attempt ids both applying is the bug this
        // guards) would double-run the function.
        int applied_attempts = 0;
        for (TxnId id : attempts) {
          if (evidence.Applied({source->id(), id})) ++applied_attempts;
        }
        EXPECT_LE(applied_attempts, 1)
            << "chain " << chain.chain_id << " hop " << hop
            << " applied twice";
        if (chain.completed) {
          // A completed chain committed every hop exactly once, and no
          // prefix is missing (no chain partially visible).
          EXPECT_EQ(applied_attempts, 1)
              << "chain " << chain.chain_id << " hop " << hop
              << " completed without an applied attempt";
        }
      }
    }
  }
  // The run actually exercised the machinery: chains completed across
  // the crash, and at least some hops needed abort-path retries.
  EXPECT_GT(chains_seen, 100u);
  EXPECT_GT(chains_completed, 50u);
  EXPECT_GT(arch.TotalRetransmissions(), 0u);
  SUCCEED() << "hop retries observed: " << hop_retries;
}

}  // namespace
}  // namespace sbft::core
