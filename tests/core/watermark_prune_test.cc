// Long-run boundedness of 2PC bookkeeping under the fully-decided
// watermark (unified commit path): the coordinator COMMIT log and the
// shard verifiers' applied/aborted global-txn maps must be bounded by
// in-flight transactions (plus the retention window), not by the total
// cross-shard transaction count — the same unbounded-growth class PR 3
// eliminated from the event loop. The verifiers' audit and decision logs
// hold a fixed suffix at any run length, while their chains and sinks
// cover the whole history.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/serverless_bft.h"
#include "storage/audit_log.h"

#include "twopc_evidence.h"

namespace sbft::core {
namespace {

SystemConfig WatermarkConfig() {
  SystemConfig config;
  config.shard_count = 2;
  config.shim.n = 4;
  config.shim.batch_size = 2;
  config.n_e = 3;
  config.f_e = 1;
  config.num_clients = 16;
  config.workload.record_count = 20000;
  config.workload.cross_shard_percentage = 30.0;
  config.crypto_mode = crypto::CryptoMode::kFast;
  config.seed = 13;
  config.twopc_decision_retention = Millis(500);
  return config;
}

TEST(WatermarkPruneTest, CommitLogAndDedupMapsStayBounded) {
  Architecture arch(WatermarkConfig());
  arch.Start();
  arch.simulator()->RunUntil(Seconds(8));

  const TxnCoordinator* coordinator = arch.coordinator();
  ASSERT_NE(coordinator, nullptr);
  // The run must produce far more commits than any bound we assert, so
  // boundedness is meaningful.
  EXPECT_GT(coordinator->commits_decided(), 400u);
  EXPECT_GT(coordinator->watermark(), 0u);
  EXPECT_GT(coordinator->decisions_pruned(), 200u);

  // COMMIT log: bounded by in-flight decisions + the 500 ms retention
  // window at the commit rate — two orders below total commits.
  EXPECT_LT(coordinator->decisions().size(),
            coordinator->commits_decided() / 4);
  EXPECT_LE(coordinator->decisions().size(), 192u);
  // Watermark ack tracking is bounded by decisions awaiting acks.
  EXPECT_LE(coordinator->outstanding_decisions(), 64u);

  for (uint32_t s = 0; s < arch.shard_count(); ++s) {
    const verifier::Verifier* v = arch.plane(s)->verifier();
    // Dedup maps truncated at the watermark: bounded by decisions since
    // the last watermark advance, not by history.
    EXPECT_LE(v->applied_global().size() + v->aborted_global().size(), 192u)
        << "shard " << s;
    EXPECT_TRUE(v->decision_log().VerifyChain());
  }
}

TEST(WatermarkPruneTest, AtomicityHoldsWhilePruning) {
  // While the shards prune their dedup maps at the watermark, the
  // atomic-commit property must hold over the full decision-log
  // history: no gid applied on one shard and aborted on another, and
  // every applied gid matches a logged COMMIT still inside retention.
  SystemConfig config = WatermarkConfig();
  config.twopc_decision_retention = Seconds(30);  // Keep the COMMITs.
  Architecture arch(config);
  LogTrail trail(arch);
  arch.Start();
  arch.simulator()->RunUntil(Seconds(3));

  const TwoPcEvidence evidence = CollectTwoPcEvidence(arch, trail);
  EXPECT_TRUE(evidence.SplitOutcomes().empty());
  EXPECT_GT(evidence.applied_gids.size(), 0u);
  EXPECT_EQ(evidence.applied_gids.size(), evidence.applied.size())
      << "applied evidence without a logged decision";
  for (TxnId gid : evidence.applied_gids) {
    auto it = arch.coordinator()->decisions().find(gid);
    ASSERT_NE(it, arch.coordinator()->decisions().end()) << "gid " << gid;
    EXPECT_TRUE(it->second.commit) << "gid " << gid;
  }
}

/// The sink saw `log`'s whole history: one entry per sequence from 1,
/// each linking to the one before, ending at head().
void ExpectTrailReplaysToHead(const LogTrail::Entries& trail,
                              const storage::AuditLog& log) {
  ASSERT_EQ(trail.size(), log.size());
  storage::AuditLog replay;
  for (size_t i = 0; i < trail.size(); ++i) {
    const storage::AuditLog::Entry& e = trail[i];
    ASSERT_EQ(e.seq, i + 1) << "gap before entry " << i;
    ASSERT_TRUE(
        replay.Append(e.seq, e.txn_digest, e.result_digest, e.outcome).ok());
    ASSERT_EQ(replay.head(), e.chain) << "broken link at seq " << e.seq;
  }
  EXPECT_EQ(replay.head(), log.head());
  EXPECT_TRUE(log.VerifyChain());
}

TEST(LogBoundTest, VerifierLogsHoldTheirSuffixAtAnyRunLength) {
  SystemConfig config = WatermarkConfig();
  config.shard_count = 4;
  Architecture arch(config);
  LogTrail trail(arch);
  arch.Start();
  std::vector<size_t> audit_sizes(config.shard_count, 0);
  std::vector<size_t> decision_sizes(config.shard_count, 0);
  for (SimTime until : {Seconds(2), Seconds(6)}) {
    SCOPED_TRACE("at " + std::to_string(until / Seconds(1)) + " s");
    arch.simulator()->RunUntil(until);
    for (uint32_t s = 0; s < config.shard_count; ++s) {
      SCOPED_TRACE("shard " + std::to_string(s));
      const verifier::Verifier* v = arch.plane(s)->verifier();
      for (const storage::AuditLog* log :
           {&v->audit_log(), &v->decision_log()}) {
        EXPECT_LE(log->entries().size(), storage::AuditLog::kRetained);
        // The history outgrew the suffix, so the bound is what held it.
        EXPECT_GT(log->size(), storage::AuditLog::kRetained);
      }
      EXPECT_GT(v->audit_log().size(), audit_sizes[s]);
      EXPECT_GT(v->decision_log().size(), decision_sizes[s]);
      audit_sizes[s] = v->audit_log().size();
      decision_sizes[s] = v->decision_log().size();
      ExpectTrailReplaysToHead(trail.audit[s], v->audit_log());
      ExpectTrailReplaysToHead(trail.decisions[s], v->decision_log());
    }
  }
}

}  // namespace
}  // namespace sbft::core
