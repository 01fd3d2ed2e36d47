// Long-run boundedness of 2PC bookkeeping under the fully-decided
// watermark and the client floors (unified commit path): the coordinator
// decision log and the shard verifiers' applied/aborted global-txn maps
// must be bounded by in-flight transactions, not by the total
// cross-shard transaction count — the same unbounded-growth class PR 3
// eliminated from the event loop. So must the primaries' seen ids and
// the verifiers' outcome records. The verifiers' audit and decision
// logs hold a fixed suffix at any run length, while their chains and
// sinks cover the whole history.

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

  // Decision log: bounded by in-flight decisions, each client's newest
  // ones above its floor — two orders below total commits.
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
  // While the shards prune their dedup maps at the watermark and the
  // coordinator truncates its log at the client floors, the
  // atomic-commit property must hold over the full decision-log
  // history: no gid applied on one shard and aborted on another, and
  // every applied gid matches a logged COMMIT in the coordinator's
  // trail.
  SystemConfig config = WatermarkConfig();
  Architecture arch(config);
  LogTrail trail(arch);
  arch.Start();
  arch.simulator()->RunUntil(Seconds(3));

  const TwoPcEvidence evidence = CollectTwoPcEvidence(arch, trail);
  EXPECT_TRUE(evidence.SplitOutcomes().empty());
  EXPECT_GT(evidence.applied_gids.size(), 0u);
  EXPECT_EQ(evidence.applied_gids.size(), evidence.applied.size())
      << "applied evidence without a logged decision";
  for (const TxnKey& gid : evidence.applied_gids) {
    const LogTrail::CoordOutcome* logged = trail.CoordinatorOutcome(0, gid);
    ASSERT_NE(logged, nullptr) << "gid " << gid;
    EXPECT_TRUE(logged->commit) << "gid " << gid;
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

// Every table that remembers client requests keeps, per client, only the
// ids above the floor the client signed: each primary's seen ids, each
// verifier's outcome records and each coordinator member's decision log.
// So at 2 s and at 8 s alike none holds more than the sources ever had
// in flight at once, while the committed totals grow.
TEST(ClientWatermarkTest, TablesHoldInFlightAtAnyRunLength) {
  SystemConfig config = WatermarkConfig();
  config.shard_count = 4;
  config.traffic.open_loop = true;
  config.traffic.sources = 4;
  config.traffic.offered_tps = 800.0;
  Architecture arch(config);
  arch.Start();
  uint64_t completed = 0;
  uint64_t decided = 0;
  for (SimTime until : {Seconds(2), Seconds(8)}) {
    SCOPED_TRACE("at " + std::to_string(until / Seconds(1)) + " s");
    arch.simulator()->RunUntil(until);
    // Each table holds at most what was ever in flight at once (about
    // 125 here); at 8 s some 6,000 transactions have completed.
    const uint64_t bound = arch.PeakInflight();
    ASSERT_GT(bound, 0u);
    EXPECT_GT(arch.TotalCompleted(), completed + bound);
    completed = arch.TotalCompleted();
    for (const shim::PbftReplica* replica : arch.pbft_replicas()) {
      EXPECT_LE(replica->seen_txns(), bound) << replica->name();
    }
    for (uint32_t s = 0; s < config.shard_count; ++s) {
      EXPECT_LE(arch.plane(s)->verifier()->txn_records(), bound)
          << "shard " << s;
    }
    const TxnCoordinator* leader = arch.coordinator();
    EXPECT_GT(leader->commits_decided() + leader->aborts_decided(), decided);
    decided = leader->commits_decided() + leader->aborts_decided();
    EXPECT_LE(leader->decisions().size(), bound);
  }
  // The log truncated most of what it decided.
  EXPECT_GT(decided, 4 * arch.PeakInflight());
}

}  // namespace
}  // namespace sbft::core
