// The whole history of every shard verifier's audit and decision logs,
// and of every coordinator member's decision log, for the tests that
// read it. Each verifier log keeps only its newest
// storage::AuditLog::kRetained entries in memory and each coordinator
// log truncates settled entries at their client's floor; all of them
// stream every entry to a sink, and a LogTrail installs those sinks.
// Construct it after the Architecture and before Start().

#ifndef SBFT_TESTS_CORE_LOG_TRAIL_H_
#define SBFT_TESTS_CORE_LOG_TRAIL_H_

#include <map>
#include <vector>

#include "core/serverless_bft.h"
#include "storage/audit_log.h"

namespace sbft::core {

struct LogTrail {
  using Entries = std::vector<storage::AuditLog::Entry>;
  /// What a coordinator member last logged for a gid.
  struct CoordOutcome {
    bool commit = false;
    uint64_t cseq = 0;
    uint64_t view = 0;
  };

  explicit LogTrail(Architecture& arch)
      : audit(arch.shard_count()),
        decisions(arch.shard_count()),
        coordinator_decisions(arch.coordinator_replicas()) {
    auto append_to = [](Entries* log) {
      return [log](const storage::AuditLog::Entry& e) { log->push_back(e); };
    };
    for (uint32_t s = 0; s < arch.shard_count(); ++s) {
      arch.plane(s)->verifier()->SetLogSinks(append_to(&audit[s]),
                                             append_to(&decisions[s]));
    }
    for (uint32_t r = 0; r < arch.coordinator_replicas(); ++r) {
      std::map<TxnKey, CoordOutcome>* log = &coordinator_decisions[r];
      arch.coordinator(r)->SetDecisionSink(
          [log](const TxnKey& gid, const TxnCoordinator::DecisionRecord& rec) {
            (*log)[gid] = CoordOutcome{rec.commit, rec.cseq, rec.view};
          });
    }
  }
  LogTrail(const LogTrail&) = delete;
  LogTrail& operator=(const LogTrail&) = delete;

  /// The outcome coordinator member `r` (flat index) last logged for
  /// `gid`, truncated or not; null when it never logged one.
  const CoordOutcome* CoordinatorOutcome(uint32_t r,
                                         const TxnKey& gid) const {
    auto it = coordinator_decisions[r].find(gid);
    return it == coordinator_decisions[r].end() ? nullptr : &it->second;
  }

  /// audit[s] / decisions[s]: every entry plane s's verifier appended to
  /// that log, in order.
  std::vector<Entries> audit;
  std::vector<Entries> decisions;
  /// coordinator_decisions[r]: the last outcome coordinator member r
  /// (flat index) wrote to its decision log for each gid.
  std::vector<std::map<TxnKey, CoordOutcome>> coordinator_decisions;
};

}  // namespace sbft::core

#endif  // SBFT_TESTS_CORE_LOG_TRAIL_H_
