// The whole history of every shard verifier's audit and decision logs,
// for the tests that read it. Each log keeps only its newest
// storage::AuditLog::kRetained entries in memory and streams every entry
// to a sink; a LogTrail installs those sinks. Construct it after the
// Architecture and before Start().

#ifndef SBFT_TESTS_CORE_LOG_TRAIL_H_
#define SBFT_TESTS_CORE_LOG_TRAIL_H_

#include <vector>

#include "core/serverless_bft.h"
#include "storage/audit_log.h"

namespace sbft::core {

struct LogTrail {
  using Entries = std::vector<storage::AuditLog::Entry>;

  explicit LogTrail(Architecture& arch)
      : audit(arch.shard_count()), decisions(arch.shard_count()) {
    auto append_to = [](Entries* log) {
      return [log](const storage::AuditLog::Entry& e) { log->push_back(e); };
    };
    for (uint32_t s = 0; s < arch.shard_count(); ++s) {
      arch.plane(s)->verifier()->SetLogSinks(append_to(&audit[s]),
                                             append_to(&decisions[s]));
    }
  }
  LogTrail(const LogTrail&) = delete;
  LogTrail& operator=(const LogTrail&) = delete;

  /// audit[s] / decisions[s]: every entry plane s's verifier appended to
  /// that log, in order.
  std::vector<Entries> audit;
  std::vector<Entries> decisions;
};

}  // namespace sbft::core

#endif  // SBFT_TESTS_CORE_LOG_TRAIL_H_
