// Cross-shard 2PC outcome evidence for the tests, read without switching
// any feature off. Each shard verifier keeps two records of the decisions
// it applied: applied_global()/aborted_global(), keyed by global id but
// truncated at the coordinator's fully-decided watermark, and
// decision_log(), whose whole history is read from the sink (LogTrail)
// and names each global id by its txn digest Sha256(LE64 id || LE32
// client). The evidence below unions both, keyed by that digest.

#ifndef SBFT_TESTS_CORE_TWOPC_EVIDENCE_H_
#define SBFT_TESTS_CORE_TWOPC_EVIDENCE_H_

#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <vector>

#include "common/codec.h"
#include "core/serverless_bft.h"
#include "crypto/sha256.h"
#include "log_trail.h"

namespace sbft {

/// Prints a gid (or any TxnKey) as (client, id) in failure messages.
inline std::ostream& operator<<(std::ostream& os, const TxnKey& key) {
  return os << "(" << key.client << ", " << key.id << ")";
}

}  // namespace sbft

namespace sbft::core {

/// Decision-log key of a global transaction id: Sha256(LE64 id || LE32
/// client).
inline crypto::Digest GidKey(const TxnKey& gid) {
  Encoder enc;
  enc.PutU64(gid.id);
  enc.PutU32(gid.client);
  return crypto::Sha256::Hash(enc.buffer());
}

/// Per-shard 2PC outcomes, unioned across every shard verifier.
struct TwoPcEvidence {
  /// Keys (GidKey) some shard applied / aborted a fragment for.
  std::set<crypto::Digest> applied;
  std::set<crypto::Digest> aborted;
  /// Applied global ids that can be named: those still in a shard's
  /// applied_global() map or in some coordinator member's decision log,
  /// read from the trail. Gids no member logged survive only as keys in
  /// `applied`.
  std::set<TxnKey> applied_gids;

  bool Applied(const TxnKey& gid) const {
    return applied.contains(GidKey(gid));
  }

  /// Keys applied on one shard and aborted on another. Atomic commit
  /// means this is empty.
  std::vector<crypto::Digest> SplitOutcomes() const {
    std::vector<crypto::Digest> split;
    for (const crypto::Digest& key : applied) {
      if (aborted.contains(key)) split.push_back(key);
    }
    return split;
  }
};

/// `trail` must have been installed on `arch` before Start().
inline TwoPcEvidence CollectTwoPcEvidence(Architecture& arch,
                                          const LogTrail& trail) {
  TwoPcEvidence evidence;
  for (uint32_t s = 0; s < arch.shard_count(); ++s) {
    const verifier::Verifier* v = arch.plane(s)->verifier();
    for (const auto& [gid, cseq] : v->applied_global()) {
      evidence.applied.insert(GidKey(gid));
      evidence.applied_gids.insert(gid);
    }
    for (const auto& [gid, cseq] : v->aborted_global()) {
      evidence.aborted.insert(GidKey(gid));
    }
    EXPECT_EQ(trail.decisions[s].size(), v->decision_log().size())
        << "shard " << s << ": the trail missed decisions";
    for (const storage::AuditLog::Entry& entry : trail.decisions[s]) {
      if (entry.outcome == storage::AuditLog::Outcome::kApplied) {
        evidence.applied.insert(entry.txn_digest);
      } else {
        evidence.aborted.insert(entry.txn_digest);
      }
    }
  }
  for (const auto& member_log : trail.coordinator_decisions) {
    for (const auto& [gid, outcome] : member_log) {
      if (evidence.applied.contains(GidKey(gid))) {
        evidence.applied_gids.insert(gid);
      }
    }
  }
  return evidence;
}

}  // namespace sbft::core

#endif  // SBFT_TESTS_CORE_TWOPC_EVIDENCE_H_
