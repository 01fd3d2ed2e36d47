#ifndef SBFT_STORAGE_AUDIT_LOG_H_
#define SBFT_STORAGE_AUDIT_LOG_H_

#include <cstdint>
#include <deque>
#include <optional>

#include "common/ids.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "crypto/digest.h"

namespace sbft::storage {

/// \brief Hash-chained record of every transaction the verifier applied
/// (or aborted) against the store.
///
/// The paper's verifier guarantees that updates are written in shim order
/// (Verifier Non-Divergence, §IV-E); this log makes that order auditable:
/// each entry commits to its predecessor, so any retro-active tampering or
/// order divergence is detectable by VerifyChain().
///
/// The log keeps its whole history (VerifyChain walks all of it), in a
/// deque: growth allocates fixed blocks, with neither a vector's up-to-2x
/// capacity slack nor a full copy at each reallocation.
class AuditLog {
 public:
  enum class Outcome : uint8_t { kApplied = 0, kAborted = 1 };

  struct Entry {
    SeqNum seq = 0;
    crypto::Digest txn_digest;     ///< Digest of the ordered batch.
    crypto::Digest result_digest;  ///< Digest of the execution result.
    Outcome outcome = Outcome::kApplied;
    SimTime applied_at = 0;
    crypto::Digest chain;  ///< H(prev_chain || this entry).
  };

  AuditLog() = default;

  /// Appends the record for sequence `seq`. Entries must arrive in
  /// strictly increasing sequence order; returns InvalidArgument
  /// otherwise.
  Status Append(SeqNum seq, const crypto::Digest& txn_digest,
                const crypto::Digest& result_digest, Outcome outcome,
                SimTime now);

  /// Entry for a sequence number, if recorded.
  std::optional<Entry> Find(SeqNum seq) const;

  /// Recomputes the hash chain; false if any link is inconsistent.
  bool VerifyChain() const;

  /// Head of the chain (all-zero when empty).
  crypto::Digest head() const;

  size_t size() const { return entries_.size(); }
  const std::deque<Entry>& entries() const { return entries_; }

 private:
  static crypto::Digest ChainHash(const crypto::Digest& prev,
                                  const Entry& entry);

  std::deque<Entry> entries_;
};

}  // namespace sbft::storage

#endif  // SBFT_STORAGE_AUDIT_LOG_H_
