#ifndef SBFT_STORAGE_AUDIT_LOG_H_
#define SBFT_STORAGE_AUDIT_LOG_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>

#include "common/ids.h"
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
/// Only the newest kRetained entries stay in memory. When an entry leaves
/// that suffix its link is checked against the anchor (the chain value
/// just below the suffix), the anchor moves up to it, and a broken link
/// is latched. So VerifyChain() covers every entry ever appended while the
/// log holds a fixed number of them: the head commits to the whole
/// history. The whole history goes to the optional sink, which stands for
/// a deployment's durable trail.
class AuditLog {
 public:
  enum class Outcome : uint8_t { kApplied = 0, kAborted = 1 };

  struct Entry {
    SeqNum seq = 0;
    crypto::Digest txn_digest;     ///< Digest of the ordered batch.
    crypto::Digest result_digest;  ///< Digest of the execution result.
    Outcome outcome = Outcome::kApplied;
    crypto::Digest chain;  ///< H(prev_chain || this entry).
  };

  /// Receives every appended entry, in append order.
  using Sink = std::function<void(const Entry&)>;

  /// Entries kept in memory: the newest ones.
  static constexpr size_t kRetained = 64;

  AuditLog() = default;

  /// Appends the record for sequence `seq`. Entries must arrive in
  /// strictly increasing sequence order; returns InvalidArgument
  /// otherwise.
  Status Append(SeqNum seq, const crypto::Digest& txn_digest,
                const crypto::Digest& result_digest, Outcome outcome);

  /// False if any link of the chain, retained or evicted, is
  /// inconsistent.
  bool VerifyChain() const;

  /// Head of the chain (all-zero when empty).
  crypto::Digest head() const;

  /// Entries appended over the log's lifetime.
  size_t size() const { return appended_; }
  /// The retained suffix, oldest first: at most kRetained entries.
  const std::deque<Entry>& entries() const { return entries_; }

  /// Streams every later append to `sink`.
  void set_sink(Sink sink) { sink_ = std::move(sink); }

 private:
  static crypto::Digest ChainHash(const crypto::Digest& prev,
                                  const Entry& entry);

  std::deque<Entry> entries_;
  /// Chain value of the newest evicted entry (all-zero before the first
  /// eviction): the first retained entry links to it.
  crypto::Digest anchor_;
  size_t appended_ = 0;
  /// An evicted entry failed its link check.
  bool broken_ = false;
  Sink sink_;
};

}  // namespace sbft::storage

#endif  // SBFT_STORAGE_AUDIT_LOG_H_
