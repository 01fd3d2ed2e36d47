#include "storage/audit_log.h"

#include "common/codec.h"
#include "crypto/sha256.h"

namespace sbft::storage {

crypto::Digest AuditLog::ChainHash(const crypto::Digest& prev,
                                   const Entry& entry) {
  Encoder enc;
  enc.PutRaw(prev.data(), crypto::Digest::kSize);
  enc.PutU64(entry.seq);
  enc.PutRaw(entry.txn_digest.data(), crypto::Digest::kSize);
  enc.PutRaw(entry.result_digest.data(), crypto::Digest::kSize);
  enc.PutU8(static_cast<uint8_t>(entry.outcome));
  return crypto::Sha256::Hash(enc.buffer());
}

Status AuditLog::Append(SeqNum seq, const crypto::Digest& txn_digest,
                        const crypto::Digest& result_digest,
                        Outcome outcome) {
  if (!entries_.empty() && seq <= entries_.back().seq) {
    return Status::InvalidArgument("audit log sequence must increase");
  }
  if (entries_.size() == kRetained) {
    const Entry& oldest = entries_.front();
    if (ChainHash(anchor_, oldest) != oldest.chain) broken_ = true;
    anchor_ = oldest.chain;
    entries_.pop_front();
  }
  Entry entry;
  entry.seq = seq;
  entry.txn_digest = txn_digest;
  entry.result_digest = result_digest;
  entry.outcome = outcome;
  entry.chain = ChainHash(head(), entry);
  entries_.push_back(entry);
  ++appended_;
  if (sink_) sink_(entry);
  return Status::Ok();
}

bool AuditLog::VerifyChain() const {
  if (broken_) return false;
  crypto::Digest prev = anchor_;
  for (const Entry& e : entries_) {
    if (ChainHash(prev, e) != e.chain) return false;
    prev = e.chain;
  }
  return true;
}

crypto::Digest AuditLog::head() const {
  return entries_.empty() ? anchor_ : entries_.back().chain;
}

}  // namespace sbft::storage
