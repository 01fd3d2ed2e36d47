#include "workload/transaction.h"

#include <unordered_set>

#include "crypto/sha256.h"

namespace sbft::workload {

std::vector<std::string> Transaction::ReadKeys() const {
  std::vector<std::string> keys;
  for (const Operation& op : ops) {
    if (op.type == OpType::kRead) keys.push_back(op.key);
  }
  return keys;
}

std::vector<std::string> Transaction::WriteKeys() const {
  std::vector<std::string> keys;
  for (const Operation& op : ops) {
    if (op.type == OpType::kWrite) keys.push_back(op.key);
  }
  return keys;
}

std::vector<std::string> Transaction::TouchedKeys() const {
  std::vector<std::string> keys;
  for (const Operation& op : ops) {
    if (op.type != OpType::kCompute) keys.push_back(op.key);
  }
  return keys;
}

SimDuration Transaction::ComputeCost() const {
  SimDuration total = 0;
  for (const Operation& op : ops) {
    if (op.type == OpType::kCompute) total += op.compute_cost;
  }
  return total;
}

bool Transaction::Conflicts(const Transaction& a, const Transaction& b) {
  std::unordered_set<std::string> a_writes, a_touched;
  for (const Operation& op : a.ops) {
    if (op.type == OpType::kCompute) continue;
    a_touched.insert(op.key);
    if (op.type == OpType::kWrite) a_writes.insert(op.key);
  }
  for (const Operation& op : b.ops) {
    if (op.type == OpType::kCompute) continue;
    // Shared key where b writes, or where a writes.
    if (op.type == OpType::kWrite && a_touched.contains(op.key)) return true;
    if (a_writes.contains(op.key)) return true;
  }
  return false;
}

// Wire format note: the byte after (id, client) is a *flags* byte, not a
// plain bool. Bit 0 is rw_sets_known; bit 1 marks the presence of the
// cross-shard 2PC fields (global_id, coordinator), which fragments append
// behind the flag. The floor follows as the varint `id - floor` (mod
// 2^64), one byte for a closed-loop client, whose floor is id - 1.
void Transaction::EncodeTo(Encoder* enc) const {
  uint8_t flags = static_cast<uint8_t>(rw_sets_known ? 1 : 0);
  if (IsFragment()) flags |= 2;
  enc->PutU64(id);
  enc->PutU32(client);
  enc->PutU8(flags);
  if (IsFragment()) {
    enc->PutU64(global_id.id);
    enc->PutU32(global_id.client);
    enc->PutU32(coordinator);
  }
  enc->PutVarint(id - floor);
  enc->PutVarint(ops.size());
  for (const Operation& op : ops) {
    enc->PutU8(static_cast<uint8_t>(op.type));
    enc->PutString(op.key);
    enc->PutBytes(op.value);
    enc->PutU64(static_cast<uint64_t>(op.compute_cost));
  }
}

Status Transaction::DecodeFrom(Decoder* dec, Transaction* out) {
  Status st = dec->GetU64(&out->id);
  if (!st.ok()) return st;
  st = dec->GetU32(&out->client);
  if (!st.ok()) return st;
  uint8_t flags;
  st = dec->GetU8(&flags);
  if (!st.ok()) return st;
  if (flags > 3) return Status::Corruption("bad txn flags");
  out->rw_sets_known = (flags & 1) != 0;
  out->global_id = TxnKey{};
  out->coordinator = kInvalidActor;
  if ((flags & 2) != 0) {
    st = dec->GetU64(&out->global_id.id);
    if (!st.ok()) return st;
    st = dec->GetU32(&out->global_id.client);
    if (!st.ok()) return st;
    if (out->global_id.client == kInvalidActor) {
      return Status::Corruption("fragment without a global client");
    }
    st = dec->GetU32(&out->coordinator);
    if (!st.ok()) return st;
  }
  uint64_t below;
  st = dec->GetVarint(&below);
  if (!st.ok()) return st;
  out->floor = out->id - below;
  uint64_t n;
  st = dec->GetCount(&n);
  if (!st.ok()) return st;
  out->ops.clear();
  out->ops.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Operation op;
    uint8_t type;
    st = dec->GetU8(&type);
    if (!st.ok()) return st;
    if (type > 2) return Status::Corruption("bad op type");
    op.type = static_cast<OpType>(type);
    st = dec->GetString(&op.key);
    if (!st.ok()) return st;
    st = dec->GetBytes(&op.value);
    if (!st.ok()) return st;
    uint64_t cost;
    st = dec->GetU64(&cost);
    if (!st.ok()) return st;
    op.compute_cost = static_cast<SimDuration>(cost);
    out->ops.push_back(std::move(op));
  }
  return Status::Ok();
}

crypto::Digest Transaction::Hash() const {
  ScratchEncoder enc;
  EncodeTo(&enc.enc());
  return crypto::Sha256::Hash(enc->buffer());
}

void TransactionBatch::EncodeTo(Encoder* enc) const {
  if (enc->counting()) {
    enc->Count(WireSize());
    return;
  }
  EncodeTxns(enc);
}

void TransactionBatch::EncodeTxns(Encoder* enc) const {
  enc->PutVarint(txns.size());
  for (const TxnPtr& t : txns) {
    t->EncodeTo(enc);
  }
}

Status TransactionBatch::DecodeFrom(Decoder* dec, TransactionBatch* out) {
  uint64_t n;
  Status st = dec->GetCount(&n);
  if (!st.ok()) return st;
  *out = TransactionBatch();  // Reset memoized hash/size with the content.
  out->txns.clear();
  out->txns.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Transaction t;
    st = Transaction::DecodeFrom(dec, &t);
    if (!st.ok()) return st;
    out->txns.push_back(ShareTxn(std::move(t)));
  }
  return Status::Ok();
}

size_t TransactionBatch::WireSize() const {
  if (memo_wire_size_ == kNoMemo) {
    Encoder counter = Encoder::Counter();
    EncodeTxns(&counter);
    memo_wire_size_ = counter.size();
  }
  return memo_wire_size_;
}

const crypto::Digest& TransactionBatch::Hash() const {
  if (!memo_hash_set_) {
    ScratchEncoder enc;
    EncodeTo(&enc.enc());
    memo_hash_ = crypto::Sha256::Hash(enc->buffer());
    memo_hash_set_ = true;
  }
  return memo_hash_;
}

const BatchPtr& EmptyBatch() {
  static const BatchPtr kEmpty = std::make_shared<const TransactionBatch>();
  return kEmpty;
}

SimDuration TransactionBatch::TotalComputeCost() const {
  SimDuration total = 0;
  for (const TxnPtr& t : txns) total += t->ComputeCost();
  return total;
}

}  // namespace sbft::workload
