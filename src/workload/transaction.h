#ifndef SBFT_WORKLOAD_TRANSACTION_H_
#define SBFT_WORKLOAD_TRANSACTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "common/ids.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "crypto/digest.h"

namespace sbft::workload {

/// Kinds of operation inside a transaction.
enum class OpType : uint8_t {
  kRead = 0,   ///< Read a key from the on-premise store.
  kWrite = 1,  ///< Write a key (buffered; applied by the verifier).
  kCompute = 2 ///< Pure computation (the expensive-execution knob, Q4).
};

/// One operation of a transaction.
struct Operation {
  OpType type = OpType::kRead;
  std::string key;            ///< For kRead / kWrite.
  SharedBytes value;          ///< For kWrite.
  SimDuration compute_cost = 0;  ///< For kCompute.

  friend bool operator==(const Operation& a, const Operation& b) {
    return a.type == b.type && a.key == b.key && a.value == b.value &&
           a.compute_cost == b.compute_cost;
  }
};

/// \brief A client transaction T (paper §IV-A).
///
/// Clients sign and submit transactions to the shim; executors run the
/// operations against data fetched from storage. When `rw_sets_known` the
/// shim can see the key sets before execution and apply the §VI-C
/// best-effort conflict avoidance.
struct Transaction {
  TxnId id = 0;
  ActorId client = kInvalidActor;
  /// The client's floor when it signed: the highest id at or below which
  /// it had nothing outstanding (every earlier request answered or
  /// abandoned). Below `id` for an honest signer. The signature covers
  /// it, and the tables that remember client requests drop the client's
  /// entries at or below it (common/client_floor.h).
  TxnId floor = 0;
  std::vector<Operation> ops;
  bool rw_sets_known = true;

  // --- cross-shard 2PC metadata (sharded data plane) ---
  /// A set client marks this transaction as one shard-local *fragment*
  /// of the cross-shard transaction with this global id, (client, id) of
  /// the client's request. The shard verifier then runs the
  /// prepare/vote protocol for it instead of applying directly.
  TxnKey global_id{};
  /// Coordinator actor the shard verifier votes to (fragments only).
  ActorId coordinator = kInvalidActor;

  /// True when this transaction is a 2PC fragment of a cross-shard
  /// transaction (coordinated commit instead of direct apply).
  bool IsFragment() const { return global_id.client != kInvalidActor; }

  /// Keys read / written (declared sets; exact for this workload).
  std::vector<std::string> ReadKeys() const;
  std::vector<std::string> WriteKeys() const;
  /// All keys touched (reads + writes, in op order, duplicates kept) —
  /// what the shard router partitions on.
  std::vector<std::string> TouchedKeys() const;

  /// Total compute cost across kCompute operations.
  SimDuration ComputeCost() const;

  /// True when two transactions access a common key and at least one
  /// writes it (paper §VI definition).
  static bool Conflicts(const Transaction& a, const Transaction& b);

  void EncodeTo(Encoder* enc) const;
  static Status DecodeFrom(Decoder* dec, Transaction* out);
  crypto::Digest Hash() const;
};

/// Shared immutable transaction. A shim node queues and batches the
/// transaction inside the signed request that delivered it (an aliasing
/// pointer into the ClientRequestMsg or ERROR), so a request in flight
/// is held once however many batches, slots and executors carry it.
using TxnPtr = std::shared_ptr<const Transaction>;

/// \brief An ordered batch of transactions — the unit of consensus
/// (paper §IX setup: "consensuses on batches of 100 client transactions").
///
/// Hash() and WireSize() are memoized: a batch is hashed by the proposer,
/// every replica, and every executor, and the bytes never change once the
/// batch is proposed. Copying resets the memo, so the one mutate-a-copy
/// path (equivocation injection) re-hashes correctly. Mutating `txns` on
/// an already-hashed batch in place is not supported — copy first.
struct TransactionBatch {
  std::vector<TxnPtr> txns;

  TransactionBatch() = default;
  TransactionBatch(const TransactionBatch& o) : txns(o.txns) {}
  TransactionBatch(TransactionBatch&& o) noexcept = default;
  TransactionBatch& operator=(const TransactionBatch& o) {
    txns = o.txns;
    memo_wire_size_ = kNoMemo;
    memo_hash_set_ = false;
    return *this;
  }
  TransactionBatch& operator=(TransactionBatch&& o) noexcept = default;

  /// On a count-only encoder this adds WireSize() rather than walking
  /// the transactions, so sizing a message that carries a batch stays
  /// O(1) after the first count.
  void EncodeTo(Encoder* enc) const;
  static Status DecodeFrom(Decoder* dec, TransactionBatch* out);
  /// Encoded size, counted once and memoised.
  size_t WireSize() const;
  const crypto::Digest& Hash() const;

  SimDuration TotalComputeCost() const;
  bool empty() const { return txns.empty(); }
  size_t size() const { return txns.size(); }

 private:
  /// The encoding itself: the count, then each transaction.
  void EncodeTxns(Encoder* enc) const;

  static constexpr size_t kNoMemo = static_cast<size_t>(-1);
  mutable size_t memo_wire_size_ = kNoMemo;
  mutable crypto::Digest memo_hash_{};
  mutable bool memo_hash_set_ = false;
};

/// Shared immutable batch. Consensus messages and replica slots hold the
/// proposed batch through this pointer so relaying a PREPREPARE, stashing
/// a slot, or spawning an executor copies 8 bytes instead of the batch.
using BatchPtr = std::shared_ptr<const TransactionBatch>;

/// The canonical empty batch (null-object for default-constructed
/// messages and gap-fill proposals).
const BatchPtr& EmptyBatch();

/// Wraps a transaction for sharing.
inline TxnPtr ShareTxn(Transaction t) {
  return std::make_shared<const Transaction>(std::move(t));
}

/// Wraps a batch for sharing; moves out of `b`.
inline BatchPtr ShareBatch(TransactionBatch&& b) {
  return std::make_shared<const TransactionBatch>(std::move(b));
}

}  // namespace sbft::workload

#endif  // SBFT_WORKLOAD_TRANSACTION_H_
