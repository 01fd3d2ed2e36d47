#ifndef SBFT_WORKLOAD_WORKFLOW_H_
#define SBFT_WORKLOAD_WORKFLOW_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.h"
#include "workload/generator.h"
#include "workload/key_distribution.h"

namespace sbft::workload {

/// Parameters of the serverless-workflow workload: chains of function
/// invocations (Beldi-style), each hop an exactly-once transaction that
/// reads the invoking function's state and writes the next function's
/// state — so a chain is a sequence of dependent cross-function (and,
/// when sharded, cross-shard) transactions.
struct WorkflowConfig {
  /// Distinct functions in the application.
  uint32_t functions = 6;
  /// State slots per function ("wf<fn>_s<slot>" rows).
  uint32_t state_keys_per_function = 200;
  /// Hops per chain (function invocations per workflow).
  uint32_t chain_hops = 3;
  /// Slot-popularity skew within a function's state (0 = uniform).
  double zipf_theta = 0.0;
  /// Shard planes the keyspace is hash-partitioned over. When > 1 each
  /// hop's write slot is re-rolled onto a different shard than its read
  /// slot, so every hop exercises the cross-shard 2PC path — the
  /// regime where exactly-once per hop is actually at stake.
  uint32_t shard_count = 1;
};

/// \brief Serverless workflow-chain generator.
///
/// `HopTxn` builds the transaction for one function invocation of one
/// chain: read a state slot of function `hop % functions`, write a slot
/// of function `(hop + 1) % functions`. The traffic source drives the
/// chain — hop k+1 is only issued after hop k commits — and retries
/// aborted hops as *fresh* transactions (atomic abort means nothing of
/// the failed attempt is visible), while timeouts retransmit the same
/// signed request so the dedup/decision-log path answers duplicates.
class WorkflowGenerator : public TxnGenerator {
 public:
  WorkflowGenerator(const WorkflowConfig& config, Rng rng);

  /// One fresh chain's first hop (TxnGenerator interface; sources in
  /// chain mode call HopTxn directly).
  Transaction Next(ActorId client) override;

  /// Transaction for hop `hop` of chain `chain_id` on behalf of
  /// `source`. Each call draws fresh slots and a fresh txn id — calling
  /// it again for the same (chain, hop) builds the retry-after-abort
  /// attempt.
  Transaction HopTxn(ActorId source, uint64_t chain_id, uint32_t hop);

  uint64_t NewChainId() { return next_chain_id_++; }

  static std::string StateKey(uint32_t fn, uint32_t slot);

  const WorkflowConfig& config() const { return config_; }

 protected:
  /// Every state slot of every function.
  storage::KvStore::RecordPredicate RecordKeyPredicate() const override;

 private:
  uint32_t NextSlot();

  WorkflowConfig config_;
  Rng rng_;
  TxnId next_txn_id_ = 1;
  uint64_t next_chain_id_ = 1;
  std::unique_ptr<KeyDistribution> slots_;
};

}  // namespace sbft::workload

#endif  // SBFT_WORKLOAD_WORKFLOW_H_
