#include "workload/workflow.h"

#include <algorithm>

#include "storage/shard_router.h"
#include "workload/key_parse.h"

namespace sbft::workload {

/// Value bytes per state row.
constexpr size_t kValueSize = 64;

WorkflowGenerator::WorkflowGenerator(const WorkflowConfig& config, Rng rng)
    : TxnGenerator(kValueSize, 'f', 'h'),
      config_(config),
      rng_(rng) {
  config_.functions = std::max<uint32_t>(config_.functions, 1);
  config_.state_keys_per_function =
      std::max<uint32_t>(config_.state_keys_per_function, 1);
  slots_ = MakeKeyDistribution(config_.state_keys_per_function,
                               config_.zipf_theta, 0);
}

std::string WorkflowGenerator::StateKey(uint32_t fn, uint32_t slot) {
  return "wf" + std::to_string(fn) + "_s" + std::to_string(slot);
}

uint32_t WorkflowGenerator::NextSlot() {
  return static_cast<uint32_t>(slots_->NextIndex(&rng_));
}

storage::KvStore::RecordPredicate WorkflowGenerator::RecordKeyPredicate()
    const {
  // The inverse of StateKey.
  return [functions = config_.functions,
          slots = config_.state_keys_per_function](std::string_view key) {
    return ConsumeLiteral(&key, "wf") && ConsumeIndex(&key, functions) &&
           ConsumeLiteral(&key, "_s") && ConsumeIndex(&key, slots) &&
           key.empty();
  };
}

Transaction WorkflowGenerator::HopTxn(ActorId source, uint64_t chain_id,
                                      uint32_t hop) {
  Transaction txn;
  txn.id = next_txn_id_++;
  txn.client = source;
  txn.rw_sets_known = true;

  uint32_t from_fn = hop % config_.functions;
  uint32_t to_fn = (hop + 1) % config_.functions;
  // The chain id seeds the read slot so different chains through the
  // same functions touch different state rows (plus skew from slots_).
  uint32_t read_slot = static_cast<uint32_t>(
      (chain_id + NextSlot()) % config_.state_keys_per_function);

  Operation read;
  read.type = OpType::kRead;
  read.key = StateKey(from_fn, read_slot);
  txn.ops.push_back(read);

  Operation write;
  write.type = OpType::kWrite;
  write.key = StateKey(to_fn, NextSlot());
  write.value = payload();
  if (config_.shard_count > 1) {
    // Every hop spans shards: re-roll the write slot until it lands off
    // the read key's shard (bounded; a failed bound just yields a
    // single-shard hop, which is still a correct chain step).
    storage::ShardRouter router(config_.shard_count);
    storage::ShardId anchor = router.ShardOf(read.key);
    for (int attempts = 0;
         attempts < 64 && router.ShardOf(write.key) == anchor; ++attempts) {
      write.key = StateKey(to_fn, NextSlot());
    }
  }
  txn.ops.push_back(std::move(write));
  return txn;
}

Transaction WorkflowGenerator::Next(ActorId client) {
  return HopTxn(client, NewChainId(), 0);
}

}  // namespace sbft::workload
