#include "workload/ycsb.h"

#include <cmath>

#include "storage/shard_router.h"
#include "workload/key_parse.h"
#include "workload/ycsb_key.h"

namespace sbft::workload {

/// Value bytes per record.
constexpr size_t kValueSize = 100;

YcsbGenerator::YcsbGenerator(const YcsbConfig& config, Rng rng)
    : TxnGenerator(kValueSize, 'v', 'w'),
      config_(config),
      rng_(rng),
      // The 100k cap bounds the zipfian harmonic-sum precomputation;
      // beyond it the tail weights are negligible and construction stays
      // O(1e5). Uniform sampling covers the full record count.
      keys_(MakeKeyDistribution(config.record_count, config.zipf_theta,
                                100000)) {}

storage::KvStore::RecordPredicate YcsbGenerator::RecordKeyPredicate() const {
  // The inverse of YcsbKey.
  return [records = config_.record_count](std::string_view key) {
    return ConsumeLiteral(&key, "user") && ConsumeIndex(&key, records) &&
           key.empty();
  };
}

uint64_t YcsbGenerator::NextKeyIndex() { return keys_->NextIndex(&rng_); }

Transaction YcsbGenerator::Next(ActorId client) {
  Transaction txn;
  txn.id = next_txn_id_++;
  txn.client = client;
  txn.rw_sets_known = config_.rw_sets_known;

  bool contended = config_.conflict_percentage > 0 &&
                   rng_.Bernoulli(config_.conflict_percentage / 100.0);

  for (int i = 0; i < config_.ops_per_txn; ++i) {
    Operation op;
    bool is_write = rng_.Bernoulli(config_.write_fraction);
    uint64_t index;
    if (contended) {
      // Contended transactions read and write within the small hot set,
      // guaranteeing read-write conflicts between concurrent transactions.
      index = rng_.Uniform(static_cast<uint64_t>(config_.hot_keys));
    } else {
      index = NextKeyIndex();
    }
    op.key = YcsbKey(index);
    if (is_write) {
      op.type = OpType::kWrite;
      op.value = payload();
    } else {
      op.type = OpType::kRead;
    }
    txn.ops.push_back(std::move(op));
  }
  if (contended) {
    // Ensure at least one write lands on the hot set so the pair
    // (reader, writer) actually conflicts.
    bool has_write = false;
    for (const Operation& op : txn.ops) {
      if (op.type == OpType::kWrite) has_write = true;
    }
    if (!has_write) {
      txn.ops[0].type = OpType::kWrite;
      txn.ops[0].value = payload();
    }
  }

  // Cross-shard knob: control the spanning fraction in both directions
  // (span when the coin says so, collapse onto one shard otherwise).
  // Guarded so the rng stream is untouched when the knob is off —
  // single-plane runs must replay byte-identically.
  if (config_.cross_shard_percentage > 0 && config_.shard_count > 1 &&
      !contended && txn.ops.size() >= 2) {
    ForceShardSpan(&txn,
                   rng_.Bernoulli(config_.cross_shard_percentage / 100.0));
  }

  if (config_.execution_cost > 0) {
    Operation compute;
    compute.type = OpType::kCompute;
    compute.compute_cost = config_.execution_cost;
    txn.ops.push_back(std::move(compute));
  }
  return txn;
}

void YcsbGenerator::ForceShardSpan(Transaction* txn, bool span) {
  storage::ShardRouter router(config_.shard_count);
  // Anchor shard: wherever the first key op already lives. Every other
  // key op is re-rolled until it lands off the anchor (span) or on it
  // (single-shard); with record_count >> shard_count a handful of draws
  // suffice (bounded for safety — a failed bound only shifts the
  // achieved fraction marginally).
  storage::ShardId anchor = router.ShardOf(txn->ops[0].key);
  if (span) {
    Operation& second = txn->ops[1];
    for (int attempts = 0; attempts < 64; ++attempts) {
      if (router.ShardOf(second.key) != anchor) return;
      second.key = YcsbKey(NextKeyIndex());
    }
    return;
  }
  for (size_t i = 1; i < txn->ops.size(); ++i) {
    Operation& op = txn->ops[i];
    if (op.type == OpType::kCompute) continue;
    for (int attempts = 0; attempts < 64; ++attempts) {
      if (router.ShardOf(op.key) == anchor) break;
      op.key = YcsbKey(NextKeyIndex());
    }
  }
}

}  // namespace sbft::workload
