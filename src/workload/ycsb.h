#ifndef SBFT_WORKLOAD_YCSB_H_
#define SBFT_WORKLOAD_YCSB_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.h"
#include "common/sim_time.h"
#include "storage/kv_store.h"
#include "storage/shard_router.h"
#include "workload/generator.h"
#include "workload/key_distribution.h"
#include "workload/transaction.h"

namespace sbft::workload {

/// Parameters of the YCSB-style key-value workload the paper evaluates
/// with (§IX: Blockbench's YCSB, 600 k records, read+write operations).
struct YcsbConfig {
  /// Records loaded into the store ("user0".."user<N-1>").
  uint64_t record_count = 600000;
  /// Operations per transaction (split between reads and writes).
  int ops_per_txn = 2;
  /// Fraction of operations that are writes.
  double write_fraction = 0.5;
  /// Zipfian skew (0 = uniform). Standard YCSB zipfian uses 0.99.
  double zipf_theta = 0.0;
  /// Percentage (0-100) of transactions that touch the shared hot-key set,
  /// creating read-write conflicts (Q7, Fig. 6(xi,xii)).
  double conflict_percentage = 0.0;
  /// Size of the hot-key set contended transactions fight over.
  int hot_keys = 4;
  /// Extra compute per transaction (Q4/Q9 "execution length" knob).
  SimDuration execution_cost = 0;
  /// Whether the declared read/write sets are visible to the shim before
  /// execution (§VI: known vs unknown read-write sets).
  bool rw_sets_known = true;
  /// Percentage (0-100) of transactions that touch keys on at least two
  /// shard planes (the cross-shard 2PC path). When > 0 the fraction is
  /// *controlled* in both directions — transactions the coin marks
  /// single-shard are re-rolled onto one shard, the rest are forced to
  /// span — so the achieved rate tracks the knob instead of drowning in
  /// the natural hash-collision rate (~50% at two uniform keys over two
  /// shards). 0 means uncontrolled: natural collisions only, and the
  /// generator draws no extra randomness (legacy runs stay
  /// byte-identical). No effect when shard_count == 1.
  double cross_shard_percentage = 0.0;
  /// Shard-plane count the keyspace is hash-partitioned over; must match
  /// SystemConfig::shard_count so the generator can place keys on
  /// deliberate shards.
  uint32_t shard_count = 1;
};

/// \brief Deterministic YCSB-style transaction generator.
///
/// Key popularity comes from the shared KeyDistribution interface
/// (uniform, or Gray et al. zipfian — the same sampler YCSB itself
/// uses), so the hot-key-skew knob is the one every workload family
/// shares.
class YcsbGenerator : public TxnGenerator {
 public:
  YcsbGenerator(const YcsbConfig& config, Rng rng);

  /// Generates the next transaction on behalf of `client`.
  Transaction Next(ActorId client) override;

  const YcsbConfig& config() const { return config_; }

 protected:
  /// The YCSB load phase: "user0".."user<record_count-1>".
  storage::KvStore::RecordPredicate RecordKeyPredicate() const override;

 private:
  uint64_t NextKeyIndex();
  /// Rewrites the key ops of `txn` so it spans at least two shards —
  /// or exactly one when `span` is false (cross-shard knob).
  /// Deterministic rejection sampling from the rng.
  void ForceShardSpan(Transaction* txn, bool span);

  YcsbConfig config_;
  Rng rng_;
  TxnId next_txn_id_ = 1;
  std::unique_ptr<KeyDistribution> keys_;
};

}  // namespace sbft::workload

#endif  // SBFT_WORKLOAD_YCSB_H_
