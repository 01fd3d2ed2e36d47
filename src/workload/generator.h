#ifndef SBFT_WORKLOAD_GENERATOR_H_
#define SBFT_WORKLOAD_GENERATOR_H_

#include <functional>
#include <memory>
#include <string>

#include "common/ids.h"
#include "storage/kv_store.h"
#include "storage/shard_router.h"
#include "workload/transaction.h"

namespace sbft::workload {

/// \brief Interface every workload family implements: YCSB key-value
/// (the paper's evaluation workload), TPC-C-style multi-key
/// read-modify-write, and serverless workflow chains.
///
/// One generator instance serves a whole run — every client or traffic
/// source draws from it in simulation-event order, so transaction ids
/// are unique and the draw sequence is deterministic for a seed.
class TxnGenerator {
 public:
  virtual ~TxnGenerator() = default;

  /// Generates the next transaction on behalf of `client`.
  virtual Transaction Next(ActorId client) = 0;

  /// Loads the workload's records into the store (single-plane runs).
  void LoadInto(storage::KvStore* store) const {
    LoadInto(store, storage::ShardRouter(1), 0);
  }

  /// Sharded load phase: loads only the records whose key hashes to
  /// `shard` under `router`. Every record starts at version 1 and shares
  /// the generator's one value image (KvStore::Load).
  void LoadInto(storage::KvStore* store, const storage::ShardRouter& router,
                uint32_t shard) const {
    store->Reserve(records_ / router.shard_count());
    ForEachRecordKey([&](std::string key) {
      if (router.ShardOf(key) == shard) store->Load(std::move(key), image_);
    });
  }

 protected:
  /// The load phase has about `records` records, each with the same
  /// `value_size`-byte value of `fill`.
  TxnGenerator(uint64_t records, size_t value_size, uint8_t fill)
      : records_(records),
        image_(std::make_shared<const Bytes>(value_size, fill)) {}

  /// Calls `emit` once per record key of the load phase.
  virtual void ForEachRecordKey(
      const std::function<void(std::string)>& emit) const = 0;

 private:
  uint64_t records_;
  storage::KvStore::Image image_;
};

}  // namespace sbft::workload

#endif  // SBFT_WORKLOAD_GENERATOR_H_
