#ifndef SBFT_WORKLOAD_GENERATOR_H_
#define SBFT_WORKLOAD_GENERATOR_H_

#include <string_view>

#include "common/bytes.h"
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

  /// Sharded load phase: the store's records are the family's record keys
  /// that hash to `shard` under `router`, each holding the generator's
  /// value image at version 1 (KvStore::SetLoadBase). No record is
  /// materialised, and the predicate the store keeps holds copies of the
  /// router and the family's bounds, so it outlives the generator.
  void LoadInto(storage::KvStore* store, const storage::ShardRouter& router,
                uint32_t shard) const {
    store->SetLoadBase(
        image_, [router, shard, is_record = RecordKeyPredicate()](
                    std::string_view key) {
          return is_record(key) && router.ShardOf(key) == shard;
        });
  }

 protected:
  /// Every record of the load phase holds the same `value_size`-byte
  /// value of `load_fill`, and every write the family generates carries
  /// the same `value_size`-byte value of `write_fill`. Each is one buffer,
  /// shared by every record, transaction and write set that holds it.
  TxnGenerator(size_t value_size, uint8_t load_fill, uint8_t write_fill)
      : image_(Bytes(value_size, load_fill)),
        payload_(Bytes(value_size, write_fill)) {}

  /// The value every write of the family carries.
  const SharedBytes& payload() const { return payload_; }

  /// Accepts exactly the record keys of the load phase: the in-range keys
  /// the family's formatters produce (workload/key_parse.h). It must not
  /// refer to the generator.
  virtual storage::KvStore::RecordPredicate RecordKeyPredicate() const = 0;

 private:
  SharedBytes image_;
  SharedBytes payload_;
};

}  // namespace sbft::workload

#endif  // SBFT_WORKLOAD_GENERATOR_H_
