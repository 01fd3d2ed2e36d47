#ifndef SBFT_WORKLOAD_TPCC_H_
#define SBFT_WORKLOAD_TPCC_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.h"
#include "workload/generator.h"
#include "workload/key_distribution.h"

namespace sbft::workload {

/// Parameters of the TPC-C-style NewOrder workload (scaled down: the
/// shape of the transaction — multi-key read-modify-write across
/// warehouse / district / item / stock rows — is what matters for the
/// commit path, not the full schema).
struct TpccConfig {
  /// Warehouses (the contention unit; TPC-C scales by this).
  uint32_t warehouses = 16;
  /// Districts per warehouse (TPC-C fixes 10).
  uint32_t districts_per_warehouse = 10;
  /// Item/stock rows per warehouse (TPC-C: 100k; scaled down).
  uint32_t items = 1000;
  /// Warehouse-popularity skew (0 = uniform): hot warehouses
  /// concentrate district RMW conflicts, the TPC-C analogue of YCSB's
  /// hot-key knob.
  double zipf_theta = 0.0;
};

/// \brief TPC-C-style NewOrder generator: per transaction, one read of
/// the warehouse row, a read-modify-write of a district row (the
/// next-order-id counter — the classic contention point), and per order
/// line a read of the item row plus a read-modify-write of a stock row,
/// occasionally at a remote warehouse.
class TpccGenerator : public TxnGenerator {
 public:
  TpccGenerator(const TpccConfig& config, Rng rng);

  Transaction Next(ActorId client) override;

  static std::string WarehouseKey(uint32_t w);
  static std::string DistrictKey(uint32_t w, uint32_t d);
  static std::string ItemKey(uint32_t i);
  static std::string StockKey(uint32_t w, uint32_t i);

  const TpccConfig& config() const { return config_; }

 protected:
  /// Every warehouse, district, stock and item row.
  storage::KvStore::RecordPredicate RecordKeyPredicate() const override;

 private:
  TpccConfig config_;
  Rng rng_;
  TxnId next_txn_id_ = 1;
  std::unique_ptr<KeyDistribution> warehouses_;
};

}  // namespace sbft::workload

#endif  // SBFT_WORKLOAD_TPCC_H_
