#include "workload/tpcc.h"

#include <algorithm>

#include "workload/key_parse.h"

namespace sbft::workload {

/// Value bytes per row.
constexpr size_t kValueSize = 64;
/// Order lines per NewOrder, uniform in [min, max] (TPC-C: 5..15).
constexpr int kOrderLinesMin = 2;
constexpr int kOrderLinesMax = 5;
/// Percentage (0-100) of order lines whose stock row lives at a *remote*
/// warehouse (TPC-C: 1%); with hash-sharding this is what makes NewOrder
/// span shards.
constexpr double kRemotePercentage = 1.0;

TpccGenerator::TpccGenerator(const TpccConfig& config, Rng rng)
    : TxnGenerator(kValueSize, 't', 'n'),
      config_(config),
      rng_(rng),
      warehouses_(MakeKeyDistribution(std::max<uint32_t>(config.warehouses, 1),
                                      config.zipf_theta, 0)) {}

std::string TpccGenerator::WarehouseKey(uint32_t w) {
  return "tw" + std::to_string(w);
}
std::string TpccGenerator::DistrictKey(uint32_t w, uint32_t d) {
  return "td" + std::to_string(w) + "_" + std::to_string(d);
}
std::string TpccGenerator::ItemKey(uint32_t i) {
  return "ti" + std::to_string(i);
}
std::string TpccGenerator::StockKey(uint32_t w, uint32_t i) {
  return "ts" + std::to_string(w) + "_" + std::to_string(i);
}

storage::KvStore::RecordPredicate TpccGenerator::RecordKeyPredicate() const {
  // The inverse of the four formatters above.
  return [warehouses = config_.warehouses,
          districts = config_.districts_per_warehouse,
          items = config_.items](std::string_view key) {
    bool row = false;
    if (ConsumeLiteral(&key, "tw")) {
      row = ConsumeIndex(&key, warehouses);
    } else if (ConsumeLiteral(&key, "td")) {
      row = ConsumeIndex(&key, warehouses) && ConsumeLiteral(&key, "_") &&
            ConsumeIndex(&key, districts);
    } else if (ConsumeLiteral(&key, "ti")) {
      row = ConsumeIndex(&key, items);
    } else if (ConsumeLiteral(&key, "ts")) {
      row = ConsumeIndex(&key, warehouses) && ConsumeLiteral(&key, "_") &&
            ConsumeIndex(&key, items);
    }
    return row && key.empty();
  };
}

Transaction TpccGenerator::Next(ActorId client) {
  Transaction txn;
  txn.id = next_txn_id_++;
  txn.client = client;
  txn.rw_sets_known = true;

  auto read = [&](std::string key) {
    Operation op;
    op.type = OpType::kRead;
    op.key = std::move(key);
    txn.ops.push_back(std::move(op));
  };
  auto write = [&](std::string key) {
    Operation op;
    op.type = OpType::kWrite;
    op.key = std::move(key);
    op.value = payload();
    txn.ops.push_back(std::move(op));
  };

  auto w = static_cast<uint32_t>(warehouses_->NextIndex(&rng_));
  auto d = static_cast<uint32_t>(
      rng_.Uniform(std::max<uint32_t>(config_.districts_per_warehouse, 1)));

  // Warehouse tax read + the district next-order-id read-modify-write.
  read(WarehouseKey(w));
  std::string district = DistrictKey(w, d);
  read(district);
  write(district);

  int lines = static_cast<int>(rng_.Range(kOrderLinesMin, kOrderLinesMax));
  for (int l = 0; l < lines; ++l) {
    auto item =
        static_cast<uint32_t>(rng_.Uniform(std::max<uint32_t>(config_.items,
                                                              1)));
    uint32_t supply = w;
    if (config_.warehouses > 1 &&
        rng_.Bernoulli(kRemotePercentage / 100.0)) {
      supply = static_cast<uint32_t>(rng_.Uniform(config_.warehouses - 1));
      if (supply >= w) ++supply;  // Any warehouse but the home one.
    }
    read(ItemKey(item));
    std::string stock = StockKey(supply, item);
    read(stock);
    write(stock);
  }
  return txn;
}

}  // namespace sbft::workload
