// Shape tests for the non-YCSB workload families: TPC-C-style NewOrder
// (multi-key read-modify-write over warehouse/district/item/stock rows)
// and serverless workflow chains (one read-write hop per function
// invocation, forced cross-shard when sharded).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/kv_store.h"
#include "storage/shard_router.h"
#include "workload/tpcc.h"
#include "workload/workflow.h"

namespace sbft::workload {
namespace {

/// Every row of a TPC-C load phase, spelled by the generator's formatters.
std::vector<std::string> TpccRows(const TpccConfig& config) {
  std::vector<std::string> rows;
  for (uint32_t w = 0; w < config.warehouses; ++w) {
    rows.push_back(TpccGenerator::WarehouseKey(w));
    for (uint32_t d = 0; d < config.districts_per_warehouse; ++d) {
      rows.push_back(TpccGenerator::DistrictKey(w, d));
    }
    for (uint32_t i = 0; i < config.items; ++i) {
      rows.push_back(TpccGenerator::StockKey(w, i));
    }
  }
  for (uint32_t i = 0; i < config.items; ++i) {
    rows.push_back(TpccGenerator::ItemKey(i));
  }
  return rows;
}

TEST(TpccGeneratorTest, NewOrderShapeIsDistrictRmwPlusStockRmws) {
  TpccConfig config;
  config.warehouses = 4;
  config.items = 100;
  TpccGenerator gen(config, Rng(5));

  for (int i = 0; i < 200; ++i) {
    Transaction txn = gen.Next(1);
    EXPECT_EQ(txn.id, static_cast<TxnId>(i + 1));
    ASSERT_GE(txn.ops.size(), 3u + 3u * 2);  // >= min order lines.

    // Fixed prefix: warehouse read, then the district RMW (read+write of
    // the same key — the next-order-id counter).
    EXPECT_EQ(txn.ops[0].type, OpType::kRead);
    EXPECT_EQ(txn.ops[0].key.substr(0, 2), "tw");
    EXPECT_EQ(txn.ops[1].type, OpType::kRead);
    EXPECT_EQ(txn.ops[2].type, OpType::kWrite);
    EXPECT_EQ(txn.ops[1].key, txn.ops[2].key);
    EXPECT_EQ(txn.ops[1].key.substr(0, 2), "td");

    // Order lines in triples: item read, stock read, stock write.
    ASSERT_EQ((txn.ops.size() - 3) % 3, 0u);
    for (size_t l = 3; l < txn.ops.size(); l += 3) {
      EXPECT_EQ(txn.ops[l].type, OpType::kRead);
      EXPECT_EQ(txn.ops[l].key.substr(0, 2), "ti");
      EXPECT_EQ(txn.ops[l + 1].type, OpType::kRead);
      EXPECT_EQ(txn.ops[l + 2].type, OpType::kWrite);
      EXPECT_EQ(txn.ops[l + 1].key, txn.ops[l + 2].key);
      EXPECT_EQ(txn.ops[l + 1].key.substr(0, 2), "ts");
    }
  }
}

TEST(TpccGeneratorTest, EveryTouchedKeyIsLoaded) {
  TpccConfig config;
  config.warehouses = 3;
  config.items = 50;
  TpccGenerator gen(config, Rng(6));
  storage::KvStore store;
  gen.LoadInto(&store);

  for (int i = 0; i < 500; ++i) {
    for (const Operation& op : gen.Next(1).ops) {
      storage::VersionedValue value;
      EXPECT_TRUE(store.Get(op.key, &value).ok()) << op.key;
    }
  }
}

TEST(TpccGeneratorTest, ShardedLoadPartitionsRows) {
  TpccConfig config;
  config.warehouses = 3;
  config.items = 50;
  TpccGenerator gen(config, Rng(6));
  storage::ShardRouter router(2);
  std::vector<storage::KvStore> shards(2);
  for (uint32_t s = 0; s < 2; ++s) gen.LoadInto(&shards[s], router, s);
  // Every row is on exactly one shard's store, its home shard's.
  std::vector<int> held(2, 0);
  for (const std::string& row : TpccRows(config)) {
    int homes = 0;
    for (uint32_t s = 0; s < 2; ++s) {
      if (!shards[s].Contains(row)) continue;
      ++homes;
      ++held[s];
      EXPECT_EQ(s, router.ShardOf(row)) << row;
    }
    EXPECT_EQ(homes, 1) << row;
  }
  EXPECT_GT(held[0], 0);
  EXPECT_GT(held[1], 0);
}

// The store's rows are exactly the strings the four formatters produce in
// range: the load-phase parser must reject every other spelling.
TEST(TpccGeneratorTest, LoadAcceptsExactlyFormattedRows) {
  TpccConfig config;
  config.warehouses = 4;
  config.districts_per_warehouse = 3;
  config.items = 50;
  storage::KvStore store;
  // A temporary generator: the store must not refer back to it.
  TpccGenerator(config, Rng(6)).LoadInto(&store);
  for (const std::string& row : TpccRows(config)) {
    EXPECT_TRUE(store.Contains(row)) << row;
  }
  const std::string near_misses[] = {
      // One past each range.
      TpccGenerator::WarehouseKey(4),
      TpccGenerator::DistrictKey(0, 3),
      TpccGenerator::StockKey(4, 0),
      TpccGenerator::StockKey(0, 50),
      TpccGenerator::ItemKey(50),
      // Leading zeros.
      "td03_1", "td3_01", "tw00", "ts01_1", "ti07",
      // Empty or cut-off numbers.
      "td3_", "td_1", "td3", "tw", "ts1_", "ti",
      // Bytes after the key, or a wrong separator or prefix.
      "tw1x", "td1_1_", "ts1-1", "td1 1", "tx1", "Tw1", "w1",
  };
  for (const std::string& key : near_misses) {
    EXPECT_FALSE(store.Contains(key)) << '"' << key << '"';
  }
}

TEST(WorkflowGeneratorTest, HopReadsInvokerStateWritesNextFunction) {
  WorkflowConfig config;
  config.functions = 5;
  config.state_keys_per_function = 40;
  config.chain_hops = 4;
  WorkflowGenerator gen(config, Rng(8));

  uint64_t chain = gen.NewChainId();
  for (uint32_t hop = 0; hop < config.chain_hops; ++hop) {
    Transaction txn = gen.HopTxn(7, chain, hop);
    ASSERT_EQ(txn.ops.size(), 2u);
    EXPECT_EQ(txn.ops[0].type, OpType::kRead);
    EXPECT_EQ(txn.ops[1].type, OpType::kWrite);
    std::string read_prefix =
        "wf" + std::to_string(hop % config.functions) + "_";
    std::string write_prefix =
        "wf" + std::to_string((hop + 1) % config.functions) + "_";
    EXPECT_EQ(txn.ops[0].key.substr(0, read_prefix.size()), read_prefix);
    EXPECT_EQ(txn.ops[1].key.substr(0, write_prefix.size()), write_prefix);
  }
}

TEST(WorkflowGeneratorTest, ShardedHopsSpanShardsAndRetriesGetFreshIds) {
  WorkflowConfig config;
  config.functions = 4;
  config.state_keys_per_function = 64;
  config.shard_count = 2;
  WorkflowGenerator gen(config, Rng(9));
  storage::ShardRouter router(2);

  std::set<TxnId> ids;
  int spanning = 0;
  const int attempts = 300;
  for (int i = 0; i < attempts; ++i) {
    // Same (chain, hop) re-issued: the retry-after-abort path must mint
    // a fresh transaction id every time.
    Transaction txn = gen.HopTxn(7, 1, 0);
    EXPECT_TRUE(ids.insert(txn.id).second);
    if (router.ShardOf(txn.ops[0].key) != router.ShardOf(txn.ops[1].key)) {
      ++spanning;
    }
  }
  // The write slot is re-rolled onto the other shard (bounded attempts,
  // so a stray single-shard hop is tolerated, not the norm).
  EXPECT_GT(spanning, attempts * 9 / 10);
}

TEST(WorkflowGeneratorTest, LoadCoversEveryStateKey) {
  WorkflowConfig config;
  config.functions = 3;
  config.state_keys_per_function = 20;
  WorkflowGenerator gen(config, Rng(10));
  storage::KvStore store;
  gen.LoadInto(&store);
  for (uint32_t fn = 0; fn < 3; ++fn) {
    for (uint32_t slot = 0; slot < 20; ++slot) {
      EXPECT_TRUE(store.Contains(WorkflowGenerator::StateKey(fn, slot)))
          << fn << "/" << slot;
    }
  }
  for (int i = 0; i < 200; ++i) {
    for (const Operation& op : gen.HopTxn(1, 5, i % 4).ops) {
      storage::VersionedValue value;
      EXPECT_TRUE(store.Get(op.key, &value).ok()) << op.key;
    }
  }
}

// The store's state rows are exactly the strings StateKey formats in
// range (LoadCoversEveryStateKey checks those): the load-phase parser must
// reject every other spelling.
TEST(WorkflowGeneratorTest, LoadAcceptsExactlyStateKeys) {
  WorkflowConfig config;
  config.functions = 3;
  config.state_keys_per_function = 20;
  storage::KvStore store;
  // A temporary generator: the store must not refer back to it.
  WorkflowGenerator(config, Rng(10)).LoadInto(&store);
  const std::string near_misses[] = {
      // One past each range.
      WorkflowGenerator::StateKey(3, 0),
      WorkflowGenerator::StateKey(0, 20),
      // Leading zeros.
      "wf0_s01", "wf00_s1", "wf01_s1",
      // Empty or cut-off numbers.
      "wf0_", "wf0_s", "wf_s1", "wf0",
      // Bytes after the key, or a wrong separator or prefix.
      "wf0_s1x", "wf0_s1 ", "wf0s1", "wf0_t1", "WF0_s1", "f0_s1",
  };
  for (const std::string& key : near_misses) {
    EXPECT_FALSE(store.Contains(key)) << '"' << key << '"';
  }
}

}  // namespace
}  // namespace sbft::workload
