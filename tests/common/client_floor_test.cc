#include "common/client_floor.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace sbft {
namespace {

TEST(FloorTableTest, KeysIncludingEdgeValues) {
  constexpr TxnId kMaxId = std::numeric_limits<TxnId>::max();
  // Every floor starts at 0, so id 0 is never stored; any other key is.
  const std::vector<TxnKey> keys = {
      {kInvalidActor, 1}, {0, 1},          {0, kMaxId},
      {kInvalidActor, kMaxId}, {1, 1},     {0, 2},
      {kInvalidActor - 1, kMaxId - 1},
  };
  FloorTable<> set;
  EXPECT_EQ(set.FindOrInsert({0, 0}).first, nullptr);
  for (const TxnKey& key : keys) {
    EXPECT_EQ(set.Find(key), nullptr);
    EXPECT_TRUE(set.FindOrInsert(key).second);
  }
  for (const TxnKey& key : keys) {
    auto [entry, inserted] = set.FindOrInsert(key);
    EXPECT_NE(entry, nullptr);
    EXPECT_FALSE(inserted);
    EXPECT_NE(set.Find(key), nullptr);
  }
  EXPECT_EQ(set.size(), keys.size());
  // The same id under another client is another transaction.
  EXPECT_EQ(set.Find({2, 1}), nullptr);
  EXPECT_TRUE(set.Erase({kInvalidActor, 1}));
  EXPECT_FALSE(set.Erase({kInvalidActor, 1}));
  EXPECT_NE(set.Find({0, 1}), nullptr);
  EXPECT_EQ(set.size(), keys.size() - 1);
}

TEST(FloorTableTest, RaisingAFloorDropsThatClientsEntriesAtOrBelowIt) {
  FloorTable<int> table;
  for (ActorId client : {1u, 2u}) {
    for (TxnId id = 1; id <= 10; ++id) {
      *table.FindOrInsert({client, id}).first = static_cast<int>(id);
    }
  }
  table.Raise(1, 5);
  EXPECT_EQ(table.floor(1), 5u);
  EXPECT_EQ(table.floor(2), 0u);
  EXPECT_EQ(table.size(), 15u);
  for (TxnId id = 1; id <= 10; ++id) {
    EXPECT_EQ(table.Find({1, id}) != nullptr, id > 5) << "id " << id;
    ASSERT_NE(table.Find({2, id}), nullptr) << "id " << id;
    EXPECT_EQ(*table.Find({2, id}), static_cast<int>(id));
  }
  // At or below the floor nothing is stored again.
  EXPECT_EQ(table.FindOrInsert({1, 3}).first, nullptr);
  EXPECT_EQ(table.FindOrInsert({1, 5}).first, nullptr);
  EXPECT_TRUE(table.FindOrInsert({1, 11}).second);
  // A lower floor changes nothing.
  table.Raise(1, 2);
  EXPECT_EQ(table.floor(1), 5u);
  EXPECT_EQ(table.size(), 16u);
  table.Raise(2, 100);
  EXPECT_EQ(table.size(), 6u);
}

}  // namespace
}  // namespace sbft
