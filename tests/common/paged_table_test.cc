#include "common/paged_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <unordered_map>
#include <vector>

#include "common/rng.h"

namespace sbft {
namespace {

struct IntSlot {
  uint64_t key = 0;
  uint64_t value = 0;
  bool used = false;
};

/// A uint64 -> uint64 table whose hash is `H`, so a test can choose
/// where keys land.
template <uint64_t (*H)(uint64_t)>
struct IntPolicy {
  using Key = uint64_t;
  using Slot = IntSlot;
  static uint64_t Hash(uint64_t key) { return H(key); }
  static uint64_t Hash(const IntSlot& slot) { return H(slot.key); }
  static bool Empty(const IntSlot& slot) { return !slot.used; }
  static bool Matches(const IntSlot& slot, uint64_t, uint64_t key) {
    return slot.key == key;
  }
};

uint64_t Mixed(uint64_t key) { return Mix64(key); }
/// Every key homes to slot 0, so the keys form one run from the first
/// slot across page boundaries.
uint64_t LowBitsCollide(uint64_t key) { return Mix64(key) << 32; }
/// Keys home to the last four slots, so their run wraps from the last
/// slot to the first.
uint64_t HomeAtTheEnd(uint64_t key) {
  return std::numeric_limits<uint64_t>::max() - key % 4;
}

template <uint64_t (*H)(uint64_t)>
void RunDifferential(uint64_t seed, uint64_t key_range, int ops) {
  PagedTable<IntPolicy<H>> table;
  std::unordered_map<uint64_t, uint64_t> model;
  std::mt19937_64 rng(seed);
  size_t max_capacity = 0;
  for (int op = 0; op < ops; ++op) {
    const uint64_t key = rng() % key_range;
    const uint64_t value = rng();
    // Insert twice as often as erase, so the table grows through
    // several doublings while erases still cut its runs.
    switch (rng() % 3) {
      case 0:
      case 1: {
        auto [slot, inserted] = table.FindOrInsert(key, [&](uint64_t) {
          return IntSlot{key, value, true};
        });
        auto [it, model_inserted] = model.try_emplace(key, value);
        ASSERT_EQ(inserted, model_inserted) << "op " << op;
        ASSERT_EQ(slot->key, key);
        ASSERT_EQ(slot->value, it->second) << "op " << op;
        break;
      }
      default:
        ASSERT_EQ(table.Erase(key), model.erase(key) == 1) << "op " << op;
    }
    ASSERT_EQ(table.size(), model.size());
    max_capacity = std::max(max_capacity, table.capacity());
    if (op % 97 == 0) {
      for (uint64_t k = 0; k < key_range; ++k) {
        const IntSlot* slot = table.Find(k);
        auto it = model.find(k);
        ASSERT_EQ(slot != nullptr, it != model.end()) << "key " << k;
        if (slot != nullptr) {
          ASSERT_EQ(slot->value, it->second);
        }
      }
    }
  }
  // The runs crossed page boundaries: the table outgrew several pages.
  EXPECT_GE(max_capacity, 8 * PagedTable<IntPolicy<H>>::kPageSlots);
  while (!model.empty()) {
    const uint64_t key = model.begin()->first;
    ASSERT_TRUE(table.Erase(key));
    model.erase(model.begin());
    for (const auto& [k, v] : model) {
      const IntSlot* slot = table.Find(k);
      ASSERT_NE(slot, nullptr) << "key " << k << " lost erasing " << key;
      ASSERT_EQ(slot->value, v);
    }
  }
  EXPECT_EQ(table.size(), 0u);
}

TEST(PagedTableTest, MatchesUnorderedMapThroughGrowth) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    RunDifferential<Mixed>(seed, 2000, 6000);
  }
}

TEST(PagedTableTest, KeysCollidingInTheLowBitsShareOneRun) {
  RunDifferential<LowBitsCollide>(4, 700, 2000);
}

TEST(PagedTableTest, EraseShiftsBackAcrossTheWrap) {
  RunDifferential<HomeAtTheEnd>(5, 700, 2000);
}

TEST(PagedTableTest, StartsEmptyAndGrowsAtThreeQuarterLoad) {
  PagedTable<IntPolicy<Mixed>> table;
  EXPECT_EQ(table.capacity(), 0u);  // No up-front reservation.
  EXPECT_EQ(table.Find(7), nullptr);
  EXPECT_FALSE(table.Erase(7));
  const size_t page = PagedTable<IntPolicy<Mixed>>::kPageSlots;
  for (uint64_t key = 0; key < 3 * page / 4; ++key) {
    table.FindOrInsert(key, [&](uint64_t) { return IntSlot{key, key, true}; });
  }
  EXPECT_EQ(table.capacity(), page);
  bool called = false;
  auto [slot, inserted] = table.FindOrInsert(0, [&](uint64_t) {
    called = true;
    return IntSlot{};
  });
  EXPECT_FALSE(inserted);  // A present key keeps its slot untouched.
  EXPECT_FALSE(called);
  EXPECT_EQ(slot->value, 0u);
  table.FindOrInsert(page, [&](uint64_t) { return IntSlot{page, 1, true}; });
  EXPECT_EQ(table.capacity(), 2 * page);
  EXPECT_EQ(table.size(), 3 * page / 4 + 1);
}

}  // namespace
}  // namespace sbft
