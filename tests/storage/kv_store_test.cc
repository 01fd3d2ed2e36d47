#include "storage/kv_store.h"

#include <gtest/gtest.h>
#include <malloc.h>

#include <cstddef>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace sbft::storage {
namespace {

TEST(KvStoreTest, GetMissingReturnsNotFound) {
  KvStore store;
  VersionedValue out;
  EXPECT_TRUE(store.Get("nope", &out).IsNotFound());
  EXPECT_FALSE(store.Contains("nope"));
  EXPECT_EQ(store.VersionOf("nope"), 0u);
}

TEST(KvStoreTest, PutThenGet) {
  KvStore store;
  store.Put("k", ToBytes("v1"));
  VersionedValue out;
  ASSERT_TRUE(store.Get("k", &out).ok());
  EXPECT_EQ(BytesToString(out.value), "v1");
  EXPECT_EQ(out.version, 1u);
}

TEST(KvStoreTest, VersionsIncrementPerKey) {
  KvStore store;
  store.Put("a", ToBytes("1"));
  store.Put("a", ToBytes("2"));
  store.Put("a", ToBytes("3"));
  store.Put("b", ToBytes("x"));
  EXPECT_EQ(store.VersionOf("a"), 3u);
  EXPECT_EQ(store.VersionOf("b"), 1u);
  VersionedValue out;
  ASSERT_TRUE(store.Get("a", &out).ok());
  EXPECT_EQ(BytesToString(out.value), "3");
}

TEST(KvStoreTest, LoadSharesOneImageUntilPut) {
  KvStore store;
  const Bytes fill(100, 'v');
  std::set<std::string, std::less<>> records;
  for (int i = 0; i < 1000; ++i) records.insert("user" + std::to_string(i));
  store.SetLoadBase(fill, [records = std::move(records)](std::string_view key) {
    return records.contains(key);
  });
  EXPECT_EQ(store.writes(), 0u);  // Loading writes nothing.
  VersionedValue out;
  ASSERT_TRUE(store.Get("user999", &out).ok());
  EXPECT_EQ(out.value, fill);
  EXPECT_EQ(out.version, 1u);
  EXPECT_TRUE(store.Contains("user0"));
  EXPECT_EQ(store.VersionOf("user0"), 1u);
  EXPECT_FALSE(store.Contains("user1000"));
  EXPECT_TRUE(store.Get("user1000", &out).IsNotFound());
  EXPECT_EQ(store.VersionOf("user1000"), 0u);

  // The first Put gives a key its own value at version 2; its neighbours
  // keep the image and version 1.
  store.Put("user7", ToBytes("mine"));
  ASSERT_TRUE(store.Get("user7", &out).ok());
  EXPECT_EQ(BytesToString(out.value), "mine");
  EXPECT_EQ(out.version, 2u);
  for (const char* key : {"user6", "user8"}) {
    ASSERT_TRUE(store.Get(key, &out).ok());
    EXPECT_EQ(out.value, fill) << key;
    EXPECT_EQ(out.version, 1u) << key;
  }
  store.Put("user7", ToBytes("again"));
  EXPECT_EQ(store.VersionOf("user7"), 3u);

  // A key outside the load phase starts at version 1.
  store.Put("user1000", ToBytes("new"));
  EXPECT_EQ(store.VersionOf("user1000"), 1u);
  EXPECT_EQ(store.writes(), 3u);
}

TEST(KvStoreTest, OverwriteWithAnotherSizeAndEmptyValues) {
  KvStore store;
  store.Put("k", ToBytes("short"));
  store.Put("k", ToBytes("a much longer value than before"));
  VersionedValue out;
  ASSERT_TRUE(store.Get("k", &out).ok());
  EXPECT_EQ(BytesToString(out.value), "a much longer value than before");
  EXPECT_EQ(out.version, 2u);
  store.Put("k", ToBytes("tiny"));
  ASSERT_TRUE(store.Get("k", &out).ok());
  EXPECT_EQ(BytesToString(out.value), "tiny");
  EXPECT_EQ(out.version, 3u);
  store.Put("k", Bytes());
  ASSERT_TRUE(store.Get("k", &out).ok());
  EXPECT_TRUE(out.value.empty());
  EXPECT_EQ(out.version, 4u);

  // An empty value is a value: the key exists.
  store.Put("empty", Bytes());
  EXPECT_TRUE(store.Contains("empty"));
  ASSERT_TRUE(store.Get("empty", &out).ok());
  EXPECT_TRUE(out.value.empty());
  EXPECT_EQ(out.version, 1u);
  store.Put("empty", Bytes());
  EXPECT_EQ(store.VersionOf("empty"), 2u);
  store.Put("", ToBytes("empty key"));
  ASSERT_TRUE(store.Get("", &out).ok());
  EXPECT_EQ(BytesToString(out.value), "empty key");
}

TEST(KvStoreTest, WrittenKeysSurviveGrowthBesideTheImage) {
  KvStore store;
  const Bytes fill(100, 'v');
  constexpr int kRecords = 3000;
  store.SetLoadBase(fill, [](std::string_view key) {
    if (!key.starts_with("user")) return false;
    const std::string digits(key.substr(4));
    return !digits.empty() && digits.size() <= 4 &&
           digits.find_first_not_of("0123456789") == std::string::npos &&
           std::stoi(digits) < kRecords;
  });
  // Write every third record, then rewrite every sixth and every ninth
  // with values of other sizes (some empty), and add keys outside the
  // load phase in each round. The table grows through several doublings
  // between the writes.
  std::map<std::string, VersionedValue> expected;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < kRecords; i += 3 * (round + 1)) {
      const std::string key = "user" + std::to_string(i);
      Bytes value(static_cast<size_t>((i * 7 + round) % 150), 'a' + round);
      store.Put(key, value);
      auto [it, first] = expected.try_emplace(key, VersionedValue{{}, 1});
      it->second.value = value;
      ++it->second.version;  // A record sits at version 1 before its Put.
    }
    for (int i = 0; i < 200 * (round + 1); ++i) {
      const std::string key = "extra" + std::to_string(i);
      Bytes value(static_cast<size_t>((i + round) % 9), 'x');
      store.Put(key, value);
      auto [it, first] = expected.try_emplace(key, VersionedValue{{}, 0});
      it->second.value = value;
      ++it->second.version;
    }
  }
  VersionedValue out;
  for (const auto& [key, value] : expected) {
    ASSERT_TRUE(store.Get(key, &out).ok()) << key;
    EXPECT_EQ(out.value, value.value) << key;
    EXPECT_EQ(out.version, value.version) << key;
    EXPECT_EQ(store.VersionOf(key), value.version) << key;
  }
  for (int i = 0; i < kRecords; ++i) {
    const std::string key = "user" + std::to_string(i);
    if (expected.contains(key)) continue;
    ASSERT_TRUE(store.Get(key, &out).ok()) << key;
    EXPECT_EQ(out.value, fill) << key;
    EXPECT_EQ(out.version, 1u) << key;
  }
  EXPECT_FALSE(store.Contains("user" + std::to_string(kRecords)));
  EXPECT_FALSE(store.Contains("extra600"));
}

// A value is stored and read by reference: the store keeps the buffer a
// Put hands it and every Get returns that buffer, so no layer between a
// generator and a reader copies the bytes.
TEST(KvStoreTest, GetReturnsTheBufferPutStored) {
  KvStore store;
  const SharedBytes image(Bytes(100, 'v'));
  store.SetLoadBase(image, [](std::string_view key) { return key == "a"; });
  VersionedValue out;
  ASSERT_TRUE(store.Get("a", &out).ok());
  EXPECT_EQ(out.value.data(), image.data());  // Unwritten: the image.

  const SharedBytes first(Bytes(100, 'w'));
  store.Put("a", first);
  ASSERT_TRUE(store.Get("a", &out).ok());
  EXPECT_EQ(out.value.data(), first.data());
  EXPECT_EQ(out.version, 2u);

  const SharedBytes second(Bytes(100, 'w'));  // Equal bytes, own buffer.
  store.Put("a", second);
  ASSERT_TRUE(store.Get("a", &out).ok());
  EXPECT_EQ(out.value.data(), second.data());
  EXPECT_NE(out.value.data(), first.data());
  EXPECT_EQ(out.version, 3u);
}

// What each written key must read back: its buffer (the one its last
// Put stored) and its version.
using Expected = std::map<std::string, VersionedValue>;

void PutAndExpect(KvStore* store, Expected* expected, const std::string& key,
                  const SharedBytes& value) {
  store->Put(key, value);
  VersionedValue& want = (*expected)[key];
  want.value = value;
  ++want.version;
}

void ExpectReadsBack(const KvStore& store, const Expected& expected) {
  VersionedValue out;
  for (const auto& [key, want] : expected) {
    ASSERT_TRUE(store.Get(key, &out).ok()) << key.size() << "-B key";
    EXPECT_EQ(out.value.data(), want.value.data()) << key.size() << "-B key";
    EXPECT_EQ(out.version, want.version) << key.size() << "-B key";
    EXPECT_EQ(store.VersionOf(key), want.version) << key.size() << "-B key";
  }
}

// Adds `count` short keys with their own prefix, so that the table
// doubles several times after the keys written before.
void Fill(KvStore* store, Expected* expected, const std::string& prefix,
          int count, const SharedBytes& value) {
  for (int i = 0; i < count; ++i) {
    PutAndExpect(store, expected, prefix + std::to_string(i), value);
  }
}

// A record longer than an arena block gets a block of its own; a record
// of exactly a block fills one. Normal records go on around them.
TEST(KvStoreTest, KeysLongerThanABlockAreStored) {
  constexpr size_t kBlock = KvStore::kArenaBlockBytes;
  // Key sizes up to and past the one whose record is exactly a block,
  // and one several blocks long.
  std::vector<size_t> sizes;
  int exact = 0;
  for (size_t size = kBlock - 40; size <= kBlock; ++size) {
    sizes.push_back(size);
    exact += KvStore::ArenaRecordBytes(size) == kBlock;
  }
  ASSERT_GT(exact, 0);
  sizes.push_back(3 * kBlock + 5);
  const SharedBytes a(Bytes(100, 'a'));
  const SharedBytes b(Bytes(100, 'b'));
  KvStore store;
  Expected expected;
  PutAndExpect(&store, &expected, "before", a);
  for (size_t size : sizes) {
    // Two keys of each size that differ only in their last byte.
    PutAndExpect(&store, &expected, std::string(size - 1, 'k') + 'x', a);
    PutAndExpect(&store, &expected, std::string(size - 1, 'k') + 'y', b);
    PutAndExpect(&store, &expected, "after" + std::to_string(size), b);
  }
  EXPECT_FALSE(store.Contains(std::string(kBlock, 'k')));
  EXPECT_FALSE(store.Contains(std::string(3 * kBlock + 5, 'k') + 'x'));
  Fill(&store, &expected, "fill", 2000, a);
  PutAndExpect(&store, &expected, std::string(3 * kBlock + 4, 'k') + 'x', b);
  ExpectReadsBack(store, expected);
}

TEST(KvStoreTest, EmptyKeyIsAKey) {
  const SharedBytes a(Bytes(100, 'a'));
  const SharedBytes b(Bytes(100, 'b'));
  KvStore store;
  EXPECT_FALSE(store.Contains(""));
  Expected expected;
  PutAndExpect(&store, &expected, "", a);
  Fill(&store, &expected, "k", 1000, b);
  PutAndExpect(&store, &expected, "", b);
  Fill(&store, &expected, "j", 1000, a);
  ExpectReadsBack(store, expected);
  EXPECT_EQ(store.VersionOf(""), 2u);
}

// Records of 32 B fill a block exactly, so every 128th ends at a block
// boundary and the next starts a block; 40-B records leave a tail that no
// record fits.
TEST(KvStoreTest, RecordsEndingAtABlockBoundaryReadBack) {
  constexpr size_t kBlock = KvStore::kArenaBlockBytes;
  static_assert(kBlock % KvStore::ArenaRecordBytes(4) == 0);
  static_assert(kBlock % KvStore::ArenaRecordBytes(8) != 0);
  const SharedBytes a(Bytes(100, 'a'));
  const SharedBytes b(Bytes(100, 'b'));
  KvStore store;
  Expected expected;
  for (int i = 0; i < 1000; ++i) {
    // "k000" to "k999": 4-B keys, about eight blocks of exact fits.
    std::string key = std::to_string(1000 + i);
    key[0] = 'k';
    PutAndExpect(&store, &expected, key, i % 2 == 0 ? a : b);
  }
  for (int i = 0; i < 1000; ++i) {
    PutAndExpect(&store, &expected, "key" + std::to_string(10000 + i), a);
  }
  for (int i = 0; i < 1000; i += 7) {  // Rewrites find the same records.
    std::string key = std::to_string(1000 + i);
    key[0] = 'k';
    PutAndExpect(&store, &expected, key, b);
  }
  ExpectReadsBack(store, expected);
}

// About 200k keys hold a few pairs whose 32-bit tags collide. Both keys
// of a pair share a home slot and are told apart by their bytes, through
// every doubling of the table.
TEST(KvStoreTest, KeysWithCollidingTagsKeepTheirOwnRecords) {
  constexpr int kKeys = 200'000;
  std::unordered_map<uint32_t, int> first_with_tag;
  std::vector<std::pair<int, int>> collisions;
  for (int i = 0; i < kKeys; ++i) {
    const uint32_t tag = KvStore::KeyTag("user" + std::to_string(i));
    auto [it, fresh] = first_with_tag.try_emplace(tag, i);
    if (!fresh) collisions.emplace_back(it->second, i);
  }
  ASSERT_FALSE(collisions.empty()) << "no two keys share a tag";

  std::vector<SharedBytes> values;
  for (char c = 'a'; c < 'q'; ++c) values.emplace_back(Bytes(8, c));
  KvStore store;
  Expected expected;
  for (int i = 0; i < kKeys; ++i) {
    PutAndExpect(&store, &expected, "user" + std::to_string(i),
                 values[static_cast<size_t>(i) % values.size()]);
  }
  // The later key of each pair gets another version and its own buffer.
  for (const auto& [first, second] : collisions) {
    PutAndExpect(&store, &expected, "user" + std::to_string(second),
                 SharedBytes(Bytes(8, 'z')));
  }
  ExpectReadsBack(store, expected);
}

// The store's heap per written key, from glibc's malloc statistics: a
// 40-B record in a 4-KiB arena block and an 8-B slot at a load between
// 3/8 and 3/4, about 55 B here. The bound sits below the 92 B that a
// record in its own 64-B chunk behind a 16-B slot costs.
TEST(KvStoreTest, WrittenKeyCostsAtMost64HeapBytes) {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  constexpr size_t kKeys = 150'000;
  const SharedBytes value(Bytes(100, 'v'));
  const size_t before = mallinfo2().uordblks;
  KvStore store;
  for (size_t i = 0; i < kKeys; ++i) {
    store.Put("user" + std::to_string(i), value);
  }
  const size_t after = mallinfo2().uordblks;
  const size_t grown = after > before ? after - before : 0;
  if (grown < kKeys * KvStore::ArenaRecordBytes(10)) {
    GTEST_SKIP() << "mallinfo2 saw " << grown << " B for " << kKeys
                 << " records: it does not report the heap in use, as "
                    "when a sanitizer replaces malloc";
  }
  const double per_key = static_cast<double>(grown) / kKeys;
  RecordProperty("heap_bytes_per_key", std::to_string(per_key));
  EXPECT_LE(per_key, 64.0);
  EXPECT_EQ(store.VersionOf("user0"), 1u);
#else
  GTEST_SKIP() << "needs glibc's mallinfo2";
#endif
}

TEST(KvStoreTest, StatsCountAccesses) {
  KvStore store;
  store.Put("k", ToBytes("v"));
  VersionedValue out;
  store.Get("k", &out).ok();
  store.Get("missing", &out).IsNotFound();
  EXPECT_EQ(store.writes(), 1u);
  EXPECT_EQ(store.reads(), 2u);
}

}  // namespace
}  // namespace sbft::storage
