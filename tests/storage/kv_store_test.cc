#include "storage/kv_store.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>

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
