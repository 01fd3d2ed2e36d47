#include "storage/kv_store.h"

#include <gtest/gtest.h>

#include <functional>
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
