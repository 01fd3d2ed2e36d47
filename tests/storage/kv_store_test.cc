#include "storage/kv_store.h"

#include <gtest/gtest.h>

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

TEST(KvStoreTest, DeleteRemovesKey) {
  KvStore store;
  store.Put("k", ToBytes("v"));
  store.Delete("k");
  EXPECT_FALSE(store.Contains("k"));
  EXPECT_EQ(store.VersionOf("k"), 0u);
}

TEST(KvStoreTest, LoadSharesOneImageUntilPut) {
  KvStore store;
  const Bytes fill(100, 'v');
  KvStore::Image image = std::make_shared<const Bytes>(fill);
  for (int i = 0; i < 1000; ++i) store.Load("user" + std::to_string(i), image);
  EXPECT_EQ(store.size(), 1000u);
  EXPECT_EQ(store.writes(), 1000u);
  EXPECT_EQ(image.use_count(), 1001);  // One buffer for every record.
  VersionedValue out;
  ASSERT_TRUE(store.Get("user999", &out).ok());
  EXPECT_EQ(out.value, fill);
  EXPECT_EQ(out.version, 1u);
  EXPECT_FALSE(store.Contains("user1000"));

  // The first Put gives a key its own buffer; its neighbours keep the
  // image and version 1.
  store.Put("user7", ToBytes("mine"));
  EXPECT_EQ(image.use_count(), 1000);
  EXPECT_EQ(*image, fill);
  ASSERT_TRUE(store.Get("user7", &out).ok());
  EXPECT_EQ(BytesToString(out.value), "mine");
  EXPECT_EQ(out.version, 2u);
  for (const char* key : {"user6", "user8"}) {
    ASSERT_TRUE(store.Get(key, &out).ok());
    EXPECT_EQ(out.value, fill) << key;
    EXPECT_EQ(out.version, 1u) << key;
  }

  // Delete drops the record; a reload starts its versions over.
  store.Delete("user8");
  EXPECT_FALSE(store.Contains("user8"));
  EXPECT_EQ(store.VersionOf("user8"), 0u);
  store.Load("user8", image);
  EXPECT_EQ(store.VersionOf("user8"), 1u);
  store.Put("user8", ToBytes("x"));
  EXPECT_EQ(store.VersionOf("user8"), 2u);
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
