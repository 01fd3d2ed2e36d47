#include "storage/rw_set.h"

#include <gtest/gtest.h>

namespace sbft::storage {
namespace {

RwSet MakeSet() {
  RwSet rw;
  rw.reads.push_back({"user1", 3});
  rw.reads.push_back({"user2", 1});
  rw.writes.push_back({"user1", ToBytes("new-value")});
  return rw;
}

TEST(RwSetTest, EncodeDecodeRoundTrip) {
  RwSet rw = MakeSet();
  Encoder enc;
  rw.EncodeTo(&enc);
  Bytes wire = enc.TakeBuffer();

  Decoder dec(wire);
  RwSet parsed;
  ASSERT_TRUE(RwSet::DecodeFrom(&dec, &parsed).ok());
  EXPECT_EQ(parsed, rw);
  EXPECT_TRUE(dec.Done());
}

TEST(RwSetTest, EncodedSizeMatchesEncoding) {
  RwSet rw = MakeSet();
  Encoder enc;
  rw.EncodeTo(&enc);
  EXPECT_EQ(EncodedSize(rw), enc.size());
}

TEST(RwSetTest, DecodeRejectsHostileCounts) {
  // A read count of 2^62, then a write count of 2^62 behind zero reads.
  for (bool writes : {false, true}) {
    Encoder enc;
    if (writes) enc.PutVarint(0);
    enc.PutVarint(uint64_t{1} << 62);
    Decoder dec(enc.buffer());
    RwSet parsed;
    EXPECT_TRUE(RwSet::DecodeFrom(&dec, &parsed).IsCorruption())
        << (writes ? "writes" : "reads");
  }
}

TEST(RwSetTest, ReadsCurrentChecksVersions) {
  KvStore store;
  store.Put("user1", ToBytes("a"));  // version 1
  store.Put("user1", ToBytes("b"));  // version 2
  store.Put("user1", ToBytes("c"));  // version 3
  store.Put("user2", ToBytes("x"));  // version 1

  RwSet rw = MakeSet();  // Expects user1@3, user2@1.
  EXPECT_TRUE(rw.ReadsCurrent(store));

  store.Put("user2", ToBytes("y"));  // Now user2@2: stale read.
  EXPECT_FALSE(rw.ReadsCurrent(store));
}

TEST(RwSetTest, ReadOfMissingKeyUsesVersionZero) {
  KvStore store;
  RwSet rw;
  rw.reads.push_back({"ghost", 0});
  EXPECT_TRUE(rw.ReadsCurrent(store));
  store.Put("ghost", ToBytes("now exists"));
  EXPECT_FALSE(rw.ReadsCurrent(store));
}

TEST(RwSetTest, ApplyWritesBumpsVersions) {
  KvStore store;
  store.Put("user1", ToBytes("old"));
  RwSet rw = MakeSet();
  rw.ApplyWrites(&store);
  VersionedValue out;
  ASSERT_TRUE(store.Get("user1", &out).ok());
  EXPECT_EQ(BytesToString(out.value), "new-value");
  EXPECT_EQ(out.version, 2u);
}

TEST(RwSetTest, EmptySet) {
  RwSet rw;
  EXPECT_TRUE(rw.empty());
  KvStore store;
  EXPECT_TRUE(rw.ReadsCurrent(store));
  rw.ApplyWrites(&store);  // No-op.
  EXPECT_EQ(store.writes(), 0u);

  Encoder enc;
  rw.EncodeTo(&enc);
  Decoder dec(enc.buffer());
  RwSet parsed;
  ASSERT_TRUE(RwSet::DecodeFrom(&dec, &parsed).ok());
  EXPECT_TRUE(parsed.empty());
}

TEST(RwSetTest, DecodeTruncatedFails) {
  RwSet rw = MakeSet();
  Encoder enc;
  rw.EncodeTo(&enc);
  Bytes wire = enc.TakeBuffer();
  wire.resize(3);
  Decoder dec(wire);
  RwSet parsed;
  EXPECT_FALSE(RwSet::DecodeFrom(&dec, &parsed).ok());
}

}  // namespace
}  // namespace sbft::storage
