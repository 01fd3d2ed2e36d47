#include "common/codec.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "common/rng.h"

namespace sbft {
namespace {

TEST(CodecTest, FixedWidthRoundTrip) {
  Encoder enc;
  enc.PutU8(0xab);
  enc.PutU32(0xdeadbeef);
  enc.PutU64(0x0123456789abcdefull);
  enc.PutBool(true);

  Decoder dec(enc.buffer());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  uint8_t b;
  ASSERT_TRUE(dec.GetU8(&u8).ok());
  ASSERT_TRUE(dec.GetU32(&u32).ok());
  ASSERT_TRUE(dec.GetU64(&u64).ok());
  ASSERT_TRUE(dec.GetU8(&b).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(b, 1);  // A bool is one byte, 0 or 1.
  EXPECT_TRUE(dec.Done());
}

TEST(CodecTest, VarintBoundaries) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             0xffffffffull,
                             0xffffffffffffffffull};
  Encoder enc;
  for (uint64_t v : values) enc.PutVarint(v);
  Decoder dec(enc.buffer());
  for (uint64_t v : values) {
    uint64_t got;
    ASSERT_TRUE(dec.GetVarint(&got).ok());
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(dec.Done());
}

TEST(CodecTest, VarintEncodingSizes) {
  Encoder e1;
  e1.PutVarint(127);
  EXPECT_EQ(e1.size(), 1u);
  Encoder e2;
  e2.PutVarint(128);
  EXPECT_EQ(e2.size(), 2u);
  Encoder e10;
  e10.PutVarint(0xffffffffffffffffull);
  EXPECT_EQ(e10.size(), 10u);
}

TEST(CodecTest, CounterCountsWhatAWriterEmits) {
  // Each Put* on a count-only encoder advances size() by exactly the
  // bytes it appends on a writing one, and the counter owns no buffer.
  const std::vector<std::function<void(Encoder*)>> puts = {
      [](Encoder* e) { e->PutU8(0xab); },
      [](Encoder* e) { e->PutU32(0xdeadbeef); },
      [](Encoder* e) { e->PutU64(0x0123456789abcdefull); },
      [](Encoder* e) { e->PutVarint(0); },
      [](Encoder* e) { e->PutVarint(0x7f); },
      [](Encoder* e) { e->PutVarint(0x80); },
      [](Encoder* e) { e->PutVarint(uint64_t{1} << 63); },
      [](Encoder* e) { e->PutBool(true); },
      [](Encoder* e) { e->PutBytes(Bytes{}); },
      [](Encoder* e) { e->PutBytes(Bytes(200, 7)); },
      [](Encoder* e) { e->PutString(""); },
      [](Encoder* e) { e->PutString("serverless"); },
      [](Encoder* e) {
        const uint8_t raw[3] = {1, 2, 3};
        e->PutRaw(raw, sizeof(raw));
      },
  };
  Encoder all_writer;
  Encoder all_counter = Encoder::Counter();
  for (size_t i = 0; i < puts.size(); ++i) {
    Encoder writer;
    Encoder counter = Encoder::Counter();
    puts[i](&writer);
    puts[i](&counter);
    EXPECT_FALSE(writer.counting());
    EXPECT_TRUE(counter.counting());
    EXPECT_EQ(counter.size(), writer.buffer().size()) << "put " << i;
    EXPECT_TRUE(counter.buffer().empty()) << "put " << i;
    puts[i](&all_writer);
    puts[i](&all_counter);
  }
  EXPECT_EQ(all_counter.size(), all_writer.buffer().size());
  EXPECT_TRUE(all_counter.buffer().empty());
}

TEST(CodecTest, CounterCountsKnownSizesAndEncodedSizeCountsEncodeTo) {
  Encoder counter = Encoder::Counter();
  counter.PutU32(1);
  counter.Count(100);
  EXPECT_EQ(counter.size(), 104u);

  struct Pair {
    uint64_t a;
    std::string b;
    void EncodeTo(Encoder* enc) const {
      enc->PutVarint(a);
      enc->PutString(b);
    }
  };
  Pair p{300, "edge"};
  Encoder writer;
  p.EncodeTo(&writer);
  EXPECT_EQ(EncodedSize(p), writer.size());
  EXPECT_EQ(EncodedSize(p), 2u + 1u + 4u);
}

TEST(CodecTest, BytesAndStringRoundTrip) {
  Encoder enc;
  enc.PutBytes(Bytes{1, 2, 3});
  enc.PutString("serverless");
  enc.PutBytes(Bytes{});
  enc.PutString("");

  Decoder dec(enc.buffer());
  Bytes b;
  std::string s;
  ASSERT_TRUE(dec.GetBytes(&b).ok());
  EXPECT_EQ(b, (Bytes{1, 2, 3}));
  ASSERT_TRUE(dec.GetString(&s).ok());
  EXPECT_EQ(s, "serverless");
  ASSERT_TRUE(dec.GetBytes(&b).ok());
  EXPECT_TRUE(b.empty());
  ASSERT_TRUE(dec.GetString(&s).ok());
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(dec.Done());
}

TEST(CodecTest, TruncatedInputsReturnCorruption) {
  Encoder enc;
  enc.PutU64(42);
  Bytes buf = enc.TakeBuffer();
  buf.resize(4);  // Cut the u64 in half.
  Decoder dec(buf);
  uint64_t v;
  EXPECT_TRUE(dec.GetU64(&v).IsCorruption());
}

TEST(CodecTest, TruncatedBytesLengthMismatch) {
  Encoder enc;
  enc.PutVarint(100);  // Claims 100 bytes follow...
  enc.PutU8(1);        // ...but only one does.
  Decoder dec(enc.buffer());
  Bytes b;
  EXPECT_TRUE(dec.GetBytes(&b).IsCorruption());
}

TEST(CodecTest, VarintOverflowRejected) {
  // 11 continuation bytes exceed the 64-bit range.
  Bytes buf(11, 0xff);
  Decoder dec(buf);
  uint64_t v;
  EXPECT_TRUE(dec.GetVarint(&v).IsCorruption());
}

TEST(CodecTest, OverlongVarintRejected) {
  // A last byte of 0 after the first adds nothing: {0x80, 0x00} would be
  // a second encoding of 0, and ff×9 00 a second one of 2^63 - 1.
  const Bytes overlong[] = {{0x80, 0x00},
                            {0xff, 0x80, 0x00},
                            {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                             0xff, 0x00}};
  for (const Bytes& buf : overlong) {
    Decoder dec(buf);
    uint64_t v;
    EXPECT_TRUE(dec.GetVarint(&v).IsCorruption()) << buf.size() << " bytes";
  }
  // A single zero byte is the one encoding of 0.
  const Bytes zero = {0x00};
  Decoder dec(zero);
  uint64_t v = 1;
  ASSERT_TRUE(dec.GetVarint(&v).ok());
  EXPECT_EQ(v, 0u);
}

TEST(CodecTest, TenthVarintByteAboveOneRejected) {
  // The tenth byte carries bit 63 alone: 1 sets it, and anything above
  // would be dropped bits (ff×9 7e would decode to 2^63 - 1).
  Bytes buf(9, 0xff);
  buf.push_back(0x01);
  Decoder max(buf);
  uint64_t v = 0;
  ASSERT_TRUE(max.GetVarint(&v).ok());
  EXPECT_EQ(v, ~uint64_t{0});
  for (uint8_t last : {0x02, 0x7e, 0x7f}) {
    buf.back() = last;
    Decoder dec(buf);
    EXPECT_TRUE(dec.GetVarint(&v).IsCorruption()) << int{last};
  }
}

TEST(CodecTest, CountAboveRemainingBytesRejected) {
  // Every element takes at least one byte: a count of the bytes left is
  // accepted, one more is Corruption, and so is 2^62 in a 9-byte buffer.
  Encoder enc;
  enc.PutVarint(2);
  enc.PutU8(0);
  enc.PutU8(0);
  uint64_t n = 0;
  Decoder fits(enc.buffer());
  ASSERT_TRUE(fits.GetCount(&n).ok());
  EXPECT_EQ(n, 2u);

  Bytes short_buf = enc.buffer();
  short_buf.pop_back();
  Decoder over(short_buf);
  EXPECT_TRUE(over.GetCount(&n).IsCorruption());

  Encoder hostile;
  hostile.PutVarint(uint64_t{1} << 62);
  ASSERT_EQ(hostile.size(), 9u);
  Decoder huge(hostile.buffer());
  EXPECT_TRUE(huge.GetCount(&n).IsCorruption());
}

TEST(CodecTest, EmptyDecoderReportsDone) {
  Bytes empty;
  Decoder dec(empty);
  EXPECT_TRUE(dec.Done());
  EXPECT_EQ(dec.remaining(), 0u);
}

TEST(CodecTest, RandomizedRoundTrip) {
  Rng rng(1234);
  for (int iter = 0; iter < 200; ++iter) {
    Encoder enc;
    std::vector<uint64_t> values;
    int n = static_cast<int>(rng.Uniform(20)) + 1;
    for (int i = 0; i < n; ++i) {
      uint64_t v = rng.NextU64() >> rng.Uniform(64);
      values.push_back(v);
      enc.PutVarint(v);
    }
    Decoder dec(enc.buffer());
    for (uint64_t expected : values) {
      uint64_t got;
      ASSERT_TRUE(dec.GetVarint(&got).ok());
      ASSERT_EQ(got, expected);
    }
    ASSERT_TRUE(dec.Done());
  }
}

}  // namespace
}  // namespace sbft
