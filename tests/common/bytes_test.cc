#include "common/bytes.h"

#include <gtest/gtest.h>

namespace sbft {
namespace {

TEST(BytesTest, ToBytesRoundTrip) {
  Bytes b = ToBytes("hello");
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(BytesToString(b), "hello");
}

// Copies share one buffer; equality still compares bytes, so two values
// built apart with the same bytes are equal (a write set's match at the
// verifier, Operation::operator==).
TEST(BytesTest, SharedBytesShareOnCopyAndCompareBytes) {
  const SharedBytes a(ToBytes("payload"));
  const SharedBytes copy = a;
  EXPECT_EQ(copy.data(), a.data());
  const SharedBytes b(ToBytes("payload"));
  EXPECT_NE(b.data(), a.data());
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(a == ToBytes("payload"));
  EXPECT_FALSE(a == SharedBytes(ToBytes("payloae")));
  EXPECT_FALSE(a == SharedBytes());
  EXPECT_TRUE(SharedBytes() == SharedBytes(Bytes()));
  EXPECT_TRUE(SharedBytes().empty());
  EXPECT_EQ(BytesToString(a), "payload");
}

TEST(BytesTest, HexEncode) {
  Bytes b = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(HexEncode(b), "deadbeef");
  EXPECT_EQ(HexEncode(Bytes{}), "");
  EXPECT_EQ(HexEncode(Bytes{0x00, 0x01}), "0001");
}

TEST(BytesTest, HexDecodeValid) {
  Bytes out;
  ASSERT_TRUE(HexDecode("deadbeef", &out));
  EXPECT_EQ(out, (Bytes{0xde, 0xad, 0xbe, 0xef}));
  ASSERT_TRUE(HexDecode("DEADBEEF", &out));
  EXPECT_EQ(out, (Bytes{0xde, 0xad, 0xbe, 0xef}));
  ASSERT_TRUE(HexDecode("", &out));
  EXPECT_TRUE(out.empty());
}

TEST(BytesTest, HexDecodeRejectsBadInput) {
  Bytes out;
  EXPECT_FALSE(HexDecode("abc", &out));   // Odd length.
  EXPECT_FALSE(HexDecode("zz", &out));    // Bad digit.
  EXPECT_FALSE(HexDecode("0g", &out));
}

TEST(BytesTest, HexRoundTripAllByteValues) {
  Bytes all;
  for (int i = 0; i < 256; ++i) all.push_back(static_cast<uint8_t>(i));
  Bytes decoded;
  ASSERT_TRUE(HexDecode(HexEncode(all), &decoded));
  EXPECT_EQ(decoded, all);
}

TEST(BytesTest, ConstantTimeEquals) {
  EXPECT_TRUE(ConstantTimeEquals(ToBytes("abc"), ToBytes("abc")));
  EXPECT_FALSE(ConstantTimeEquals(ToBytes("abc"), ToBytes("abd")));
  EXPECT_FALSE(ConstantTimeEquals(ToBytes("abc"), ToBytes("ab")));
  EXPECT_TRUE(ConstantTimeEquals(Bytes{}, Bytes{}));
}

TEST(BytesTest, AppendBytes) {
  Bytes dst = ToBytes("ab");
  AppendBytes(&dst, ToBytes("cd"));
  EXPECT_EQ(BytesToString(dst), "abcd");
}

TEST(BytesTest, Fnv1a64KnownValues) {
  // FNV-1a of empty input is the offset basis.
  EXPECT_EQ(Fnv1a64(Bytes{}), 0xcbf29ce484222325ull);
  // Differs for different content.
  EXPECT_NE(Fnv1a64(ToBytes("a")), Fnv1a64(ToBytes("b")));
  EXPECT_NE(Fnv1a64(ToBytes("ab")), Fnv1a64(ToBytes("ba")));
}

}  // namespace
}  // namespace sbft
