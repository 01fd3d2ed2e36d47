#include "crypto/sha256.h"

#include <gtest/gtest.h>

namespace sbft::crypto {
namespace {

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256::Hash("").ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::Hash("abc").ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  // NIST FIPS 180-4 example message (448 bits, forces padding into a
  // second block).
  EXPECT_EQ(Sha256::Hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").ToHex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, OneMillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(h.Finish().ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg =
      "the quick brown fox jumps over the lazy dog multiple times to cross "
      "block boundaries in interesting ways 0123456789";
  Digest oneshot = Sha256::Hash(msg);
  // Feed in awkward chunk sizes, each followed by an empty update (an
  // empty Bytes has a null data pointer), which must change nothing.
  for (size_t chunk : {1u, 3u, 7u, 31u, 63u, 64u, 65u, 100u}) {
    Sha256 h;
    size_t pos = 0;
    while (pos < msg.size()) {
      size_t take = std::min(chunk, msg.size() - pos);
      h.Update(msg.substr(pos, take));
      h.Update(Bytes{});
      pos += take;
    }
    EXPECT_EQ(h.Finish(), oneshot) << "chunk size " << chunk;
  }
}

TEST(Sha256Test, ExactBlockBoundaries) {
  // 55, 56, 64 bytes hit the padding edge cases.
  std::string m55(55, 'x'), m56(56, 'x'), m64(64, 'x');
  EXPECT_NE(Sha256::Hash(m55), Sha256::Hash(m56));
  EXPECT_NE(Sha256::Hash(m56), Sha256::Hash(m64));
  // Deterministic.
  EXPECT_EQ(Sha256::Hash(m64), Sha256::Hash(m64));
}

TEST(Sha256Test, SingleBitChangesDigest) {
  Bytes a = ToBytes("serverless-edge");
  Bytes b = a;
  b[0] ^= 1;
  EXPECT_NE(Sha256::Hash(a), Sha256::Hash(b));
}

TEST(DigestTest, DefaultIsZero) {
  Digest d;
  for (uint8_t byte : d.bytes()) EXPECT_EQ(byte, 0);
  EXPECT_EQ(d.ToHex(), std::string(64, '0'));
}

TEST(DigestTest, ShortHexIsPrefix) {
  Digest d = Sha256::Hash("x");
  EXPECT_EQ(d.ShortHex(), d.ToHex().substr(0, 8));
}

TEST(DigestTest, OrderingAndEquality) {
  Digest a = Sha256::Hash("a");
  Digest b = Sha256::Hash("b");
  EXPECT_NE(a, b);
  EXPECT_TRUE(a < b || b < a);
  Digest a2 = Sha256::Hash("a");
  EXPECT_EQ(a, a2);
}

TEST(DigestTest, HashFunctorDistinguishes) {
  DigestHash hasher;
  EXPECT_NE(hasher(Sha256::Hash("p")), hasher(Sha256::Hash("q")));
}

}  // namespace
}  // namespace sbft::crypto
