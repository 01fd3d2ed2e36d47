#include "crypto/keys.h"

#include <gtest/gtest.h>

namespace sbft::crypto {
namespace {

class KeysTestP : public ::testing::TestWithParam<CryptoMode> {
 protected:
  KeysTestP() : registry_(GetParam(), /*seed=*/7) {
    for (ActorId id = 0; id < 4; ++id) registry_.RegisterNode(id);
  }
  KeyRegistry registry_;
};

TEST_P(KeysTestP, SignVerifyRoundTrip) {
  Bytes msg = ToBytes("commit view=0 seq=1");
  Bytes sig = registry_.Sign(0, msg);
  EXPECT_TRUE(registry_.Verify(0, msg, sig));
}

TEST_P(KeysTestP, VerifyRejectsWrongSigner) {
  Bytes msg = ToBytes("commit");
  Bytes sig = registry_.Sign(0, msg);
  EXPECT_FALSE(registry_.Verify(1, msg, sig));
}

TEST_P(KeysTestP, VerifyRejectsTamperedMessage) {
  Bytes msg = ToBytes("commit");
  Bytes sig = registry_.Sign(2, msg);
  EXPECT_FALSE(registry_.Verify(2, ToBytes("c0mmit"), sig));
}

TEST_P(KeysTestP, VerifyRejectsTamperedSignature) {
  Bytes msg = ToBytes("commit");
  Bytes sig = registry_.Sign(2, msg);
  sig[0] ^= 0x01;
  EXPECT_FALSE(registry_.Verify(2, msg, sig));
}

TEST_P(KeysTestP, VerifyUnknownSignerFails) {
  Bytes msg = ToBytes("x");
  Bytes sig = registry_.Sign(0, msg);
  EXPECT_FALSE(registry_.Verify(99, msg, sig));
}

TEST_P(KeysTestP, SignIsDeterministic) {
  Bytes msg = ToBytes("replay");
  EXPECT_EQ(registry_.Sign(3, msg), registry_.Sign(3, msg));
}

TEST_P(KeysTestP, DistinctSignersProduceDistinctSignatures) {
  Bytes msg = ToBytes("same message");
  EXPECT_NE(registry_.Sign(0, msg), registry_.Sign(1, msg));
}

TEST_P(KeysTestP, RegisterIsIdempotent) {
  Bytes msg = ToBytes("stable");
  Bytes before = registry_.Sign(0, msg);
  registry_.RegisterNode(0);
  EXPECT_EQ(registry_.Sign(0, msg), before);
}

TEST_P(KeysTestP, UnregisterDropsOnlyThatActor) {
  Bytes msg = ToBytes("retired");
  Bytes sig = registry_.Sign(3, msg);
  Bytes other = registry_.Sign(2, msg);
  registry_.Unregister(3);
  EXPECT_FALSE(registry_.IsRegistered(3));
  EXPECT_EQ(registry_.size(), 3u);
  EXPECT_FALSE(registry_.Verify(3, msg, sig));
  EXPECT_TRUE(registry_.Verify(2, msg, other));
}

TEST_P(KeysTestP, KeysIndependentOfRegistrationOrder) {
  // Keys are a pure function of (seed, id): a serial registry and a
  // concurrent one that registers in the opposite order agree on every
  // signature.
  KeyRegistry a(GetParam(), /*seed=*/11);
  KeyRegistry b(GetParam(), /*seed=*/11);
  b.EnableConcurrent();
  for (ActorId id = 0; id < 8; ++id) a.RegisterNode(id);
  for (ActorId id = 8; id-- > 0;) b.RegisterNode(id);
  Bytes msg = ToBytes("order");
  for (ActorId id = 0; id < 8; ++id) {
    EXPECT_EQ(a.Sign(id, msg), b.Sign(id, msg)) << "signer " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, KeysTestP,
                         ::testing::Values(CryptoMode::kFast,
                                           CryptoMode::kNone),
                         [](const auto& info) {
                           switch (info.param) {
                             case CryptoMode::kFast:
                               return "Fast";
                             case CryptoMode::kNone:
                               return "None";
                           }
                           return "?";
                         });

TEST(KeysTest, IsRegistered) {
  KeyRegistry registry(CryptoMode::kFast);
  EXPECT_FALSE(registry.IsRegistered(5));
  registry.RegisterNode(5);
  EXPECT_TRUE(registry.IsRegistered(5));
}

TEST(KeysDeathTest, SignByUnknownActorAbortsNamingIt) {
  // Checked in every build type, not only where assert() is live.
  KeyRegistry registry(CryptoMode::kFast);
  registry.RegisterNode(5);
  EXPECT_DEATH(registry.Sign(4242, ToBytes("m")),
               "actor 4242 is not registered");
  registry.Unregister(5);
  EXPECT_DEATH(registry.Sign(5, ToBytes("m")), "actor 5 is not registered");
  KeyRegistry concurrent(CryptoMode::kNone);
  concurrent.EnableConcurrent();
  EXPECT_DEATH(concurrent.Sign(77, ToBytes("m")),
               "actor 77 is not registered");
}

TEST(KeysTest, DifferentSeedsDifferentKeys) {
  KeyRegistry r1(CryptoMode::kFast, 1);
  KeyRegistry r2(CryptoMode::kFast, 2);
  r1.RegisterNode(0);
  r2.RegisterNode(0);
  Bytes msg = ToBytes("m");
  EXPECT_NE(r1.Sign(0, msg), r2.Sign(0, msg));
}

}  // namespace
}  // namespace sbft::crypto
