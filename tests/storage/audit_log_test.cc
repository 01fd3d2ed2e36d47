#include "storage/audit_log.h"

#include <gtest/gtest.h>

#include "crypto/sha256.h"

namespace sbft::storage {
namespace {

crypto::Digest D(const char* s) { return crypto::Sha256::Hash(s); }

TEST(AuditLogTest, StartsEmpty) {
  AuditLog log;
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.head(), crypto::Digest());
  EXPECT_TRUE(log.VerifyChain());
}

TEST(AuditLogTest, AppendAndFind) {
  AuditLog log;
  ASSERT_TRUE(log.Append(1, D("t1"), D("r1"), AuditLog::Outcome::kApplied, 100)
                  .ok());
  ASSERT_TRUE(log.Append(2, D("t2"), D("r2"), AuditLog::Outcome::kAborted, 200)
                  .ok());
  EXPECT_EQ(log.size(), 2u);
  auto e = log.Find(2);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->outcome, AuditLog::Outcome::kAborted);
  EXPECT_EQ(e->applied_at, 200);
  EXPECT_FALSE(log.Find(3).has_value());
}

TEST(AuditLogTest, RejectsOutOfOrderSequence) {
  AuditLog log;
  ASSERT_TRUE(
      log.Append(5, D("a"), D("r"), AuditLog::Outcome::kApplied, 1).ok());
  EXPECT_TRUE(log.Append(5, D("b"), D("r"), AuditLog::Outcome::kApplied, 2)
                  .IsInvalidArgument());
  EXPECT_TRUE(log.Append(4, D("c"), D("r"), AuditLog::Outcome::kApplied, 3)
                  .IsInvalidArgument());
  // Gaps are allowed (aborted sequences still advance k_max).
  EXPECT_TRUE(
      log.Append(9, D("d"), D("r"), AuditLog::Outcome::kApplied, 4).ok());
}

TEST(AuditLogTest, ChainVerifies) {
  AuditLog log;
  for (SeqNum s = 1; s <= 20; ++s) {
    ASSERT_TRUE(log.Append(s, D("txn"), D("result"),
                           AuditLog::Outcome::kApplied, s * 10)
                    .ok());
  }
  EXPECT_TRUE(log.VerifyChain());
}

TEST(AuditLogTest, TamperingDetected) {
  AuditLog log;
  for (SeqNum s = 1; s <= 5; ++s) {
    ASSERT_TRUE(
        log.Append(s, D("txn"), D("r"), AuditLog::Outcome::kApplied, s).ok());
  }
  // Simulate retroactive tampering through a copy with a mutated entry.
  AuditLog tampered = log;
  auto& entries = const_cast<std::deque<AuditLog::Entry>&>(tampered.entries());
  entries[2].outcome = AuditLog::Outcome::kAborted;
  EXPECT_FALSE(tampered.VerifyChain());
  EXPECT_TRUE(log.VerifyChain());
}

TEST(AuditLogTest, HeadChangesPerAppend) {
  AuditLog log;
  crypto::Digest h0 = log.head();
  log.Append(1, D("a"), D("r"), AuditLog::Outcome::kApplied, 1).ok();
  crypto::Digest h1 = log.head();
  log.Append(2, D("b"), D("r"), AuditLog::Outcome::kApplied, 2).ok();
  crypto::Digest h2 = log.head();
  EXPECT_NE(h0, h1);
  EXPECT_NE(h1, h2);
}

}  // namespace
}  // namespace sbft::storage
