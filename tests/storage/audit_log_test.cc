#include "storage/audit_log.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/sha256.h"

namespace sbft::storage {
namespace {

crypto::Digest D(const char* s) { return crypto::Sha256::Hash(s); }
crypto::Digest D(const std::string& s) { return crypto::Sha256::Hash(s); }

/// The retained entry with sequence `seq`, for a test to tamper with.
AuditLog::Entry& Retained(AuditLog& log, SeqNum seq) {
  auto& entries = const_cast<std::deque<AuditLog::Entry>&>(log.entries());
  for (AuditLog::Entry& e : entries) {
    if (e.seq == seq) return e;
  }
  ADD_FAILURE() << "seq " << seq << " not retained";
  return entries.front();
}

TEST(AuditLogTest, StartsEmpty) {
  AuditLog log;
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.head(), crypto::Digest());
  EXPECT_TRUE(log.VerifyChain());
}

TEST(AuditLogTest, AppendKeepsEntriesInOrder) {
  AuditLog log;
  ASSERT_TRUE(
      log.Append(1, D("t1"), D("r1"), AuditLog::Outcome::kApplied).ok());
  ASSERT_TRUE(
      log.Append(2, D("t2"), D("r2"), AuditLog::Outcome::kAborted).ok());
  EXPECT_EQ(log.size(), 2u);
  ASSERT_EQ(log.entries().size(), 2u);
  EXPECT_EQ(log.entries()[1].seq, 2u);
  EXPECT_EQ(log.entries()[1].txn_digest, D("t2"));
  EXPECT_EQ(log.entries()[1].outcome, AuditLog::Outcome::kAborted);
  EXPECT_EQ(log.head(), log.entries()[1].chain);
}

TEST(AuditLogTest, RejectsOutOfOrderSequence) {
  AuditLog log;
  ASSERT_TRUE(log.Append(5, D("a"), D("r"), AuditLog::Outcome::kApplied).ok());
  EXPECT_TRUE(log.Append(5, D("b"), D("r"), AuditLog::Outcome::kApplied)
                  .IsInvalidArgument());
  EXPECT_TRUE(log.Append(4, D("c"), D("r"), AuditLog::Outcome::kApplied)
                  .IsInvalidArgument());
  // Gaps are allowed (aborted sequences still advance k_max).
  EXPECT_TRUE(log.Append(9, D("d"), D("r"), AuditLog::Outcome::kApplied).ok());
  EXPECT_EQ(log.size(), 2u);
}

TEST(AuditLogTest, ChainVerifies) {
  AuditLog log;
  for (SeqNum s = 1; s <= 20; ++s) {
    ASSERT_TRUE(
        log.Append(s, D("txn"), D("result"), AuditLog::Outcome::kApplied)
            .ok());
  }
  EXPECT_TRUE(log.VerifyChain());
}

TEST(AuditLogTest, TamperingDetected) {
  AuditLog log;
  for (SeqNum s = 1; s <= 5; ++s) {
    ASSERT_TRUE(log.Append(s, D("txn"), D("r"), AuditLog::Outcome::kApplied)
                    .ok());
  }
  // Simulate retroactive tampering through a copy with a mutated entry.
  AuditLog tampered = log;
  Retained(tampered, 3).outcome = AuditLog::Outcome::kAborted;
  EXPECT_FALSE(tampered.VerifyChain());
  EXPECT_TRUE(log.VerifyChain());
}

TEST(AuditLogTest, HeadChangesPerAppend) {
  AuditLog log;
  crypto::Digest h0 = log.head();
  log.Append(1, D("a"), D("r"), AuditLog::Outcome::kApplied).ok();
  crypto::Digest h1 = log.head();
  log.Append(2, D("b"), D("r"), AuditLog::Outcome::kApplied).ok();
  crypto::Digest h2 = log.head();
  EXPECT_NE(h0, h1);
  EXPECT_NE(h1, h2);
}

// Over thousands of appends the log holds a fixed suffix, while size(),
// head(), VerifyChain() and the sink still cover the whole history.
TEST(AuditLogTest, SuffixStaysBoundedAndSinkCarriesTheHistory) {
  constexpr SeqNum kAppends = 3000;
  AuditLog log;
  std::vector<AuditLog::Entry> sunk;
  log.set_sink([&sunk](const AuditLog::Entry& e) { sunk.push_back(e); });
  for (SeqNum s = 1; s <= kAppends; ++s) {
    ASSERT_TRUE(log.Append(s, D("txn" + std::to_string(s)),
                           D("r" + std::to_string(s % 7)),
                           s % 5 == 0 ? AuditLog::Outcome::kAborted
                                      : AuditLog::Outcome::kApplied)
                    .ok());
    ASSERT_LE(log.entries().size(), AuditLog::kRetained);
    ASSERT_EQ(log.size(), s);
  }
  EXPECT_EQ(log.entries().size(), AuditLog::kRetained);
  EXPECT_EQ(log.entries().front().seq, kAppends - AuditLog::kRetained + 1);
  EXPECT_TRUE(log.VerifyChain());

  // The sink saw every entry, in order, and its chain replays to head().
  ASSERT_EQ(sunk.size(), kAppends);
  AuditLog replay;
  for (size_t i = 0; i < sunk.size(); ++i) {
    const AuditLog::Entry& e = sunk[i];
    ASSERT_EQ(e.seq, i + 1);
    ASSERT_TRUE(
        replay.Append(e.seq, e.txn_digest, e.result_digest, e.outcome).ok());
    ASSERT_EQ(replay.head(), e.chain) << "seq " << e.seq;
  }
  EXPECT_EQ(replay.head(), log.head());
  // The retained suffix is the sink's tail.
  for (size_t i = 0; i < log.entries().size(); ++i) {
    const AuditLog::Entry& sink_entry =
        sunk[kAppends - AuditLog::kRetained + i];
    EXPECT_EQ(log.entries()[i].seq, sink_entry.seq);
    EXPECT_EQ(log.entries()[i].chain, sink_entry.chain);
  }
}

// A tampered entry fails VerifyChain() while retained, and still fails
// once it has left the suffix: eviction checks its link and latches.
TEST(AuditLogTest, TamperingDetectedBeforeAndAfterEviction) {
  struct Tamper {
    const char* name;
    void (*apply)(AuditLog::Entry&);
  };
  const Tamper tampers[] = {
      {"outcome",
       [](AuditLog::Entry& e) { e.outcome = AuditLog::Outcome::kAborted; }},
      {"txn digest", [](AuditLog::Entry& e) { e.txn_digest = D("forged"); }},
      {"chain", [](AuditLog::Entry& e) { e.chain = D("forged"); }},
  };
  for (const Tamper& tamper : tampers) {
    SCOPED_TRACE(tamper.name);
    AuditLog log;
    SeqNum s = 1;
    auto append = [&](size_t n) {
      for (size_t i = 0; i < n; ++i, ++s) {
        ASSERT_TRUE(log.Append(s, D("txn" + std::to_string(s)), D("r"),
                               AuditLog::Outcome::kApplied)
                        .ok());
      }
    };
    append(3 * AuditLog::kRetained);  // The anchor has moved.
    ASSERT_TRUE(log.VerifyChain());
    const SeqNum victim = log.entries()[AuditLog::kRetained / 2].seq;
    tamper.apply(Retained(log, victim));
    EXPECT_FALSE(log.VerifyChain()) << "retained";

    append(2 * AuditLog::kRetained);  // The victim is evicted.
    ASSERT_GT(log.entries().front().seq, victim);
    EXPECT_FALSE(log.VerifyChain()) << "evicted";
    EXPECT_EQ(log.size(), 5 * AuditLog::kRetained);
  }
}

TEST(AuditLogTest, UntamperedEvictionKeepsTheChainVerified) {
  AuditLog log;
  for (SeqNum s = 1; s <= 10 * AuditLog::kRetained; ++s) {
    ASSERT_TRUE(log.Append(s, D("txn"), D("r"), AuditLog::Outcome::kApplied)
                    .ok());
    if (s % AuditLog::kRetained == 0) {
      ASSERT_TRUE(log.VerifyChain()) << "after seq " << s;
    }
  }
}

}  // namespace
}  // namespace sbft::storage
