#include "workload/transaction.h"

#include <gtest/gtest.h>

#include "storage/rw_set.h"

namespace sbft::workload {
namespace {

Transaction MakeTxn() {
  Transaction txn;
  txn.id = 42;
  txn.client = 7;
  txn.rw_sets_known = true;
  Operation read;
  read.type = OpType::kRead;
  read.key = "user1";
  Operation write;
  write.type = OpType::kWrite;
  write.key = "user2";
  write.value = ToBytes("payload");
  Operation compute;
  compute.type = OpType::kCompute;
  compute.compute_cost = Millis(3);
  txn.ops = {read, write, compute};
  return txn;
}

// A value is compared by its bytes, not its buffer: transactions and
// write sets built apart from equal bytes are equal, which the verifier's
// vote match relies on.
TEST(TransactionTest, EqualBytesInDistinctBuffersCompareEqual) {
  Transaction a = MakeTxn();
  Transaction b = MakeTxn();
  ASSERT_NE(a.ops[1].value.data(), b.ops[1].value.data());
  EXPECT_EQ(a.ops, b.ops);
  b.ops[1].value = ToBytes("payloae");
  EXPECT_NE(a.ops, b.ops);

  storage::RwSet x;
  storage::RwSet y;
  x.writes.push_back({"user2", a.ops[1].value});
  y.writes.push_back({"user2", ToBytes("payload")});
  EXPECT_EQ(x, y);
  y.writes[0].value = ToBytes("payloae");
  EXPECT_NE(x, y);
}

TEST(TransactionTest, KeyExtraction) {
  Transaction txn = MakeTxn();
  EXPECT_EQ(txn.ReadKeys(), (std::vector<std::string>{"user1"}));
  EXPECT_EQ(txn.WriteKeys(), (std::vector<std::string>{"user2"}));
}

TEST(TransactionTest, ComputeCostSums) {
  Transaction txn = MakeTxn();
  Operation extra;
  extra.type = OpType::kCompute;
  extra.compute_cost = Millis(2);
  txn.ops.push_back(extra);
  EXPECT_EQ(txn.ComputeCost(), Millis(5));
}

TEST(TransactionTest, EncodeDecodeRoundTrip) {
  Transaction txn = MakeTxn();
  Encoder enc;
  txn.EncodeTo(&enc);
  Decoder dec(enc.buffer());
  Transaction parsed;
  ASSERT_TRUE(Transaction::DecodeFrom(&dec, &parsed).ok());
  EXPECT_EQ(parsed.id, txn.id);
  EXPECT_EQ(parsed.client, txn.client);
  EXPECT_EQ(parsed.rw_sets_known, txn.rw_sets_known);
  ASSERT_EQ(parsed.ops.size(), 3u);
  EXPECT_EQ(parsed.ops[0], txn.ops[0]);
  EXPECT_EQ(parsed.ops[1], txn.ops[1]);
  EXPECT_EQ(parsed.ops[2], txn.ops[2]);
  EXPECT_EQ(parsed.Hash(), txn.Hash());
}

TEST(TransactionTest, DecodeRejectsBadOpType) {
  Transaction txn = MakeTxn();
  Encoder enc;
  txn.EncodeTo(&enc);
  Bytes wire = enc.TakeBuffer();
  // Op type byte of the first op: after id(8) + client(4) + bool(1) +
  // varint op count(1).
  wire[14] = 99;
  Decoder dec(wire);
  Transaction parsed;
  EXPECT_FALSE(Transaction::DecodeFrom(&dec, &parsed).ok());
}

TEST(TransactionTest, DecodeRejectsHostileOpCount) {
  // A valid fixed head, then an op count of 2^62 with no op behind it.
  Encoder enc;
  enc.PutU64(42);
  enc.PutU32(7);
  enc.PutU8(1);
  enc.PutVarint(1);
  enc.PutVarint(uint64_t{1} << 62);
  Decoder dec(enc.buffer());
  Transaction parsed;
  EXPECT_TRUE(Transaction::DecodeFrom(&dec, &parsed).IsCorruption());
}

TEST(TransactionTest, HashChangesWithContent) {
  Transaction a = MakeTxn();
  Transaction b = MakeTxn();
  b.id = 43;
  EXPECT_NE(a.Hash(), b.Hash());
}

TEST(TransactionTest, ConflictDetection) {
  Transaction writer;  // writes user5
  Operation w;
  w.type = OpType::kWrite;
  w.key = "user5";
  writer.ops = {w};

  Transaction reader;  // reads user5
  Operation r;
  r.type = OpType::kRead;
  r.key = "user5";
  reader.ops = {r};

  Transaction other;  // reads user6
  Operation r2;
  r2.type = OpType::kRead;
  r2.key = "user6";
  other.ops = {r2};

  EXPECT_TRUE(Transaction::Conflicts(writer, reader));
  EXPECT_TRUE(Transaction::Conflicts(reader, writer));  // Symmetric.
  EXPECT_TRUE(Transaction::Conflicts(writer, writer));  // Write-write.
  EXPECT_FALSE(Transaction::Conflicts(reader, other));
  EXPECT_FALSE(Transaction::Conflicts(reader, reader));  // Read-read.
}

TEST(TransactionBatchTest, RoundTripAndHash) {
  TransactionBatch batch;
  for (int i = 0; i < 5; ++i) {
    Transaction t = MakeTxn();
    t.id = i;
    batch.txns.push_back(ShareTxn(t));
  }
  Encoder enc;
  batch.EncodeTo(&enc);
  Decoder dec(enc.buffer());
  TransactionBatch parsed;
  ASSERT_TRUE(TransactionBatch::DecodeFrom(&dec, &parsed).ok());
  EXPECT_EQ(parsed.size(), 5u);
  EXPECT_EQ(parsed.Hash(), batch.Hash());
  EXPECT_EQ(parsed.WireSize(), batch.WireSize());
  // The memoised size is the encoding's, and a counting pass adds it.
  EXPECT_EQ(batch.WireSize(), enc.size());
  EXPECT_EQ(EncodedSize(batch), enc.size());
}

TEST(TransactionBatchTest, DecodeRejectsHostileCount) {
  // A 9-byte buffer: a transaction count of 2^62 and nothing else.
  Encoder enc;
  enc.PutVarint(uint64_t{1} << 62);
  ASSERT_EQ(enc.size(), 9u);
  Decoder dec(enc.buffer());
  TransactionBatch parsed;
  EXPECT_TRUE(TransactionBatch::DecodeFrom(&dec, &parsed).IsCorruption());
}

TEST(TransactionBatchTest, EmptyBatch) {
  TransactionBatch batch;
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.TotalComputeCost(), 0);
  // An empty batch still has a stable digest (used for gap filling).
  EXPECT_EQ(batch.Hash(), TransactionBatch{}.Hash());
}

TEST(TransactionBatchTest, TotalComputeCost) {
  TransactionBatch batch;
  batch.txns.push_back(ShareTxn(MakeTxn()));
  batch.txns.push_back(ShareTxn(MakeTxn()));
  EXPECT_EQ(batch.TotalComputeCost(), Millis(6));
}

}  // namespace
}  // namespace sbft::workload
