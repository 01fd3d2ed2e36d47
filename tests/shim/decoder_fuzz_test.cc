// Deterministic fuzzing of every DecodeFrom in the tree: the transaction,
// batch and read-write set, whose encodings are signed or hashed. Each
// decoder is fed every truncation of a valid encoding, then seeded
// mutations of it: bit flips, byte overwrites, inserted bytes and cuts.
// Every input must come back as a Status without throwing, and a decode
// that succeeds must re-encode to exactly the bytes it consumed, so no
// two inputs decode to the same value: the encoding is injective.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <exception>
#include <string>

#include "common/codec.h"
#include "common/rng.h"
#include "storage/rw_set.h"
#include "workload/transaction.h"

namespace sbft {
namespace {

constexpr int kInputsPerDecoder = 100'000;

/// Bytes a mutation writes or inserts: the varint, flag and op-type edges
/// half of the time, any byte otherwise.
uint8_t MutationByte(Rng& rng) {
  static constexpr uint8_t kEdges[] = {0x00, 0x01, 0x02, 0x7f, 0x80, 0xff};
  if (rng.Bernoulli(0.5)) return kEdges[rng.Uniform(sizeof(kEdges))];
  return static_cast<uint8_t>(rng.Uniform(256));
}

/// Applies one to four random mutations to `buf`.
void Mutate(Bytes* buf, Rng& rng) {
  const uint64_t count = 1 + rng.Uniform(4);
  for (uint64_t m = 0; m < count; ++m) {
    const size_t pos = buf->empty() ? 0 : rng.Uniform(buf->size());
    switch (rng.Uniform(4)) {
      case 0:  // Bit flip.
        if (!buf->empty()) {
          (*buf)[pos] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
        }
        break;
      case 1:  // Byte overwrite.
        if (!buf->empty()) (*buf)[pos] = MutationByte(rng);
        break;
      case 2: {  // Inserted bytes.
        const uint64_t n = 1 + rng.Uniform(4);
        for (uint64_t i = 0; i < n; ++i) {
          buf->insert(buf->begin() + static_cast<std::ptrdiff_t>(pos),
                      MutationByte(rng));
        }
        break;
      }
      default: {  // Cut: a range removed.
        const size_t len = 1 + rng.Uniform(8);
        const size_t end = std::min(buf->size(), pos + len);
        buf->erase(buf->begin() + static_cast<std::ptrdiff_t>(pos),
                   buf->begin() + static_cast<std::ptrdiff_t>(end));
        break;
      }
    }
  }
}

/// Runs kInputsPerDecoder inputs derived from `valid`'s encoding through
/// T::DecodeFrom and reports the first input that breaks a property.
template <typename T>
void FuzzDecoder(const T& valid, uint64_t seed) {
  Encoder enc;
  valid.EncodeTo(&enc);
  const Bytes encoding = enc.TakeBuffer();
  int accepted = 0;
  std::string failure;
  auto check = [&](const Bytes& input) {
    Decoder dec(input);
    T out;
    try {
      if (!T::DecodeFrom(&dec, &out).ok()) return;
      ++accepted;
      const size_t consumed = input.size() - dec.remaining();
      Encoder again;
      out.EncodeTo(&again);
      if (again.buffer() != Bytes(input.begin(), input.begin() + consumed)) {
        failure = "decoded " + std::to_string(consumed) +
                  " bytes that re-encode to " +
                  std::to_string(again.buffer().size()) + " other bytes: " +
                  HexEncode(input);
      }
    } catch (const std::exception& e) {
      failure = std::string("threw ") + e.what() + " on " + HexEncode(input);
    }
  };

  int inputs = 0;
  for (size_t len = 0; len <= encoding.size() && failure.empty(); ++len) {
    check(Bytes(encoding.begin(), encoding.begin() + len));
    ++inputs;
  }
  Rng rng(seed);
  for (; inputs < kInputsPerDecoder && failure.empty(); ++inputs) {
    Bytes input = encoding;
    Mutate(&input, rng);
    check(input);
  }
  EXPECT_EQ(failure, "") << "after " << inputs << " inputs";
  // The unmutated encoding and its mutations that stay well-formed decode.
  EXPECT_GT(accepted, 1);
}

workload::Transaction MakeTxn(TxnId id) {
  workload::Transaction txn;
  txn.id = id;
  txn.client = 1000 + static_cast<ActorId>(id % 4);
  txn.floor = id - 1;
  workload::Operation read;
  read.type = workload::OpType::kRead;
  read.key = "user" + std::to_string(id * 7);
  workload::Operation write;
  write.type = workload::OpType::kWrite;
  write.key = "user" + std::to_string(id * 11);
  write.value = ToBytes("value-" + std::to_string(id));
  workload::Operation compute;
  compute.type = workload::OpType::kCompute;
  compute.compute_cost = 250;
  txn.ops = {read, write, compute};
  return txn;
}

workload::Transaction MakeFragment() {
  workload::Transaction txn = MakeTxn(300);
  txn.global_id = {1001, 77};
  txn.coordinator = 890000;
  return txn;
}

workload::TransactionBatch MakeBatch() {
  workload::TransactionBatch batch;
  batch.txns = {workload::ShareTxn(MakeTxn(1)),
                workload::ShareTxn(MakeFragment()),
                workload::ShareTxn(MakeTxn(130))};
  return batch;
}

TEST(DecoderFuzzTest, Transaction) { FuzzDecoder(MakeFragment(), 1); }

TEST(DecoderFuzzTest, TransactionBatch) { FuzzDecoder(MakeBatch(), 2); }

TEST(DecoderFuzzTest, RwSet) {
  storage::RwSet rw;
  rw.reads = {{"user7", 3}, {"user8", 1u << 20}};
  rw.writes = {{"user9", ToBytes("v")}, {"user10", Bytes(140, 0x01)}};
  FuzzDecoder(rw, 3);
}

}  // namespace
}  // namespace sbft
