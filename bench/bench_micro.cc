// Wall-clock microbenchmarks (google-benchmark) for the substrates: the
// from-scratch crypto, the codec, the store, and the event loop. These
// are real-time measurements, unlike the figure benches which measure
// simulated time.

#include <benchmark/benchmark.h>

#include "common/codec.h"
#include "common/rng.h"
#include "crypto/certificate.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "crypto/merkle.h"
#include "crypto/schnorr.h"
#include "crypto/sha256.h"
#include "sim/simulator.h"
#include "storage/kv_store.h"
#include "workload/ycsb.h"

namespace {

using namespace sbft;
using namespace sbft::crypto;

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  Bytes key = ToBytes("0123456789abcdef0123456789abcdef");
  Bytes data(static_cast<size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha256(key, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(256)->Arg(4096);

void BM_SchnorrSign(benchmark::State& state) {
  const SchnorrGroup& group = SchnorrGroup::Small();
  Rng rng(1);
  SchnorrKeyPair kp = SchnorrGenerateKey(group, &rng);
  Bytes msg = ToBytes("commit view=1 seq=42 digest=...");
  for (auto _ : state) {
    benchmark::DoNotOptimize(SchnorrSign(group, kp.secret, msg));
  }
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  const SchnorrGroup& group = SchnorrGroup::Small();
  Rng rng(1);
  SchnorrKeyPair kp = SchnorrGenerateKey(group, &rng);
  Bytes msg = ToBytes("commit view=1 seq=42 digest=...");
  SchnorrSignature sig = SchnorrSign(group, kp.secret, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SchnorrVerify(group, kp.public_key, msg, sig));
  }
}
BENCHMARK(BM_SchnorrVerify);

void BM_CertificateValidate(benchmark::State& state) {
  KeyRegistry keys(CryptoMode::kFast, 1);
  size_t quorum = static_cast<size_t>(state.range(0));
  for (ActorId id = 0; id < quorum; ++id) keys.RegisterNode(id);
  CommitCertificate cert;
  cert.view = 1;
  cert.seq = 5;
  cert.digest = Sha256::Hash("batch");
  Bytes signing = CommitSigningBytes(1, 5, cert.digest);
  for (ActorId id = 0; id < quorum; ++id) {
    cert.signatures.push_back({id, keys.Sign(id, signing)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cert.Validate(keys, quorum).ok());
  }
}
BENCHMARK(BM_CertificateValidate)->Arg(3)->Arg(22)->Arg(86);  // 2f+1 of 4/32/128.

void BM_MerkleRoot(benchmark::State& state) {
  std::vector<Digest> leaves;
  for (int i = 0; i < state.range(0); ++i) {
    leaves.push_back(Sha256::Hash("leaf" + std::to_string(i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerkleTree::ComputeRoot(leaves));
  }
}
BENCHMARK(BM_MerkleRoot)->Arg(128)->Arg(1024);

void BM_CodecVarintRoundTrip(benchmark::State& state) {
  Rng rng(3);
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; ++i) values.push_back(rng.NextU64() >> (i % 50));
  for (auto _ : state) {
    Encoder enc;
    for (uint64_t v : values) enc.PutVarint(v);
    Decoder dec(enc.buffer());
    uint64_t out = 0;
    while (!dec.Done()) {
      dec.GetVarint(&out).ok();
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CodecVarintRoundTrip);

void BM_KvStorePut(benchmark::State& state) {
  storage::KvStore store;
  Rng rng(4);
  Bytes value(100, 'v');
  uint64_t i = 0;
  for (auto _ : state) {
    store.Put("user" + std::to_string(i++ % 100000), value);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvStorePut);

void BM_KvStoreGet(benchmark::State& state) {
  storage::KvStore store;
  workload::YcsbConfig ycsb;
  ycsb.record_count = 100000;
  workload::YcsbGenerator(ycsb, Rng(1)).LoadInto(&store);
  Rng rng(5);
  storage::VersionedValue out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.Get("user" + std::to_string(rng.Uniform(100000)), &out).ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvStoreGet);

void BM_SimulatorEventLoop(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim(1);
    int counter = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.Schedule(i, [&counter]() { ++counter; });
    }
    sim.RunToCompletion();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventLoop);

void BM_YcsbGenerate(benchmark::State& state) {
  workload::YcsbConfig config;
  config.record_count = 600000;
  config.zipf_theta = 0.99;
  workload::YcsbGenerator gen(config, Rng(6));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next(1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_YcsbGenerate);

void BM_TransactionBatchHash(benchmark::State& state) {
  workload::YcsbConfig config;
  config.record_count = 600000;
  workload::YcsbGenerator gen(config, Rng(7));
  workload::TransactionBatch batch;
  for (int i = 0; i < 100; ++i) batch.txns.push_back(gen.Next(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(batch.Hash());
  }
}
BENCHMARK(BM_TransactionBatchHash);

}  // namespace

BENCHMARK_MAIN();
