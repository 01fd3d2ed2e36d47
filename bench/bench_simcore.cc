// Wall-clock microbenchmarks of the simulator core, the message pipeline
// (the counting pass that sizes every send, and a consensus round's
// digests and signatures) and the substrates under them (crypto, codec,
// store, workload generator), plus the CI regression gate. Messages
// travel as shared pointers and are never parsed, so no case times a
// message parse. The figure benches and bench/e2e measure simulated
// time; this measures how fast the host pushes the engine's building
// blocks.
//
//   ./build/bench/bench_simcore                         # full run
//   ./build/bench/bench_simcore --quick                 # CI smoke scale
//   ./build/bench/bench_simcore --bench cert            # name filter
//   ./build/bench/bench_simcore --json out.json --label L   # report
//   ./build/bench/bench_simcore --baseline bench/ci_baseline.json
//       --max-regress 0.2                               # gate mode
//
// Every case is deterministic: sizes scale with --scale and all
// randomness comes from --seed, so two runs on one machine differ only
// by scheduler noise, which the best of --reps repetitions controls.
// Gate mode compares every `"gate": true` entry of the baseline file
// against the measured throughput and exits non-zero when any of them
// falls more than --max-regress (default 20%) below it.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/codec.h"
#include "common/rng.h"
#include "crypto/certificate.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "shim/message.h"
#include "sim/actor.h"
#include "sim/network.h"
#include "sim/parallel.h"
#include "sim/region.h"
#include "sim/simulator.h"
#include "storage/kv_store.h"
#include "workload/transaction.h"
#include "workload/ycsb.h"

namespace sbft::bench {
namespace {

struct Options {
  /// Multiplies every case's size; --quick (CI) uses 0.15.
  double scale = 1.0;
  int reps = 3;
  uint64_t seed = 2023;
  /// When non-empty, only cases whose name contains it run.
  std::string filter;
  /// Worker threads of parallel_event_churn; 0 = hardware concurrency.
  int threads = 0;
};

int ResolveThreads(int threads) {
  if (threads > 0) return threads;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

uint64_t Scaled(const Options& opt, double n) {
  return static_cast<uint64_t>(n * opt.scale);
}

double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Optimisation barrier: the empty asm claims to read `v` and to clobber
/// memory, so `v` must be computed and every buffer re-read afterwards.
/// A timed loop can then neither drop the work that produced `v` nor
/// hoist it out of the loop.
template <typename T>
void Consume(const T& v) {
  asm volatile("" : : "r,m"(v) : "memory");
}

/// One repetition's clock. It starts before the case runs, and a case
/// restarts it once its set-up is done. A case ends with `return
/// clock.Stop(work);`, which stops the clock before the case's state is
/// torn down.
class RepClock {
 public:
  RepClock() { Start(); }
  void Start() { t0_ = NowSeconds(); }
  double Stop(double work) {
    seconds_ = NowSeconds() - t0_;
    return work;
  }
  double seconds() const { return seconds_; }

 private:
  double t0_ = 0;
  double seconds_ = 0;
};

/// One repetition of a case. Returns the work done, counted in the
/// numerator of the case's unit.
using RepFn = double (*)(const Options&, RepClock&);

struct Case {
  const char* name;
  const char* unit;
  /// Has a floor in bench/ci_baseline.json.
  bool gate;
  RepFn rep;
};

/// The fastest repetition of a case.
struct Result {
  const Case* bench = nullptr;
  double throughput = 0;
  double work = 0;
  double seconds = 0;
};

/// Runs `c` opt.reps times and keeps the fastest repetition.
Result BestOf(const Options& opt, const Case& c) {
  Result r{&c};
  for (int rep = 0; rep < opt.reps; ++rep) {
    RepClock clock;
    double work = c.rep(opt, clock);
    double dt = clock.seconds();
    if (work / dt > r.throughput) {
      r.throughput = work / dt;
      r.work = work;
      r.seconds = dt;
    }
  }
  return r;
}

/// A self-rescheduling timer: the common shape of protocol timers
/// (retransmit, view change, client timeout). Small capture so the
/// allocation-free scheduler keeps it inline.
struct ChurnTimer {
  sim::Simulator* sim;
  uint64_t* remaining;
  SimDuration stride;

  void operator()() const {
    if (*remaining == 0) return;
    --*remaining;
    sim->Schedule(stride, ChurnTimer{*this});
  }
};

/// Receiver that does nothing — isolates transport cost.
class SinkActor : public sim::Actor {
 public:
  explicit SinkActor(ActorId id) : Actor(id, "sink-" + std::to_string(id)) {}
  void OnMessage(const sim::Envelope&) override {}
};

workload::TransactionBatch MakeBatch(size_t txns, uint64_t seed) {
  Rng rng(seed);
  workload::TransactionBatch batch;
  batch.txns.reserve(txns);
  for (size_t i = 0; i < txns; ++i) {
    workload::Transaction t;
    t.id = static_cast<TxnId>(i + 1);
    t.client = static_cast<ActorId>(1000 + (i % 64));
    workload::Operation read;
    read.type = workload::OpType::kRead;
    read.key = "user" + std::to_string(rng.Uniform(600000));
    t.ops.push_back(std::move(read));
    workload::Operation write;
    write.type = workload::OpType::kWrite;
    write.key = "user" + std::to_string(rng.Uniform(600000));
    write.value = Bytes(100, static_cast<uint8_t>(i));
    t.ops.push_back(std::move(write));
    batch.txns.push_back(workload::ShareTxn(std::move(t)));
  }
  return batch;
}

/// Event churn: 256 interleaved self-rescheduling timers firing through
/// the scheduler. Exercises Schedule + heap push/pop + closure dispatch —
/// the simulator's innermost loop.
double EventChurn(const Options& opt, RepClock& clock) {
  sim::Simulator sim(opt.seed);
  uint64_t remaining = Scaled(opt, 2'000'000);
  clock.Start();
  for (uint64_t k = 0; k < 256; ++k) {
    SimDuration stride = Micros(1 + (k * 2654435761u) % 997);
    sim.Schedule(stride, ChurnTimer{&sim, &remaining, stride});
  }
  sim.RunToCompletion();
  return clock.Stop(sim.events_executed());
}

/// Cancel storm: batches of events are scheduled and two thirds cancelled
/// before firing — the §V timer pattern (every committed request cancels
/// its retransmit and view-change timers). Counts schedules plus cancels.
double CancelStorm(const Options& opt, RepClock& clock) {
  const uint64_t total = Scaled(opt, 1'500'000);
  const uint64_t kBatch = 4096;
  sim::Simulator sim(opt.seed);
  uint64_t fired = 0;
  uint64_t ops = 0;
  std::vector<sim::EventId> ids;
  ids.reserve(kBatch);
  clock.Start();
  for (uint64_t scheduled = 0; scheduled < total; scheduled += kBatch) {
    ids.clear();
    for (uint64_t i = 0; i < kBatch; ++i) {
      ids.push_back(sim.Schedule(Micros(1 + i % 128), [&fired]() { ++fired; }));
    }
    for (uint64_t i = 0; i < kBatch; ++i) {
      if (i % 3 != 0) {
        sim.Cancel(ids[i]);
        ++ops;
      }
    }
    sim.RunToCompletion();
    ops += kBatch;
  }
  return clock.Stop(ops);
}

/// Broadcast fan-out: one sender broadcasting PREPARE-sized messages to 64
/// receivers across 4 regions — the PBFT all-to-all amplified by
/// fault-injection duplication rules on a quarter of the links.
double BroadcastFanout(const Options& opt, RepClock& clock) {
  const uint64_t rounds = Scaled(opt, 18'000);
  const uint64_t kReceivers = 64;
  sim::Simulator sim(opt.seed);
  sim::Network net(&sim, sim::RegionTable::Aws11(), sim::NetworkConfig{});
  SinkActor sender(1);
  net.Register(&sender, 0);
  std::vector<std::unique_ptr<SinkActor>> sinks;
  std::vector<ActorId> targets;
  for (uint64_t i = 0; i < kReceivers; ++i) {
    ActorId id = static_cast<ActorId>(10 + i);
    sinks.push_back(std::make_unique<SinkActor>(id));
    net.Register(sinks.back().get(), static_cast<sim::RegionId>(i % 4));
    targets.push_back(id);
    if (i % 4 == 0) {
      sim::LinkRule rule;
      rule.duplicate_probability = 0.05;
      rule.extra_delay = Micros(50);
      net.SetLinkRule(1, id, rule);
    }
  }
  auto msg = std::make_shared<shim::PrepareMsg>(1);
  msg->view = 3;
  msg->seq = 12345;
  clock.Start();
  const size_t wire = msg->WireSize();
  for (uint64_t round = 0; round < rounds; ++round) {
    net.Broadcast(1, targets, msg, wire);
    if (round % 64 == 63) sim.RunToCompletion();
  }
  sim.RunToCompletion();
  return clock.Stop(net.messages_delivered());
}

/// Digest-heavy PBFT rounds at n = 8: per round, the proposer digests a
/// new 100-txn batch, a PREPREPARE and seven PREPAREs are sized, the
/// seven backups sign their COMMITs and the spawner signs the EXECUTE —
/// the crypto and codec work one consensus instance does in a run.
double DigestRounds(const Options& opt, RepClock& clock) {
  const uint64_t rounds = Scaled(opt, 2'500);
  workload::BatchPtr batch = workload::ShareBatch(MakeBatch(100, opt.seed));
  crypto::KeyRegistry keys(crypto::CryptoMode::kFast, opt.seed);
  for (ActorId id = 1; id <= 8; ++id) keys.RegisterNode(id);
  clock.Start();
  uint64_t sink = 0;
  for (uint64_t round = 0; round < rounds; ++round) {
    // What TransactionBatch::Hash() computes before it memoises: the
    // shared batch's own Hash() would be memoised from round 1 on.
    crypto::Digest digest;
    {
      ScratchEncoder enc;
      batch->EncodeTo(&enc.enc());
      digest = crypto::Sha256::Hash(enc->buffer());
    }
    auto pp = std::make_shared<shim::PrePrepareMsg>(1);
    pp->view = 1;
    pp->seq = round;
    pp->batch = batch;
    pp->digest = digest;
    sink += pp->WireSize();
    for (ActorId node = 2; node <= 8; ++node) {
      auto prep = std::make_shared<shim::PrepareMsg>(node);
      prep->view = 1;
      prep->seq = round;
      prep->digest = digest;
      sink += prep->WireSize();
      sink += keys.Sign(node, crypto::CommitSigningBytes(1, round, digest))[0];
    }
    sink += keys.Sign(1, shim::ExecuteMsg::SigningBytes(1, round, digest))[0];
  }
  Consume(sink);
  return clock.Stop(rounds);
}

/// Message sizing: WireSize() of seven messages a transaction's trip
/// through a plane sends — a 4-op CLIENT_REQUEST, a 2-transaction
/// PREPREPARE, EXECUTE and VERIFY (with rw sets), a PREPARE, a COMMIT and
/// a RESPONSE. Every send pays one such counting pass; a batch inside
/// adds its memoised size. Counted in messages sized.
double WireSizing(const Options& opt, RepClock& clock) {
  const uint64_t rounds = Scaled(opt, 1'000'000);
  workload::BatchPtr batch = workload::ShareBatch(MakeBatch(2, opt.seed));
  const crypto::Digest digest = batch->Hash();
  crypto::KeyRegistry keys(crypto::CryptoMode::kFast, opt.seed);
  crypto::CommitCertificate cert;
  cert.view = 1;
  cert.seq = 7;
  cert.digest = digest;
  const Bytes signing = crypto::CommitSigningBytes(1, 7, digest);
  for (ActorId id = 1; id <= 3; ++id) {
    keys.RegisterNode(id);
    cert.signatures.push_back({id, keys.Sign(id, signing)});
  }
  const Bytes ds = cert.signatures[0].sig;

  auto request = std::make_shared<shim::ClientRequestMsg>(1000);
  request->txn.id = 42;
  request->txn.client = 1000;
  request->txn.floor = 41;
  for (const workload::TxnPtr& t : batch->txns) {
    request->txn.ops.insert(request->txn.ops.end(), t->ops.begin(),
                            t->ops.end());
  }
  request->client_sig = ds;

  auto preprepare = std::make_shared<shim::PrePrepareMsg>(1);
  preprepare->view = 1;
  preprepare->seq = 7;
  preprepare->batch = batch;
  preprepare->digest = digest;

  auto execute = std::make_shared<shim::ExecuteMsg>(1);
  execute->view = 1;
  execute->seq = 7;
  execute->batch = batch;
  execute->digest = digest;
  execute->cert = std::make_shared<const crypto::CommitCertificate>(cert);
  execute->spawner_sig = ds;

  auto prepare = std::make_shared<shim::PrepareMsg>(2);
  prepare->view = 1;
  prepare->seq = 7;
  prepare->digest = digest;

  auto commit = std::make_shared<shim::CommitMsg>(2);
  commit->view = 1;
  commit->seq = 7;
  commit->digest = digest;
  commit->ds = ds;

  auto verify = std::make_shared<shim::VerifyMsg>(500);
  verify->view = 1;
  verify->seq = 7;
  verify->batch_digest = digest;
  verify->cert = execute->cert;
  for (const workload::TxnPtr& t : batch->txns) {
    storage::RwSet rw;
    for (const workload::Operation& op : t->ops) {
      if (op.type == workload::OpType::kRead) {
        rw.reads.push_back({op.key, 3});
      } else {
        rw.writes.push_back({op.key, op.value});
      }
    }
    verify->txn_rws.push_back(std::move(rw));
    verify->txn_refs.push_back(
        {t->id, t->client, t->id - 1, {}, kInvalidActor});
  }
  verify->result = ToBytes("ok");
  verify->executor_sig = ds;

  auto response = std::make_shared<shim::ResponseMsg>(600);
  response->txn_id = 42;
  response->client = 1000;
  response->seq = 7;
  response->batch_digest = digest;
  response->result = ToBytes("ok");

  const std::vector<shim::MessagePtr> msgs = {
      request, preprepare, execute, prepare, commit, verify, response};
  clock.Start();
  for (uint64_t round = 0; round < rounds; ++round) {
    for (const shim::MessagePtr& m : msgs) Consume(m->WireSize());
  }
  return clock.Stop(static_cast<double>(rounds * msgs.size()));
}

/// Vote-certificate round: the work a run does for each kShardVoteCert.
/// A shard verifier puts 8 signed shares into a ShardVoteCertMsg and
/// sizes it with WireSize(); the coordinator runs VoteCertificate::Validate
/// on it, which checks every share's kFast signature.
double CertAggregate(const Options& opt, RepClock& clock) {
  const uint64_t total = Scaled(opt, 50'000);
  const size_t kShares = 8;
  crypto::KeyRegistry keys(crypto::CryptoMode::kFast, opt.seed);
  std::vector<crypto::VoteShare> pool;
  for (size_t i = 0; i < kShares; ++i) {
    ActorId signer = static_cast<ActorId>(100 + i);
    keys.RegisterNode(signer);
    crypto::VoteShare share;
    share.global_id = 1000 + i;
    share.client = 1000000;
    share.shard = static_cast<uint32_t>(i);
    share.seq = 7;
    share.commit = true;
    share.signer = signer;
    share.sig = keys.Sign(signer, crypto::VoteSigningBytes(
                                      share.gid(), share.shard, 7, true));
    pool.push_back(std::move(share));
  }
  clock.Start();
  for (uint64_t i = 0; i < total; ++i) {
    auto msg = std::make_shared<shim::ShardVoteCertMsg>(100);
    msg->cert.shares.assign(pool.begin(), pool.end());
    Consume(msg->WireSize());
    if (!msg->cert.Validate(keys).ok()) std::abort();
  }
  return clock.Stop(total);
}

/// Commit-certificate validation at a quorum of `quorum` signatures
/// (2f+1 of n = 4, 32 and 128), kFast signatures: the check every
/// executor and the verifier run on each certificate they receive. A
/// certificate of quorum q carries q signatures, so each case validates
/// 400,000 / q certificates and checks about 400,000 signatures.
double CertValidate(const Options& opt, RepClock& clock, size_t quorum) {
  const uint64_t total = Scaled(opt, 400'000.0 / static_cast<double>(quorum));
  crypto::KeyRegistry keys(crypto::CryptoMode::kFast, opt.seed);
  crypto::CommitCertificate cert;
  cert.view = 1;
  cert.seq = 5;
  cert.digest = crypto::Sha256::Hash("batch");
  Bytes signing = crypto::CommitSigningBytes(1, 5, cert.digest);
  for (ActorId id = 0; id < quorum; ++id) {
    keys.RegisterNode(id);
    cert.signatures.push_back({id, keys.Sign(id, signing)});
  }
  clock.Start();
  for (uint64_t i = 0; i < total; ++i) {
    if (!cert.Validate(keys, quorum).ok()) std::abort();
  }
  return clock.Stop(total);
}

/// The checkpoint's certificate-log root over the default 128-sequence
/// checkpoint interval.
double MerkleRoot(const Options& opt, RepClock& clock) {
  const uint64_t total = Scaled(opt, 1'300);
  std::vector<crypto::Digest> leaves;
  for (int i = 0; i < 128; ++i) {
    leaves.push_back(crypto::Sha256::Hash("leaf" + std::to_string(i)));
  }
  clock.Start();
  for (uint64_t i = 0; i < total; ++i) {
    Consume(crypto::MerkleTree::ComputeRoot(leaves));
  }
  return clock.Stop(total);
}

/// Varint encode and decode of 1000 values of mixed widths.
double VarintCodec(const Options& opt, RepClock& clock) {
  const uint64_t rounds = Scaled(opt, 1'500);
  Rng rng(opt.seed);
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; ++i) values.push_back(rng.NextU64() >> (i % 50));
  clock.Start();
  for (uint64_t round = 0; round < rounds; ++round) {
    Encoder enc;
    for (uint64_t v : values) enc.PutVarint(v);
    Decoder dec(enc.buffer());
    uint64_t out = 0;
    while (!dec.Done()) {
      if (!dec.GetVarint(&out).ok()) std::abort();
      Consume(out);
    }
  }
  return clock.Stop(rounds * values.size());
}

/// 100-B puts over 100k keys: inserts, then overwrites.
double KvPut(const Options& opt, RepClock& clock) {
  const uint64_t total = Scaled(opt, 200'000);
  storage::KvStore store;
  const SharedBytes value(Bytes(100, 'v'));
  clock.Start();
  for (uint64_t i = 0; i < total; ++i) {
    store.Put("user" + std::to_string(i % 100'000), value);
  }
  return clock.Stop(total);
}

/// Uniform gets over a loaded 100k-record YCSB table.
double KvGet(const Options& opt, RepClock& clock) {
  const uint64_t total = Scaled(opt, 800'000);
  storage::KvStore store;
  workload::YcsbConfig ycsb;
  ycsb.record_count = 100'000;
  workload::YcsbGenerator(ycsb, Rng(opt.seed)).LoadInto(&store);
  Rng rng(opt.seed + 1);
  storage::VersionedValue out;
  clock.Start();
  for (uint64_t i = 0; i < total; ++i) {
    std::string key = "user" + std::to_string(rng.Uniform(100'000));
    Consume(store.Get(key, &out).ok());
  }
  return clock.Stop(total);
}

/// YCSB transaction generation, zipf 0.99 over the paper's 600k records.
double YcsbNext(const Options& opt, RepClock& clock) {
  const uint64_t total = Scaled(opt, 100'000);
  workload::YcsbConfig config;
  config.record_count = 600'000;
  config.zipf_theta = 0.99;
  workload::YcsbGenerator gen(config, Rng(opt.seed));
  clock.Start();
  for (uint64_t i = 0; i < total; ++i) Consume(gen.Next(1));
  return clock.Stop(total);
}

/// Small-message HMAC: authenticator throughput for PREPARE-sized blobs.
double HmacSmall(const Options& opt, RepClock& clock) {
  const uint64_t total = Scaled(opt, 400'000);
  Bytes key(32, 0x5a);
  Bytes msg(256);
  for (size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<uint8_t>(i);
  clock.Start();
  for (uint64_t i = 0; i < total; ++i) {
    msg[0] = static_cast<uint8_t>(i);
    Consume(crypto::HmacSha256(key, msg).data()[0]);
  }
  return clock.Stop(total);
}

/// Streaming SHA-256 over a 4 MiB buffer — the checkpoint / audit-log
/// shape; counted in MB.
double Sha256Stream(const Options& opt, RepClock& clock) {
  const size_t kBufBytes = 4 << 20;
  const uint64_t passes = Scaled(opt, 24);
  Bytes buf(kBufBytes);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<uint8_t>(i);
  clock.Start();
  for (uint64_t p = 0; p < passes; ++p) {
    buf[0] = static_cast<uint8_t>(p);
    Consume(crypto::Sha256::Hash(buf).data()[0]);
  }
  return clock.Stop(static_cast<double>(passes) * kBufBytes / 1e6);
}

/// Parallel event churn: the event_churn workload sharded over 8 loops
/// under the conservative engine — 32 self-rescheduling timers per loop
/// plus a ring of cross-loop posts so the mailboxes and the window
/// protocol stay hot, not just the heaps. Events summed over all loops.
double ParallelEventChurn(const Options& opt, RepClock& clock) {
  constexpr int kLoops = 8;
  const uint64_t per_loop = Scaled(opt, 250'000);
  std::vector<std::unique_ptr<sim::Simulator>> sims;
  std::vector<sim::Simulator*> loops;
  for (int i = 0; i < kLoops; ++i) {
    sims.push_back(std::make_unique<sim::Simulator>(opt.seed + i));
    loops.push_back(sims.back().get());
  }
  sim::ParallelSimulator::Options popt;
  popt.threads = ResolveThreads(opt.threads);
  popt.lookahead = Micros(200);
  sim::ParallelSimulator psim(loops, popt);

  std::vector<uint64_t> remaining(kLoops, per_loop);
  for (int i = 0; i < kLoops; ++i) {
    for (uint64_t k = 0; k < 32; ++k) {
      SimDuration stride = Micros(1 + (k * 2654435761u) % 997);
      loops[i]->Schedule(stride, ChurnTimer{loops[i], &remaining[i], stride});
    }
  }
  // Ring traffic: each hop runs on the receiving loop and posts to the
  // next loop at the lookahead floor.
  struct RingHop {
    sim::ParallelSimulator* psim;
    uint64_t remaining;
    void Hop(int loop) {
      if (remaining-- == 0) return;
      int to = (loop + 1) % kLoops;
      psim->Post(to, psim->loop(loop)->now() + psim->lookahead(),
                 [this, to] { Hop(to); });
    }
  };
  RingHop ring{&psim, Scaled(opt, 20'000)};
  loops[0]->Schedule(0, [&ring] { ring.Hop(0); });

  clock.Start();
  psim.RunUntil(Seconds(3600));  // Terminates on exhaustion.
  uint64_t events = 0;
  for (const auto& sim : sims) events += sim->events_executed();
  return clock.Stop(events);
}

const Case kCases[] = {
    {"event_churn", "events/s", true, EventChurn},
    {"cancel_storm", "ops/s", true, CancelStorm},
    {"broadcast_fanout", "deliveries/s", true, BroadcastFanout},
    {"digest_rounds", "rounds/s", true, DigestRounds},
    {"wire_size", "msgs/s", false, WireSizing},
    {"cert_aggregate", "certs/s", false, CertAggregate},
    {"cert_validate_3", "certs/s", true,
     [](const Options& o, RepClock& c) { return CertValidate(o, c, 3); }},
    {"cert_validate_22", "certs/s", false,
     [](const Options& o, RepClock& c) { return CertValidate(o, c, 22); }},
    {"cert_validate_86", "certs/s", false,
     [](const Options& o, RepClock& c) { return CertValidate(o, c, 86); }},
    {"merkle_root", "roots/s", false, MerkleRoot},
    {"varint_codec", "values/s", false, VarintCodec},
    {"kv_put", "puts/s", false, KvPut},
    {"kv_get", "gets/s", false, KvGet},
    {"ycsb_next", "txns/s", false, YcsbNext},
    {"hmac_small", "macs/s", false, HmacSmall},
    {"sha256_stream", "MB/s", false, Sha256Stream},
    {"parallel_event_churn", "events/s", true, ParallelEventChurn},
};

/// Writes the results as an `sbft-bench-simcore-v1` document, the
/// format of bench/BENCH_*.json and of the gate's baseline.
bool WriteJson(const std::string& path, const std::string& label,
               const Options& opt, const std::vector<Result>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  char date[32];
  std::time_t now = std::time(nullptr);
  std::strftime(date, sizeof(date), "%Y-%m-%d", std::localtime(&now));
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"sbft-bench-simcore-v1\",\n");
  std::fprintf(f, "  \"date\": \"%s\",\n", date);
  std::fprintf(f, "  \"label\": \"%s\",\n", label.c_str());
  std::fprintf(f, "  \"scale\": %g,\n", opt.scale);
  std::fprintf(f, "  \"reps\": %d,\n", opt.reps);
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(opt.seed));
  // Host context for parallel_event_churn: the worker-thread count the
  // run resolved to and what the machine could have offered.
  std::fprintf(f, "  \"threads\": %d,\n", ResolveThreads(opt.threads));
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"unit\": \"%s\", "
                 "\"throughput\": %.1f, \"ops\": %.0f, \"seconds\": %.4f, "
                 "\"gate\": %s}%s\n",
                 r.bench->name, r.bench->unit, r.throughput, r.work,
                 r.seconds, r.bench->gate ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

struct BaselineEntry {
  std::string name;
  double throughput = 0;
  bool gate = false;
};

/// Minimal reader for the fields the gate needs: ("name", throughput,
/// gate) triples of a WriteJson-shaped document. Tolerant of
/// whitespace, intolerant of anything else.
std::vector<BaselineEntry> ReadBaseline(const std::string& path) {
  std::vector<BaselineEntry> entries;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return entries;
  std::string text;
  char chunk[4096];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    text.append(chunk, n);
  }
  std::fclose(f);
  size_t pos = 0;
  while ((pos = text.find("\"name\":", pos)) != std::string::npos) {
    size_t q1 = text.find('"', pos + 7);
    size_t q2 = q1 == std::string::npos ? q1 : text.find('"', q1 + 1);
    if (q2 == std::string::npos) break;
    BaselineEntry e;
    e.name = text.substr(q1 + 1, q2 - q1 - 1);
    // Both field lookups are bounded to this entry's closing brace so a
    // malformed entry cannot silently borrow the next entry's values; a
    // gated entry with no parsable throughput keeps throughput=0, which
    // the gate reports as a hard error.
    size_t end = text.find('}', q2);
    size_t tp = text.find("\"throughput\":", q2);
    if (tp != std::string::npos && end != std::string::npos && tp < end) {
      e.throughput = std::strtod(text.c_str() + tp + 13, nullptr);
    }
    size_t gp = text.find("\"gate\":", q2);
    if (gp != std::string::npos && end != std::string::npos && gp < end) {
      e.gate = text.compare(gp + 7, 5, " true") == 0 ||
               text.compare(gp + 7, 4, "true") == 0;
    }
    entries.push_back(std::move(e));
    pos = q2;
  }
  return entries;
}

/// Checks every gated baseline entry against `results`; prints one row
/// each and returns whether all passed.
bool Gate(const std::string& baseline_path, double max_regress,
          const std::vector<Result>& results) {
  std::vector<BaselineEntry> baseline = ReadBaseline(baseline_path);
  if (baseline.empty()) {
    std::fprintf(stderr, "no baseline entries in %s\n", baseline_path.c_str());
    return false;
  }
  std::printf("\nregression gate vs %s (max regress %.0f%%):\n",
              baseline_path.c_str(), max_regress * 100.0);
  bool ok = true;
  for (const BaselineEntry& b : baseline) {
    if (!b.gate) continue;
    if (b.throughput <= 0) {
      std::printf("  %-20s MALFORMED baseline entry (no throughput)\n",
                  b.name.c_str());
      ok = false;
      continue;
    }
    const Result* measured = nullptr;
    for (const Result& r : results) {
      if (b.name == r.bench->name) measured = &r;
    }
    if (measured == nullptr) {
      std::printf("  %-20s MISSING from this run\n", b.name.c_str());
      ok = false;
      continue;
    }
    double ratio = measured->throughput / b.throughput;
    bool pass = ratio >= 1.0 - max_regress;
    std::printf("  %-20s measured=%-12.0f baseline=%-12.0f ratio=%.2f %s\n",
                b.name.c_str(), measured->throughput, b.throughput, ratio,
                pass ? "ok" : "REGRESSED");
    ok = ok && pass;
  }
  std::printf("gate: %s\n", ok ? "passed" : "FAILED");
  return ok;
}

}  // namespace
}  // namespace sbft::bench

int main(int argc, char** argv) {
  using namespace sbft::bench;

  Options opt;
  std::string json_path;
  std::string baseline_path;
  std::string label = "manual";
  double max_regress = 0.2;

  auto usage = [] {
    std::fprintf(stderr,
                 "usage: bench_simcore [--quick] [--scale S] [--reps N] "
                 "[--seed N] [--threads N] [--bench SUBSTR] [--json FILE] "
                 "[--label L] [--baseline FILE] [--max-regress F]\n");
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      opt.scale = 0.15;
      opt.reps = 2;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (arg == "--scale") {
      opt.scale = std::strtod(v, nullptr);
    } else if (arg == "--reps") {
      opt.reps = std::atoi(v);
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--threads") {
      opt.threads = std::atoi(v);
    } else if (arg == "--bench") {
      opt.filter = v;
    } else if (arg == "--json") {
      json_path = v;
    } else if (arg == "--label") {
      label = v;
    } else if (arg == "--baseline") {
      baseline_path = v;
    } else if (arg == "--max-regress") {
      max_regress = std::strtod(v, nullptr);
    } else {
      return usage();
    }
  }

  std::vector<Result> results;
  std::printf("%-20s %16s %14s %10s\n", "benchmark", "throughput", "unit",
              "secs");
  for (const Case& c : kCases) {
    if (std::string(c.name).find(opt.filter) == std::string::npos) continue;
    results.push_back(BestOf(opt, c));
    const Result& r = results.back();
    std::printf("%-20s %16.0f %14s %10.3f\n", c.name, r.throughput, c.unit,
                r.seconds);
    std::fflush(stdout);
  }

  // The report is written before the gate can fail, so CI always has the
  // artifact to debug a red run from.
  if (!json_path.empty()) {
    if (!WriteJson(json_path, label, opt, results)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (!baseline_path.empty() && !Gate(baseline_path, max_regress, results)) {
    return 1;
  }
  return 0;
}
