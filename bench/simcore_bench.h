#ifndef SBFT_BENCH_SIMCORE_BENCH_H_
#define SBFT_BENCH_SIMCORE_BENCH_H_

// Simulator-core / message-pipeline microbenchmark suite. Unlike the
// figure benches (simulated-time measurements), these are *wall-clock*
// measurements of the engine itself: how many simulated events, network
// deliveries, and message digests the host CPU can push per real second.
// The suite is shared by bench_simcore (interactive / CI-gate CLI) and
// tools/bench_report (BENCH_<date>.json trajectory emitter), so both
// always run the exact same workloads.
//
// Workloads are fully deterministic: sizes come from the options, all
// randomness is derived from the fixed seed, so two runs on the same
// machine differ only by scheduler noise (controlled with --reps best-of).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/architecture.h"
#include "core/experiment.h"
#include "faults/controller.h"
#include "faults/schedule.h"
#include "crypto/certificate.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "shim/message.h"
#include "shim/wire_format.h"
#include "sim/actor.h"
#include "sim/network.h"
#include "sim/parallel.h"
#include "sim/region.h"
#include "sim/simulator.h"
#include "workload/transaction.h"

namespace sbft::bench {

struct SimcoreBenchOptions {
  /// Multiplies every workload size; 1.0 is the committed-baseline scale,
  /// CI smoke runs use ~0.15.
  double scale = 1.0;
  /// Best-of repetitions per benchmark (wall-clock noise control).
  int reps = 3;
  uint64_t seed = 2023;
  /// When non-empty, only benchmarks whose name contains this substring run.
  std::string filter;
  /// Worker threads for the parallel_* benches; 0 = hardware concurrency.
  /// Results of the parallel engine are thread-count independent, only
  /// the wall clock moves.
  int threads = 0;
};

/// The thread count a `threads` option value actually resolves to.
inline int ResolveBenchThreads(int threads) {
  if (threads > 0) return threads;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

struct SimcoreBenchResult {
  std::string name;
  std::string unit;        ///< What `throughput` counts per second.
  double throughput = 0;   ///< Best over reps.
  uint64_t ops = 0;        ///< Operations per repetition.
  double seconds = 0;      ///< Wall seconds of the best repetition.
  bool gate = false;       ///< Participates in the CI regression gate.
};

namespace simcore_internal {

inline double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Optimisation barrier: the empty asm claims to read `v` and to clobber
/// memory, so `v` must be computed and every buffer re-read afterwards.
/// A timed loop can then neither drop the work that produced `v` nor
/// hoist it out of the loop.
template <typename T>
inline void Consume(const T& v) {
  asm volatile("" : : "r,m"(v) : "memory");
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
  SinkActor(ActorId id) : Actor(id, "sink-" + std::to_string(id)) {}
  void OnMessage(const sim::Envelope&) override { ++received_; }
  uint64_t received() const { return received_; }

 private:
  uint64_t received_ = 0;
};

inline workload::TransactionBatch MakeBatch(size_t txns, uint64_t seed) {
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
    write.value.assign(100, static_cast<uint8_t>(i));
    t.ops.push_back(std::move(write));
    batch.txns.push_back(std::move(t));
  }
  return batch;
}

/// Event churn: 256 interleaved self-rescheduling timers firing `total`
/// events through the scheduler. Exercises Schedule + heap push/pop +
/// closure dispatch — the simulator's innermost loop.
inline SimcoreBenchResult BenchEventChurn(const SimcoreBenchOptions& opt) {
  const uint64_t total = static_cast<uint64_t>(2'000'000 * opt.scale);
  SimcoreBenchResult r{"event_churn", "events/s"};
  r.ops = total;
  r.gate = true;
  for (int rep = 0; rep < opt.reps; ++rep) {
    sim::Simulator sim(opt.seed);
    uint64_t remaining = total;
    double t0 = NowSeconds();
    for (uint64_t k = 0; k < 256; ++k) {
      SimDuration stride = Micros(1 + (k * 2654435761u) % 997);
      sim.Schedule(stride, ChurnTimer{&sim, &remaining, stride});
    }
    sim.RunToCompletion();
    double dt = NowSeconds() - t0;
    double tput = static_cast<double>(sim.events_executed()) / dt;
    if (tput > r.throughput) {
      r.throughput = tput;
      r.seconds = dt;
    }
  }
  return r;
}

/// Cancel storm: batches of events are scheduled and two thirds cancelled
/// before firing — the §V timer pattern (every committed request cancels
/// its retransmit and view-change timers).
inline SimcoreBenchResult BenchCancelStorm(const SimcoreBenchOptions& opt) {
  const uint64_t total = static_cast<uint64_t>(1'500'000 * opt.scale);
  const uint64_t kBatch = 4096;
  SimcoreBenchResult r{"cancel_storm", "ops/s"};
  r.gate = true;
  for (int rep = 0; rep < opt.reps; ++rep) {
    sim::Simulator sim(opt.seed);
    uint64_t fired = 0;
    uint64_t ops = 0;
    std::vector<sim::EventId> ids;
    ids.reserve(kBatch);
    double t0 = NowSeconds();
    for (uint64_t scheduled = 0; scheduled < total; scheduled += kBatch) {
      ids.clear();
      for (uint64_t i = 0; i < kBatch; ++i) {
        ids.push_back(
            sim.Schedule(Micros(1 + i % 128), [&fired]() { ++fired; }));
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
    double dt = NowSeconds() - t0;
    double tput = static_cast<double>(ops) / dt;
    if (tput > r.throughput) {
      r.throughput = tput;
      r.seconds = dt;
      r.ops = ops;
    }
  }
  return r;
}

/// Broadcast fan-out: one sender broadcasting PREPARE-sized messages to 64
/// receivers across 4 regions — the PBFT all-to-all amplified by
/// fault-injection duplication rules on a quarter of the links.
inline SimcoreBenchResult BenchBroadcastFanout(const SimcoreBenchOptions& opt) {
  const uint64_t rounds = static_cast<uint64_t>(18'000 * opt.scale);
  const uint64_t kReceivers = 64;
  SimcoreBenchResult r{"broadcast_fanout", "deliveries/s"};
  r.gate = true;
  for (int rep = 0; rep < opt.reps; ++rep) {
    sim::Simulator sim(opt.seed);
    sim::RegionTable regions = sim::RegionTable::Aws11();
    sim::NetworkConfig config;
    sim::Network net(&sim, regions, config);

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
    double t0 = NowSeconds();
    const size_t wire = msg->WireSize();
    for (uint64_t round = 0; round < rounds; ++round) {
      net.Broadcast(1, targets, msg, wire);
      if (round % 64 == 63) sim.RunToCompletion();
    }
    sim.RunToCompletion();
    double dt = NowSeconds() - t0;
    double tput = static_cast<double>(net.messages_delivered()) / dt;
    if (tput > r.throughput) {
      r.throughput = tput;
      r.seconds = dt;
      r.ops = net.messages_delivered();
    }
  }
  return r;
}

/// Digest-heavy PBFT rounds: per round, a 100-txn batch is digested, a
/// PREPREPARE is sized, 7 PREPAREs and COMMIT signing bytes are produced,
/// and 8 pairwise MACs are computed — the crypto/codec work of one
/// consensus instance at n=8.
inline SimcoreBenchResult BenchDigestRounds(const SimcoreBenchOptions& opt) {
  const uint64_t rounds = static_cast<uint64_t>(2'500 * opt.scale);
  SimcoreBenchResult r{"digest_rounds", "rounds/s"};
  r.gate = true;
  workload::BatchPtr batch = workload::ShareBatch(MakeBatch(100, opt.seed));
  crypto::KeyRegistry keys(crypto::CryptoMode::kFast, opt.seed);
  for (ActorId id = 1; id <= 9; ++id) keys.RegisterNode(id);
  for (int rep = 0; rep < opt.reps; ++rep) {
    uint64_t sink = 0;
    double t0 = NowSeconds();
    for (uint64_t round = 0; round < rounds; ++round) {
      auto pp = std::make_shared<shim::PrePrepareMsg>(1);
      pp->view = 1;
      pp->seq = round;
      pp->batch = batch;
      pp->digest = pp->batch->Hash();
      sink += pp->WireSize();
      for (ActorId node = 2; node <= 8; ++node) {
        auto prep = std::make_shared<shim::PrepareMsg>(node);
        prep->view = 1;
        prep->seq = round;
        prep->digest = pp->digest;
        sink += prep->WireSize();
        Bytes signing =
            shim::ExecuteMsg::SigningBytes(1, round, pp->digest);
        sink += keys.Mac(node, 9, signing).data()[0];
      }
      sink += keys.Mac(1, 9, pp->Serialized()).data()[0];
    }
    double dt = NowSeconds() - t0;
    double tput = static_cast<double>(rounds) / dt;
    if (tput > r.throughput) {
      r.throughput = tput;
      r.seconds = dt;
      r.ops = rounds + sink * 0;  // Keep `sink` live without printing it.
    }
  }
  return r;
}

/// Zero-copy wire parsing: packed-header messages are serialized once,
/// then re-parsed as bounds-and-kind-checked views (wire::TryFrom) with
/// every header field read back. This is the receive-path cost the
/// packed wire layer replaced the decoder round-trip with — a parse is
/// a pointer check plus shift-based field loads, no allocation. Each
/// parse's fields go through Consume, so the optimiser can neither drop
/// a parse nor hoist it out of the loop.
inline SimcoreBenchResult BenchWireParse(const SimcoreBenchOptions& opt) {
  // ~40 ms per rep at scale 1, long enough to average over timer
  // granularity and CPU frequency steps.
  const uint64_t total = static_cast<uint64_t>(40'000'000 * opt.scale);
  SimcoreBenchResult r{"wire_parse", "parses/s"};
  r.ops = total;
  shim::PrepareMsg prepare(3);
  prepare.view = 7;
  prepare.seq = 12345;
  prepare.digest = crypto::Sha256::Hash("wire-parse");
  const Bytes prepare_bytes = prepare.Serialized();
  shim::ShardCommitDecisionMsg decision(9);
  decision.global_id = 424242;
  decision.commit = true;
  const Bytes decision_bytes = decision.Serialized();
  for (int rep = 0; rep < opt.reps; ++rep) {
    double t0 = NowSeconds();
    for (uint64_t i = 0; i < total; i += 2) {
      const auto* p = shim::wire::TryFrom<shim::wire::PrepareHeader>(
          prepare_bytes, shim::MsgKind::kPrepare);
      Consume(p->view.get() + p->seq.get() + p->hdr.sender.get() +
              p->digest.data()[0]);
      const auto* d =
          shim::wire::TryFrom<shim::wire::ShardCommitDecisionHeader>(
              decision_bytes, shim::MsgKind::kShardCommitDecision);
      Consume(d->global_id.get() + d->hdr.sender.get() +
              static_cast<uint64_t>(d->commit.get()));
    }
    double dt = NowSeconds() - t0;
    double tput = static_cast<double>(total) / dt;
    if (tput > r.throughput) {
      r.throughput = tput;
      r.seconds = dt;
    }
  }
  return r;
}

/// Certificate aggregation: assemble an 8-share VoteCertificate from
/// pre-signed shares and run it through the wire (EncodeTo + DecodeFrom)
/// — the coordinator-side cost of the share-based vote transport,
/// signature verification excluded (that is batch_verify below).
inline SimcoreBenchResult BenchCertAggregate(const SimcoreBenchOptions& opt) {
  const uint64_t total = static_cast<uint64_t>(120'000 * opt.scale);
  const size_t kShares = 8;
  SimcoreBenchResult r{"cert_aggregate", "certs/s"};
  r.ops = total;
  crypto::KeyRegistry keys(crypto::CryptoMode::kFast, opt.seed);
  std::vector<crypto::VoteShare> pool;
  for (size_t i = 0; i < kShares; ++i) {
    ActorId signer = static_cast<ActorId>(100 + i);
    keys.RegisterNode(signer);
    crypto::VoteShare share;
    share.global_id = 1000 + i;
    share.shard = static_cast<uint32_t>(i);
    share.seq = 7;
    share.commit = true;
    share.signer = signer;
    share.sig = keys.Sign(signer, crypto::VoteSigningBytes(share.global_id,
                                                           share.shard, 7,
                                                           true));
    pool.push_back(std::move(share));
  }
  for (int rep = 0; rep < opt.reps; ++rep) {
    uint64_t sink = 0;
    double t0 = NowSeconds();
    for (uint64_t i = 0; i < total; ++i) {
      crypto::VoteCertificate cert;
      cert.shares.assign(pool.begin(), pool.end());
      cert.shares[i % kShares].global_id = 1000 + (i % kShares);
      Encoder enc;
      cert.EncodeTo(&enc);
      Decoder dec(enc.buffer());
      crypto::VoteCertificate parsed;
      if (!crypto::VoteCertificate::DecodeFrom(&dec, &parsed).ok()) {
        std::abort();
      }
      sink += parsed.shares.size() + parsed.shares[0].sig.size();
    }
    double dt = NowSeconds() - t0;
    double tput = static_cast<double>(total) / dt + sink * 0.0;
    if (tput > r.throughput) {
      r.throughput = tput;
      r.seconds = dt;
    }
  }
  return r;
}

/// Schnorr batch verification: 8-signature batches through
/// KeyRegistry::BatchVerify in kReal mode — the single random-linear-
/// combination multi-exponentiation pass that replaces 8 independent
/// verifications (DESIGN.md §8). Reported in signatures/s so it compares
/// directly against sequential verification throughput.
inline SimcoreBenchResult BenchBatchVerify(const SimcoreBenchOptions& opt) {
  const uint64_t batches = static_cast<uint64_t>(600 * opt.scale);
  const size_t kBatchSigs = 8;
  SimcoreBenchResult r{"batch_verify", "sigs/s"};
  r.ops = batches * kBatchSigs;
  crypto::KeyRegistry keys(crypto::CryptoMode::kReal, opt.seed);
  std::vector<Bytes> msgs;
  std::vector<Bytes> sigs;
  for (size_t i = 0; i < kBatchSigs; ++i) {
    ActorId signer = static_cast<ActorId>(100 + i);
    keys.RegisterNode(signer);
    msgs.push_back(crypto::VoteSigningBytes(1000 + i,
                                            static_cast<uint32_t>(i), 7,
                                            true));
    sigs.push_back(keys.Sign(signer, msgs.back()));
  }
  std::vector<crypto::KeyRegistry::BatchItem> items;
  for (size_t i = 0; i < kBatchSigs; ++i) {
    items.push_back({static_cast<ActorId>(100 + i), &msgs[i], &sigs[i]});
  }
  for (int rep = 0; rep < opt.reps; ++rep) {
    uint64_t sink = 0;
    double t0 = NowSeconds();
    for (uint64_t b = 0; b < batches; ++b) {
      if (!keys.BatchVerify(items)) std::abort();
      ++sink;
    }
    double dt = NowSeconds() - t0;
    double tput = static_cast<double>(batches * kBatchSigs) / dt + sink * 0.0;
    if (tput > r.throughput) {
      r.throughput = tput;
      r.seconds = dt;
    }
  }
  return r;
}

/// Small-message HMAC: authenticator throughput for PREPARE-sized blobs.
inline SimcoreBenchResult BenchHmacSmall(const SimcoreBenchOptions& opt) {
  const uint64_t total = static_cast<uint64_t>(400'000 * opt.scale);
  SimcoreBenchResult r{"hmac_small", "macs/s"};
  r.ops = total;
  Bytes key(32, 0x5a);
  Bytes msg(256);
  for (size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<uint8_t>(i);
  for (int rep = 0; rep < opt.reps; ++rep) {
    uint64_t sink = 0;
    double t0 = NowSeconds();
    for (uint64_t i = 0; i < total; ++i) {
      msg[0] = static_cast<uint8_t>(i);
      sink += crypto::HmacSha256(key, msg).data()[0];
    }
    double dt = NowSeconds() - t0;
    double tput = static_cast<double>(total) / dt + sink * 0.0;
    if (tput > r.throughput) {
      r.throughput = tput;
      r.seconds = dt;
    }
  }
  return r;
}

/// Streaming SHA-256 over a 4 MiB buffer — the checkpoint / audit-log
/// shape; reported in MB/s.
inline SimcoreBenchResult BenchSha256Stream(const SimcoreBenchOptions& opt) {
  const size_t kBufBytes = 4 << 20;
  const uint64_t passes = static_cast<uint64_t>(24 * opt.scale);
  SimcoreBenchResult r{"sha256_stream", "MB/s"};
  r.ops = passes;
  Bytes buf(kBufBytes);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<uint8_t>(i);
  for (int rep = 0; rep < opt.reps; ++rep) {
    uint64_t sink = 0;
    double t0 = NowSeconds();
    for (uint64_t p = 0; p < passes; ++p) {
      buf[0] = static_cast<uint8_t>(p);
      sink += crypto::Sha256::Hash(buf).data()[0];
    }
    double dt = NowSeconds() - t0;
    double mbs = static_cast<double>(passes) *
                     (static_cast<double>(kBufBytes) / 1e6) / dt +
                 sink * 0.0;
    if (mbs > r.throughput) {
      r.throughput = mbs;
      r.seconds = dt;
    }
  }
  return r;
}

/// Cross-shard commit: a full 2-shard architecture (two shim clusters,
/// verifiers, executor pools behind the ShardRouter) with half the YCSB
/// transactions forced cross-shard, i.e. through the coordinator's
/// 2PC-over-BFT path. Reports *settled client transactions per wall
/// second* — the end-to-end engine throughput of the sharded data plane,
/// gating the PREPARE-vote/decision machinery against structural
/// regressions.
inline SimcoreBenchResult BenchCrossShardCommitAt(
    const SimcoreBenchOptions& opt, const char* name, uint32_t shards,
    bool gate) {
  const SimDuration sim_window =
      static_cast<SimDuration>(Seconds(2.0) * opt.scale);
  SimcoreBenchResult r{name, "txns/s"};
  r.gate = gate;
  for (int rep = 0; rep < opt.reps; ++rep) {
    core::SystemConfig config;
    config.shard_count = shards;
    config.shim.n = 4;
    config.shim.batch_size = 2;
    config.n_e = 3;
    config.f_e = 1;
    config.num_clients = 8;
    config.workload.record_count = 2000;
    config.workload.cross_shard_percentage = 50.0;
    config.crypto_mode = crypto::CryptoMode::kFast;
    config.seed = opt.seed;
    core::Architecture arch(config);
    arch.Start();
    double t0 = NowSeconds();
    arch.simulator()->RunUntil(sim_window);
    double dt = NowSeconds() - t0;
    uint64_t settled = arch.TotalCompleted() + arch.TotalAborted();
    double tput = static_cast<double>(settled) / dt;
    if (tput > r.throughput) {
      r.throughput = tput;
      r.seconds = dt;
      r.ops = settled;
    }
  }
  return r;
}

/// Cross-shard commit: a full 2-shard architecture with half the YCSB
/// transactions forced through the coordinator's 2PC-over-BFT path
/// (workload identical to the committed ci_baseline entry).
inline SimcoreBenchResult BenchCrossShardCommit(
    const SimcoreBenchOptions& opt) {
  return BenchCrossShardCommitAt(opt, "cross_shard_commit", 2,
                                 /*gate=*/true);
}

/// Shard-count trajectory point: the same cross-shard workload on 4
/// planes. Not gated — it exists so BENCH_*.json carries the
/// multi-pipeline scaling across PRs.
inline SimcoreBenchResult BenchCrossShardCommit4s(
    const SimcoreBenchOptions& opt) {
  return BenchCrossShardCommitAt(opt, "cross_shard_commit_4s", 4,
                                 /*gate=*/false);
}

/// Open-loop saturation points: the small open-loop deployment from
/// bench_fig11_saturation run at fixed offered rates bracketing its
/// goodput knee (~8k tps). Unlike the wall-clock benches above, the
/// reported throughput is *simulated-time* goodput — fully deterministic
/// for a given seed, so the gated below-knee point holds a tight floor:
/// a drop means the sources stopped realizing their configured rate or
/// the commit path sheds work it used to absorb, never measurement
/// noise. The past-knee point is ungated; it rides BENCH_*.json so the
/// trajectory carries the knee shape (goodput collapse under overload)
/// across PRs.
inline SimcoreBenchResult BenchOpenLoopGoodputAt(
    const SimcoreBenchOptions& opt, const char* name, double offered_tps,
    bool gate) {
  SimcoreBenchResult r{name, "txns/s"};
  r.gate = gate;
  core::SystemConfig config;
  config.shim.n = 4;
  config.shim.batch_size = 2;
  config.shim.checkpoint_interval = 8;
  config.n_e = 3;
  config.f_e = 1;
  config.workload.record_count = 1000;
  config.crypto_mode = crypto::CryptoMode::kFast;
  config.seed = opt.seed;
  config.traffic.open_loop = true;
  config.traffic.sources = 2;
  config.traffic.offered_tps = offered_tps;
  config.traffic.retry_timeout = Millis(400);
  config.traffic.retry_inflight_cap = 32;
  config.traffic.max_inflight = 2000;
  double t0 = NowSeconds();
  core::RunReport report =
      core::RunExperiment(config, Seconds(0.5), Seconds(2.0));
  r.seconds = NowSeconds() - t0;
  r.throughput = report.goodput_tps;
  r.ops = report.completed_txns;
  return r;
}

inline SimcoreBenchResult BenchOpenLoopBelowKnee(
    const SimcoreBenchOptions& opt) {
  return BenchOpenLoopGoodputAt(opt, "openloop_sat_below", 5000.0,
                                /*gate=*/true);
}

inline SimcoreBenchResult BenchOpenLoopPastKnee(
    const SimcoreBenchOptions& opt) {
  return BenchOpenLoopGoodputAt(opt, "openloop_sat_over", 12000.0,
                                /*gate=*/false);
}

/// Post-crash goodput of the replicated coordinator group (DESIGN.md
/// §10): 2 shards, 10% cross-shard, coordinator_replicas=3, serving
/// leader crash-stopped at t=1s and never recovered. Goodput is
/// measured over the post-failover window [1.5s, 3.5s] of *simulated*
/// time — fully deterministic for the seed, so the gate holds a tight
/// floor: a drop means takeover stopped re-deriving the in-flight vote
/// state, participants stopped following redirects, or the quorum fence
/// started stalling decisions.
inline SimcoreBenchResult BenchCoordFailoverGoodput(
    const SimcoreBenchOptions& opt) {
  SimcoreBenchResult r{"coord_failover_goodput", "txns/s"};
  r.gate = true;
  core::SystemConfig config;
  config.shard_count = 2;
  config.shim.n = 4;
  config.shim.batch_size = 2;
  config.n_e = 3;
  config.f_e = 1;
  config.num_clients = 16;
  config.workload.record_count = 2000;
  config.workload.cross_shard_percentage = 10.0;
  config.coordinator_vote_timeout = Millis(600);
  config.coordinator_replicas = 3;
  config.coordinator_heartbeat = Millis(100);
  config.coordinator_failover_timeout = Millis(400);
  config.crypto_mode = crypto::CryptoMode::kFast;
  config.seed = opt.seed;
  core::Architecture arch(config);
  auto schedule =
      faults::FaultSchedule::Parse("at 1s crash coordinator leader\n");
  if (!schedule.ok()) std::abort();
  faults::FaultController controller(&arch);
  if (!controller.Install(*schedule).ok()) std::abort();
  arch.Start();
  double t0 = NowSeconds();
  arch.simulator()->RunUntil(Seconds(1.5));
  uint64_t before = arch.TotalCompleted();
  arch.simulator()->RunUntil(Seconds(3.5));
  r.seconds = NowSeconds() - t0;
  uint64_t completed = arch.TotalCompleted() - before;
  r.throughput = static_cast<double>(completed) / 2.0;  // Simulated secs.
  r.ops = completed;
  return r;
}

/// Parallel event churn: the event_churn workload sharded over 8 loops
/// under the conservative engine — 32 self-rescheduling timers per loop
/// plus a ring of cross-loop posts so the mailboxes and the window
/// protocol stay hot, not just the heaps. Wall-clock events/s summed
/// over all loops. The gate floor is set for a 1-core runner (the engine
/// must at least keep pace with its own synchronization overhead);
/// multi-core machines land far above it.
inline SimcoreBenchResult BenchParallelEventChurn(
    const SimcoreBenchOptions& opt) {
  constexpr int kLoops = 8;
  const uint64_t per_loop = static_cast<uint64_t>(250'000 * opt.scale);
  const uint64_t ring_hops = static_cast<uint64_t>(20'000 * opt.scale);
  SimcoreBenchResult r{"parallel_event_churn", "events/s"};
  r.gate = true;
  const int threads = ResolveBenchThreads(opt.threads);
  for (int rep = 0; rep < opt.reps; ++rep) {
    std::vector<std::unique_ptr<sim::Simulator>> sims;
    std::vector<sim::Simulator*> loops;
    for (int i = 0; i < kLoops; ++i) {
      sims.push_back(std::make_unique<sim::Simulator>(opt.seed + i));
      loops.push_back(sims.back().get());
    }
    sim::ParallelSimulator::Options popt;
    popt.threads = threads;
    popt.lookahead = Micros(200);
    sim::ParallelSimulator psim(loops, popt);

    std::vector<uint64_t> remaining(kLoops, per_loop);
    for (int i = 0; i < kLoops; ++i) {
      for (uint64_t k = 0; k < 32; ++k) {
        SimDuration stride = Micros(1 + (k * 2654435761u) % 997);
        loops[i]->Schedule(stride,
                           ChurnTimer{loops[i], &remaining[i], stride});
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
    auto ring = std::make_shared<RingHop>();
    ring->psim = &psim;
    ring->remaining = ring_hops;
    loops[0]->Schedule(0, [ring] { ring->Hop(0); });

    double t0 = NowSeconds();
    psim.RunUntil(Seconds(3600));  // Terminates on exhaustion.
    double dt = NowSeconds() - t0;
    uint64_t events = 0;
    for (const auto& sim : sims) events += sim->events_executed();
    double tput = static_cast<double>(events) / dt;
    if (tput > r.throughput) {
      r.throughput = tput;
      r.seconds = dt;
      r.ops = events;
    }
  }
  return r;
}

/// 8-plane cross-shard architecture under the parallel engine
/// (sim_threads > 0): the same settled-transactions-per-wall-second
/// metric as cross_shard_commit, but with eight ShardPlane loops plus
/// the global loop spread over worker threads. Gated with a 1-core-safe
/// floor; the parallel_speedup_8s entry below carries the actual
/// parallel-vs-serial ratio in the trajectory.
inline SimcoreBenchResult BenchParallelCrossShardAt(
    const SimcoreBenchOptions& opt, const char* name, int sim_threads,
    bool gate) {
  const SimDuration sim_window =
      static_cast<SimDuration>(Seconds(2.0) * opt.scale);
  SimcoreBenchResult r{name, "txns/s"};
  r.gate = gate;
  for (int rep = 0; rep < opt.reps; ++rep) {
    core::SystemConfig config;
    config.shard_count = 8;
    config.shim.n = 4;
    config.shim.batch_size = 2;
    config.n_e = 3;
    config.f_e = 1;
    config.num_clients = 16;
    config.workload.record_count = 4000;
    config.workload.cross_shard_percentage = 50.0;
    config.crypto_mode = crypto::CryptoMode::kFast;
    config.seed = opt.seed;
    config.sim_threads = sim_threads;
    core::Architecture arch(config);
    arch.Start();
    double t0 = NowSeconds();
    arch.RunUntil(sim_window);
    double dt = NowSeconds() - t0;
    uint64_t settled = arch.TotalCompleted() + arch.TotalAborted();
    double tput = static_cast<double>(settled) / dt;
    if (tput > r.throughput) {
      r.throughput = tput;
      r.seconds = dt;
      r.ops = settled;
    }
  }
  return r;
}

inline SimcoreBenchResult BenchParallelCrossShard8s(
    const SimcoreBenchOptions& opt) {
  return BenchParallelCrossShardAt(opt, "parallel_cross_shard_8s",
                                   ResolveBenchThreads(opt.threads),
                                   /*gate=*/true);
}

/// Parallel-vs-serial wall-clock ratio on the 8-plane workload above:
/// > 1 means the engine beats the serial scheduler on this host. Not
/// gated — the value is hardware-dependent (a 1-core runner reports the
/// engine's synchronization overhead, a multi-core runner its speedup) —
/// but carried in BENCH_*.json so the trajectory records both.
inline SimcoreBenchResult BenchParallelSpeedup8s(
    const SimcoreBenchOptions& opt) {
  SimcoreBenchResult serial = BenchParallelCrossShardAt(
      opt, "serial_cross_shard_8s", /*sim_threads=*/0, /*gate=*/false);
  SimcoreBenchResult parallel = BenchParallelCrossShardAt(
      opt, "parallel_cross_shard_8s", ResolveBenchThreads(opt.threads),
      /*gate=*/false);
  SimcoreBenchResult r{"parallel_speedup_8s", "x"};
  r.throughput = serial.seconds > 0 ? serial.seconds / parallel.seconds : 0;
  r.seconds = parallel.seconds;
  r.ops = parallel.ops;
  return r;
}

}  // namespace simcore_internal

/// Abort rates of the cross-shard contention check (30% hot-key
/// conflicts x 50% cross-shard on a contended keyspace), with bounded
/// prepare-lock queueing on and off. Simulated-time metrics: fully
/// deterministic for a given seed, so the CI gate can hold a tight
/// ceiling — any drift is a behavioral regression in the unified commit
/// path, not measurement noise.
struct CrossShardAbortCheck {
  double queue_on_rate = 1.0;
  double queue_off_rate = 1.0;
};

inline CrossShardAbortCheck RunCrossShardAbortCheck(uint64_t seed) {
  auto make_config = [seed](uint32_t queue_depth) {
    core::SystemConfig config;
    config.shard_count = 2;
    config.shim.n = 4;
    config.shim.batch_size = 50;
    config.shim.pipeline_width = 96;
    config.n_e = 4;  // 3f_E + 1 (§VI-B).
    config.f_e = 1;
    config.num_clients = 400;
    config.client_timeout = Seconds(12);
    config.shim.request_timeout = Seconds(4);
    config.shim.retransmit_timeout = Seconds(3);
    config.shim.view_change_timeout = Seconds(6);
    config.workload.record_count = 2000;
    config.workload.conflict_percentage = 30.0;
    config.workload.hot_keys = 8;
    config.workload.cross_shard_percentage = 50.0;
    config.conflicts_possible = true;
    config.verifier_match_timeout = Millis(400);
    config.prepare_lock_queue_depth = queue_depth;
    config.crypto_mode = crypto::CryptoMode::kFast;
    config.seed = seed;
    return config;
  };
  CrossShardAbortCheck check;
  check.queue_on_rate =
      core::RunExperiment(make_config(8), Seconds(0.4), Seconds(1.0))
          .abort_rate;
  check.queue_off_rate =
      core::RunExperiment(make_config(0), Seconds(0.4), Seconds(1.0))
          .abort_rate;
  return check;
}

/// Runs every benchmark (subject to `opt.filter`), printing one row per
/// result as it lands.
inline std::vector<SimcoreBenchResult> RunSimcoreSuite(
    const SimcoreBenchOptions& opt) {
  using namespace simcore_internal;
  using BenchFn = SimcoreBenchResult (*)(const SimcoreBenchOptions&);
  struct NamedBench {
    const char* name;
    BenchFn fn;
  };
  const NamedBench benches[] = {
      {"event_churn", BenchEventChurn},
      {"cancel_storm", BenchCancelStorm},
      {"broadcast_fanout", BenchBroadcastFanout},
      {"digest_rounds", BenchDigestRounds},
      {"wire_parse", BenchWireParse},
      {"cert_aggregate", BenchCertAggregate},
      {"batch_verify", BenchBatchVerify},
      {"hmac_small", BenchHmacSmall},
      {"sha256_stream", BenchSha256Stream},
      {"cross_shard_commit", BenchCrossShardCommit},
      {"cross_shard_commit_4s", BenchCrossShardCommit4s},
      {"openloop_sat_below", BenchOpenLoopBelowKnee},
      {"openloop_sat_over", BenchOpenLoopPastKnee},
      {"coord_failover_goodput", BenchCoordFailoverGoodput},
      {"parallel_event_churn", BenchParallelEventChurn},
      {"parallel_cross_shard_8s", BenchParallelCrossShard8s},
      {"parallel_speedup_8s", BenchParallelSpeedup8s},
  };
  std::vector<SimcoreBenchResult> results;
  std::printf("%-18s %16s %14s %10s\n", "benchmark", "throughput", "unit",
              "secs");
  for (const NamedBench& bench : benches) {
    if (!opt.filter.empty() &&
        std::string(bench.name).find(opt.filter) == std::string::npos) {
      continue;
    }
    SimcoreBenchResult r = bench.fn(opt);
    std::printf("%-18s %16.0f %14s %10.3f\n", r.name.c_str(), r.throughput,
                r.unit.c_str(), r.seconds);
    std::fflush(stdout);
    results.push_back(std::move(r));
  }
  return results;
}

/// Writes the suite results as a BENCH_*.json document (the perf
/// trajectory format read by the CI gate and future sessions).
inline bool WriteSimcoreJson(const std::string& path, const std::string& date,
                             const std::string& label,
                             const SimcoreBenchOptions& opt,
                             const std::vector<SimcoreBenchResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"sbft-bench-simcore-v1\",\n");
  std::fprintf(f, "  \"date\": \"%s\",\n", date.c_str());
  std::fprintf(f, "  \"label\": \"%s\",\n", label.c_str());
  std::fprintf(f, "  \"scale\": %g,\n", opt.scale);
  std::fprintf(f, "  \"reps\": %d,\n", opt.reps);
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(opt.seed));
  // Host context for the parallel_* entries: the worker-thread count the
  // run resolved to and what the machine could have offered.
  std::fprintf(f, "  \"threads\": %d,\n", ResolveBenchThreads(opt.threads));
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const SimcoreBenchResult& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"unit\": \"%s\", "
                 "\"throughput\": %.1f, \"ops\": %llu, \"seconds\": %.4f, "
                 "\"gate\": %s}%s\n",
                 r.name.c_str(), r.unit.c_str(), r.throughput,
                 static_cast<unsigned long long>(r.ops), r.seconds,
                 r.gate ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

/// Minimal reader for the fields the regression gate needs: pulls
/// ("name", throughput, gate) triples out of a BENCH_*.json /
/// ci_baseline.json document. Tolerant of whitespace, intolerant of
/// anything that does not look like WriteSimcoreJson output.
struct SimcoreBaselineEntry {
  std::string name;
  double throughput = 0;
  bool gate = false;
};

inline std::vector<SimcoreBaselineEntry> ReadSimcoreBaseline(
    const std::string& path) {
  std::vector<SimcoreBaselineEntry> entries;
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
    SimcoreBaselineEntry e;
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

}  // namespace sbft::bench

#endif  // SBFT_BENCH_SIMCORE_BENCH_H_
