#include "workloads.h"

namespace e2e {

using sbft::Millis;
using sbft::Seconds;
using sbft::core::SystemConfig;

namespace {

// Every workload is open-loop Poisson YCSB, two operations per
// transaction, half of them writes. The configs set only long-lived
// knobs: no flag the library plans to retire is touched here, so those
// deletions never have to edit the benchmark.
SystemConfig OpenLoop(double rate, uint32_t sources) {
  SystemConfig c;
  c.crypto_mode = sbft::crypto::CryptoMode::kFast;
  c.shim.n = 4;
  c.n_e = 3;
  c.f_e = 1;
  c.workload.ops_per_txn = 2;
  c.workload.write_fraction = 0.5;
  c.traffic.open_loop = true;
  c.traffic.arrival = sbft::workload::ArrivalKind::kPoisson;
  c.traffic.sources = sources;
  c.traffic.offered_tps = rate;
  c.traffic.retry_timeout = Millis(400);
  c.traffic.retry_inflight_cap = 32;
  c.traffic.max_inflight = 4000;
  return c;
}

// Shim timers long enough that load is never mistaken for a faulty
// primary (the paper's §IX runs are fault-free).
void GenerousShimTimers(SystemConfig* c) {
  c->shim.request_timeout = Seconds(4);
  c->shim.retransmit_timeout = Seconds(3);
  c->shim.view_change_timeout = Seconds(6);
}

SystemConfig EdgeBatch2(double rate) {
  SystemConfig c = OpenLoop(rate, 2);
  c.shim.batch_size = 2;
  c.shim.checkpoint_interval = 8;
  c.executor_regions = 3;
  c.workload.record_count = 100000;
  return c;
}

SystemConfig PaperBatch100(double rate) {
  SystemConfig c = OpenLoop(rate, 4);
  c.shim.n = 8;
  c.shim.batch_size = 100;
  c.shim.pipeline_width = 96;
  c.shim_cores = 16;
  c.verifier_cores = 8;
  c.executor_regions = 3;
  c.workload.record_count = 600000;
  c.crypto_mode = sbft::crypto::CryptoMode::kNone;
  GenerousShimTimers(&c);
  return c;
}

SystemConfig XShard2pc(double rate) {
  SystemConfig c = OpenLoop(rate, 4);
  c.shard_count = 4;
  c.shim.batch_size = 4;
  c.shim.checkpoint_interval = 8;
  c.workload.record_count = 8000;
  c.workload.cross_shard_percentage = 33;
  c.coordinator_cores = 2;
  c.coordinator_groups = 1;
  c.coordinator_replicas = 1;
  return c;
}

SystemConfig XShardParallel(double rate) {
  SystemConfig c = XShard2pc(rate);
  c.sim_threads = 2;
  return c;
}

SystemConfig HotContention(double rate) {
  SystemConfig c = OpenLoop(rate, 4);
  c.shard_count = 2;
  c.shim.batch_size = 4;
  c.shim.checkpoint_interval = 8;
  c.n_e = 4;
  c.conflicts_possible = true;
  c.verifier_match_timeout = Millis(400);
  c.workload.record_count = 8000;
  c.workload.zipf_theta = 0.99;
  c.workload.cross_shard_percentage = 50;
  // The workload is about conflict handling, not view changes, and under
  // hot-key contention both false suspicions of the primary fire: shim
  // timers (seeds 4 and 17 of 1..20 with the defaults collapse goodput to
  // ~830 t/s and shed ~2k transactions), and a client retransmission for
  // a transaction parked behind a prepare lock, which makes the verifier
  // broadcast REPLACE (with 1 s retries, one replica in 140 fell to
  // 588 t/s with 945 drops). Sources therefore never retry within the
  // 2.5 s run.
  GenerousShimTimers(&c);
  c.traffic.retry_timeout = Seconds(3);
  return c;
}

SystemConfig Failover(double rate) {
  SystemConfig c = OpenLoop(rate, 4);
  c.shard_count = 2;
  c.shim.batch_size = 4;
  c.workload.record_count = 8000;
  c.workload.cross_shard_percentage = 20;
  c.coordinator_replicas = 3;
  c.coordinator_heartbeat = Millis(100);
  c.coordinator_failover_timeout = Millis(400);
  // Requests due during an outage keep retrying until served: shedding
  // them would turn the outage into failed operations and hide how long
  // service was really gone.
  c.traffic.retry_inflight_cap = 1u << 30;
  c.traffic.max_inflight = 0;
  return c;
}

std::vector<Workload> Build() {
  std::vector<Workload> all;

  Workload edge;
  edge.name = "edge_batch2";
  edge.why =
      "2-transaction batches make per-message work dominate: scheduler, "
      "network fan-out, PBFT handlers, HMAC and per-batch spawning";
  edge.rate_tps = 6000;
  edge.knee = true;
  edge.rep_wall_s = 0.65;
  edge.config = EdgeBatch2;
  all.push_back(edge);

  Workload paper;
  paper.name = "paper_batch100";
  paper.why =
      "the paper's deployment: batching amortises messages so request "
      "intake, settle, the store and set-up dominate; crypto does no work";
  paper.rate_tps = 70000;
  paper.knee = true;
  paper.rep_wall_s = 3.2;
  paper.config = PaperBatch100;
  all.push_back(paper);

  Workload xshard;
  xshard.name = "xshard_2pc";
  xshard.why =
      "a third of transactions run 2PC through a 2-core coordinator, "
      "putting votes, certificates, the decision log and locks on the "
      "critical path";
  xshard.rate_tps = 24000;
  xshard.knee = true;
  xshard.rep_wall_s = 3.0;
  xshard.config = XShard2pc;
  all.push_back(xshard);

  Workload par;
  par.name = "xshard_parallel";
  par.why =
      "the xshard_2pc model on the 2-thread parallel engine, isolating "
      "sim/parallel (xshard_2pc is its bypass case)";
  par.rate_tps = 24000;
  par.serial_twin = "xshard_2pc";
  par.rep_wall_s = 2.0;
  par.config = XShardParallel;
  all.push_back(par);

  Workload hot;
  hot.name = "hot_contention";
  hot.why =
      "zipf 0.99 writes collide so the concurrency check, prepare-lock "
      "queue and abort path do the work; weakened conflict handling shows "
      "in failed_frac";
  hot.rate_tps = 4000;
  hot.slo.aborts_expected = true;
  hot.slo.p99_ms = 150;  // Measured 93.5 ms at seed 2023.
  hot.rep_wall_s = 0.55;
  hot.config = HotContention;
  all.push_back(hot);

  Workload fail;
  fail.name = "failover";
  fail.why =
      "arrivals continue through a coordinator-leader crash and a shim "
      "primary crash, measuring time without service and retries";
  // 2000 t/s, not 6000: at 6000 t/s plane 0 never resumes inside the
  // window after node 0 crashes (view-change storm, 11.8k drops at seed
  // 2023), so its outage could not be measured.
  fail.rate_tps = 2000;
  fail.measure_s = 6.0;
  fail.faults = {{2.0, "at 2s crash coordinator leader", Needs::kCrossShard},
                 {4.0, "at 4s crash node 0", Needs::kShard0}};
  fail.slo.p99_ms = 0;  // The outage sets the tail; bounded by outage_s.
  fail.slo.max_outage_s = 3.0;
  fail.rep_wall_s = 0.6;
  fail.config = Failover;
  all.push_back(fail);
  return all;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> all = Build();
  return all;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace e2e
