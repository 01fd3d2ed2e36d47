#include "runner.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>

#include "core/architecture.h"
#include "faults/controller.h"
#include "faults/schedule.h"
#include "serverless/billing.h"
#include "sim/parallel.h"

namespace e2e {

using sbft::Seconds;
using sbft::SimTime;
using sbft::core::Architecture;

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Restarts the peak-RSS watermark (Linux: 5 > /proc/self/clear_refs).
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Peak resident set since the last reset, MiB (VmHWM; the process-wide
/// peak where /proc has none).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

Counters Snapshot(Architecture& arch) {
  Counters c{};
  c[kEvents] = static_cast<double>(arch.simulator()->events_executed());
  if (arch.parallel()) {
    for (uint32_t s = 0; s < arch.shard_count(); ++s) {
      c[kEvents] +=
          static_cast<double>(arch.plane_simulator(s)->events_executed());
    }
    c[kParallelRounds] =
        static_cast<double>(arch.parallel_simulator()->rounds());
  }
  const auto* net = arch.network();
  c[kMsgs] = static_cast<double>(net->messages_sent());
  c[kBytes] = static_cast<double>(net->bytes_sent());
  c[kMsgsDropped] = static_cast<double>(net->messages_dropped());
  c[kCrossLoopMsgs] = static_cast<double>(net->cross_loop_messages());
  c[kCompleted] = static_cast<double>(arch.TotalCompleted());
  c[kAborted] = static_cast<double>(arch.TotalAborted());
  c[kOffered] = static_cast<double>(arch.TotalOffered());
  c[kDropped] = static_cast<double>(arch.TotalDropped());
  c[kRetransmits] = static_cast<double>(arch.TotalRetransmissions());
  c[kViewChanges] = static_cast<double>(arch.TotalViewChanges());
  c[kCoordViewChanges] = static_cast<double>(arch.CoordinatorViewChanges());
  for (uint32_t s = 0; s < arch.shard_count(); ++s) {
    auto* plane = arch.plane(s);
    const auto* cloud = plane->cloud();
    c[kSpawned] += static_cast<double>(plane->spawner()->executors_spawned());
    c[kBatchesSpawned] +=
        static_cast<double>(plane->spawner()->batches_spawned());
    c[kSpawnsAccepted] += static_cast<double>(cloud->spawns_accepted());
    c[kSpawnsThrottled] += static_cast<double>(cloud->spawns_throttled());
    c[kColdStarts] += static_cast<double>(cloud->cold_starts());
    c[kLambdaCents] += plane->cloud()->cost_meter()->lambda_cents();
    const auto* v = plane->verifier();
    c[kVerifierApplied] += static_cast<double>(v->applied_txns());
    c[kVerifierAborted] += static_cast<double>(v->aborted_txns());
    c[kFloodingIgnored] += static_cast<double>(v->flooding_ignored());
    c[kLockWaitsQueued] += static_cast<double>(v->lock_waits_queued());
    c[kLockWaitsAborted] += static_cast<double>(v->lock_waits_aborted());
    c[kKvReads] += static_cast<double>(plane->store()->reads());
    c[kKvWrites] += static_cast<double>(plane->store()->writes());
  }
  for (const auto* r : arch.pbft_replicas()) {
    c[kCheckpoints] += static_cast<double>(r->checkpoints_taken());
    c[kShimBatches] += static_cast<double>(r->committed_batches());
    c[kShimTxns] += static_cast<double>(r->committed_txns());
  }
  for (uint32_t i = 0; i < arch.coordinator_replicas(); ++i) {
    const auto* m = arch.coordinator(i);
    c[kPresumedAborts] += static_cast<double>(m->presumed_aborts_logged());
    c[kVotesReceived] += static_cast<double>(m->votes_received());
    c[kVoteCertMsgs] += static_cast<double>(m->vote_cert_msgs());
  }
  return c;
}

/// Nearest-rank quantile of sorted samples.
double Quantile(const std::vector<int64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Monetary cost over the window (the Fig. 8 method): Lambda charges
/// accrued plus VM time of every shim, verifier and coordinator machine.
double CentsPerKtxn(Architecture& arch, const Counters& w, double measure_s) {
  const auto& cfg = arch.config();
  int vm_cores = (static_cast<int>(cfg.shim.n) * cfg.shim_cores +
                  cfg.verifier_cores) *
                 static_cast<int>(arch.shard_count());
  if (arch.shard_count() > 1) {
    const int coord =
        cfg.coordinator_cores > 0 ? cfg.coordinator_cores : cfg.verifier_cores;
    vm_cores += coord * static_cast<int>(arch.coord_topology().total());
  }
  sbft::serverless::CostMeter vm;
  vm.ChargeVmTime(vm_cores, Seconds(measure_s));
  return Ratio((w[kLambdaCents] + vm.vm_cents()) * 1000.0, w[kCompleted]);
}

void CheckRun(Architecture& arch, RepResult* r) {
  auto fail = [r](std::string what) { r->failures.push_back(std::move(what)); };
  for (uint32_t s = 0; s < arch.shard_count(); ++s) {
    const auto* v = arch.plane(s)->verifier();
    if (!v->audit_log().VerifyChain() || !v->decision_log().VerifyChain()) {
      fail("audit chain of shard " + std::to_string(s) + " broken");
    }
    r->heads.push_back(v->audit_log().head().ToHex() + ":" +
                       v->decision_log().head().ToHex());
    // 2PC atomicity: no gid applied on one shard and aborted on another.
    for (uint32_t t = 0; t < arch.shard_count(); ++t) {
      if (t == s) continue;
      const auto& applied = arch.plane(t)->verifier()->applied_global();
      for (const auto& [gid, cseq] : v->aborted_global()) {
        if (applied.contains(gid)) {
          fail("gid " + std::to_string(gid) + " aborted on shard " +
               std::to_string(s) + " but applied on shard " +
               std::to_string(t));
        }
      }
    }
  }
  for (const auto& src : arch.sources()) {
    if (src->offered() != src->completed() + src->aborted() +
                              src->dropped() + src->inflight()) {
      fail("source " + std::to_string(src->id()) +
           " breaks offered = completed + aborted + dropped + in-flight");
    }
  }
}

void FillLayers(const Tracer& t, RepResult* out) {
  const RepResult& r = *out;
  const Counters& w = r.window;
  auto& L = out->layer;
  const double committed = w[kCompleted];
  const double settled = w[kCompleted] + w[kAborted];
  const auto& ph = t.phases();
  const double n = static_cast<double>(std::max<uint64_t>(t.traced(), 1));
  auto mean = [&](int p) { return ph[p].sum_ms / n; };
  auto pct = [&](int p, double q) { return Quantile(ph[p].samples, q) / 1e6; };
  auto wait_mean = [&](int role) {
    double sum = 0, count = 0;
    for (int k = 0; k < Tracer::kKinds; ++k) {
      sum += t.cell(role, k).wait_ms;
      count += static_cast<double>(t.cell(role, k).count);
    }
    return Ratio(sum, count);
  };
  auto wait_p99 = [&](int role) { return Quantile(t.waits(role), 0.99) / 1e6; };

  L["sim.events_per_txn"] = Ratio(w[kEvents], settled);
  L["sim.msgs_per_txn"] = Ratio(w[kMsgs], committed);
  L["sim.bytes_per_txn"] = Ratio(w[kBytes], committed);
  L["sim.dropped_msgs"] = w[kMsgsDropped];

  L["shim.batch_wait_ms"] = mean(kBatchWait);
  L["shim.order_ms_p50"] = pct(kOrder, 0.50);
  L["shim.order_ms_p99"] = pct(kOrder, 0.99);
  L["shim.txns_per_batch"] = Ratio(w[kShimTxns], w[kShimBatches]);
  L["shim.recv_wait_ms"] = wait_mean(kRoleShim);
  L["shim.checkpoints"] = w[kCheckpoints];
  L["shim.view_changes"] = w[kViewChanges];
  L["shim.view_change_s"] = t.view_change_s();

  L["serverless.spawn_ms"] = mean(kSpawn);
  L["serverless.exec_ms_p50"] = pct(kExec, 0.50);
  L["serverless.exec_ms_p99"] = pct(kExec, 0.99);
  L["serverless.cold_start_frac"] = Ratio(w[kColdStarts], w[kSpawnsAccepted]);
  L["serverless.executors_per_batch"] = Ratio(w[kSpawned], w[kBatchesSpawned]);
  L["serverless.spawns_throttled"] = w[kSpawnsThrottled];
  L["serverless.lambda_cents_per_ktxn"] =
      Ratio(w[kLambdaCents] * 1000.0, committed);

  L["verifier.match_ms"] = t.match_ms_mean();
  L["verifier.settle_ms"] = mean(kVerify);
  L["verifier.recv_wait_ms"] = wait_mean(kRoleVerifier);
  L["verifier.recv_wait_ms_p99"] = wait_p99(kRoleVerifier);
  L["verifier.abort_frac"] =
      Ratio(w[kVerifierAborted], w[kVerifierApplied] + w[kVerifierAborted]);
  L["verifier.lock_waits_queued"] = w[kLockWaitsQueued];
  L["verifier.lock_waits_aborted"] = w[kLockWaitsAborted];
  L["verifier.flooding_ignored"] = w[kFloodingIgnored];
  L["verifier.votes_per_cert"] = Ratio(w[kVotesReceived], w[kVoteCertMsgs]);

  L["core.coord_vote_ms_p50"] = pct(kCoordVote, 0.50);
  L["core.coord_vote_ms_p99"] = pct(kCoordVote, 0.99);
  L["core.coord_decide_ms_p50"] = pct(kCoordDecide, 0.50);
  L["core.coord_decide_ms_p99"] = pct(kCoordDecide, 0.99);
  L["core.coord_recv_wait_ms"] = wait_mean(kRoleCoordinator);
  L["core.coord_recv_wait_ms_p99"] = wait_p99(kRoleCoordinator);
  L["core.presumed_aborts"] = w[kPresumedAborts];
  L["core.coord_view_changes"] = w[kCoordViewChanges];
  L["core.coord_takeover_s"] = t.takeover_s();
  L["core.retransmits_per_ktxn"] = Ratio(w[kRetransmits] * 1000.0, w[kOffered]);
  L["core.drops"] = w[kDropped];
  L["core.peak_inflight"] = r.peak_inflight;

  L["storage.reads_per_txn"] = Ratio(w[kKvReads], committed);
  L["storage.writes_per_txn"] = Ratio(w[kKvWrites], committed);

  L["trace.coverage"] = Ratio(static_cast<double>(t.traced()),
                              static_cast<double>(r.samples));
  L["trace.incomplete_frac"] = Ratio(static_cast<double>(t.incomplete()),
                                     static_cast<double>(t.traced()));

  for (int p = 0; p < kNumPhases; ++p) {
    out->phase_mean_ms[p] = mean(p);
    out->phase_p50_ms[p] = pct(p, 0.50);
    out->phase_p99_ms[p] = pct(p, 0.99);
  }
  out->traced = t.traced();
  out->traced_cross = t.traced_cross();
  out->incomplete = t.incomplete();
}

}  // namespace

RepResult RunRep(const Workload& w, uint64_t seed, const RepOptions& opt) {
  RepResult r;
  const double rate = opt.rate_tps > 0 ? opt.rate_tps : w.rate_tps;
  const double warmup = opt.warmup_s > 0 ? opt.warmup_s : w.warmup_s;
  const double measure = opt.measure_s > 0 ? opt.measure_s : w.measure_s;
  sbft::core::SystemConfig config = w.Config(rate, seed);
  if (opt.serial) config.sim_threads = 0;

  // Destruction runs in reverse: tracer and fault controller go before
  // the architecture they point into.
  ResetPeakRss();
  const double t0 = WallNow();
  auto arch = std::make_unique<Architecture>(config);
  std::unique_ptr<sbft::faults::FaultController> faults;
  if (!w.faults.empty()) {
    faults = std::make_unique<sbft::faults::FaultController>(arch.get());
    std::string text;
    for (const Fault& f : w.faults) text += f.line + "\n";
    auto schedule = sbft::faults::FaultSchedule::Parse(text);
    if (!schedule.ok() || !faults->Install(*schedule).ok()) {
      r.failures.push_back("fault schedule rejected");
      return r;
    }
  }
  arch->Start();
  r.setup_s = WallNow() - t0;

  const SimTime warm_end = Seconds(warmup);
  const SimTime end = Seconds(warmup + measure);
  LatencyTap tap(arch.get(), w);
  std::unique_ptr<Tracer> tracer;
  if (opt.phases && !arch->parallel()) {
    tracer = std::make_unique<Tracer>(arch.get(), warm_end, end);
  }

  // Runs to `deadline`; a probe runs in 50 ms slices and stops early
  // (false) once it has certainly failed. `window` is the counter
  // snapshot at the start of the measurement window, if it started.
  SimTime reached = 0;
  auto run_to = [&](SimTime deadline, const Counters* window) {
    if (!opt.probe) {
      arch->RunUntil(deadline);
      reached = deadline;
      return true;
    }
    const double budget = 0.01 * rate * measure;
    while (reached < deadline) {
      reached = std::min(deadline, reached + sbft::Millis(50));
      arch->RunUntil(reached);
      if (static_cast<double>(arch->CurrentInflight()) > 0.5 * rate) {
        return false;
      }
      if (window == nullptr) continue;
      double failed =
          static_cast<double>(arch->TotalDropped()) - (*window)[kDropped];
      if (!w.slo.aborts_expected) {
        failed += static_cast<double>(arch->TotalAborted()) -
                  (*window)[kAborted];
      }
      if (failed > budget) return false;
    }
    return true;
  };

  const double t1 = WallNow();
  bool ok = run_to(warm_end, nullptr);
  const Counters c0 = Snapshot(*arch);
  arch->ResetLatency();
  arch->ResetPeakInflight();
  arch->SetRecording(true);
  if (ok) ok = run_to(end, &c0);
  r.run_wall_s = WallNow() - t1;
  r.aborted_early = !ok;
  const Counters c1 = Snapshot(*arch);
  for (int i = 0; i < kNumCounters; ++i) r.window[i] = c1[i] - c0[i];

  const Counters& win = r.window;
  r.measure_s = measure;
  r.offered = win[kOffered];
  r.committed = win[kCompleted];
  r.aborted = win[kAborted];
  r.dropped = win[kDropped];
  r.goodput_tps = r.committed / measure;
  r.failed_frac = Ratio(r.aborted + r.dropped, r.offered);
  r.peak_inflight = static_cast<double>(arch->PeakInflight());
  r.cents_per_ktxn = CentsPerKtxn(*arch, win, measure);
  r.engine_tps = Ratio(c1[kCompleted] + c1[kAborted], r.run_wall_s);
  r.ns_per_event = Ratio(r.run_wall_s * 1e9, c1[kEvents]);
  r.peak_rss_mb = PeakRssMb();

  tap.Finish();
  const sbft::Histogram hist = arch->MergedLatency();
  const auto& lat = tap.latencies();
  r.samples = lat.size();
  r.p50_ms = Quantile(lat, 0.50) / 1e6;
  r.p99_ms = Quantile(lat, 0.99) / 1e6;
  r.mean_ms = hist.mean() / 1e6;
  r.outages = tap.outages();
  for (double o : r.outages) {
    r.outage_s += o >= 0 ? o : measure;  // Censored at the window end.
  }

  CheckRun(*arch, &r);
  if (hist.count() != lat.size()) {
    r.failures.push_back("latency tap read " + std::to_string(lat.size()) +
                         " samples, the sources recorded " +
                         std::to_string(hist.count()));
  }
  if (tracer != nullptr) {
    tracer->Finish();
    FillLayers(*tracer, &r);
  }
  return r;
}

bool MeetsSlo(const Workload& w, const RepResult& r) {
  if (r.aborted_early) return false;
  const Slo& slo = w.slo;
  const double failed = slo.aborts_expected ? r.dropped
                                            : r.aborted + r.dropped;
  const double answered = slo.aborts_expected ? r.committed + r.aborted
                                              : r.committed;
  if (slo.p99_ms > 0 && r.p99_ms > slo.p99_ms) return false;
  if (failed > 0.01 * r.offered) return false;
  if (answered < 0.95 * r.offered) return false;
  if (slo.max_outage_s > 0 && r.outage_s > slo.max_outage_s) return false;
  return true;
}

Knee FindKnee(const Workload& w, uint64_t seed) {
  Knee knee;
  // Probes keep the workload's own warmup: after only 0.25 s the
  // cold-start backlog of the empty warm pool still drains inside the
  // window (p99 248 ms at edge_batch2's 6000 t/s).
  RepOptions probe;
  probe.measure_s = 1.0;
  probe.probe = true;
  auto passes = [&](double rate) {
    probe.rate_tps = rate;
    ++knee.probes;
    const RepResult r = RunRep(w, seed, probe);
    knee.failures.insert(knee.failures.end(), r.failures.begin(),
                         r.failures.end());
    return MeetsSlo(w, r);
  };
  const double top = 2 * w.rate_tps;
  double lo = w.rate_tps;
  double hi = top;
  // The operating point itself is held to the SLO by the suite's checks;
  // bisect between it and the top until within 2%.
  while (hi - lo > 0.02 * lo) {
    const double mid = std::round((lo + hi) / 2);
    if (passes(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  // No probe failed: the top itself decides whether the knee is censored.
  if (hi == top && passes(top)) {
    knee.tps = top;
    knee.censored = true;
    return knee;
  }
  knee.tps = lo;
  return knee;
}

}  // namespace e2e
