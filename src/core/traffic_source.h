#ifndef SBFT_CORE_TRAFFIC_SOURCE_H_
#define SBFT_CORE_TRAFFIC_SOURCE_H_

#include <functional>
#include <memory>
#include <map>
#include <vector>

#include "common/histogram.h"
#include "crypto/keys.h"
#include "shim/message.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "workload/arrival.h"
#include "workload/traffic.h"
#include "workload/workflow.h"

namespace sbft::core {

/// Shared in-flight gauge: every source ups/downs it, so the peak is the
/// true architecture-wide high-water mark, not a sum of per-source peaks
/// that never coincided.
struct InflightGauge {
  uint64_t inflight = 0;
  uint64_t peak = 0;
  void Up() {
    if (++inflight > peak) peak = inflight;
  }
  void Down() {
    if (inflight > 0) --inflight;
  }
  /// Start-of-measurement reset: the high-water restarts from the
  /// current backlog.
  void ResetPeak() { peak = inflight; }
};

/// \brief The request actor: signs transactions, sends each to its
/// routing target, retransmits on timeout, and counts the answers.
///
/// Two disciplines share this one actor:
///
/// - **Closed loop** (no ArrivalProcess): Start() sends one request, and
///   each RESPONSE sends the next one — the paper's §IX clients, which
///   wait for a response before sending the next request. Offered load
///   never exceeds what the system absorbs.
/// - **Open loop**: injects transactions at the rate its ArrivalProcess
///   dictates, regardless of completion. Arrivals keep coming when the
///   system falls behind, in-flight grows, retransmissions compete with
///   fresh work, and goodput vs offered load becomes measurable.
///
/// Each request carries the source's floor, just below its oldest
/// pending request (`id - 1` in closed loop, where nothing else is
/// pending). Timeouts retransmit the *same* signed request to the
/// fallback target (dedup / decision-log answers duplicates); the number
/// of transactions being retried concurrently is capped — beyond the cap
/// a timed-out transaction is dropped and counted, bounding retry
/// amplification. A closed-loop source has one request to retry, so any
/// cap of one or more never drops.
///
/// In workflow mode each arrival starts a chain of `chain_hops` function
/// invocations; hop k+1 is issued only after hop k commits, and an
/// aborted hop is reissued as a *fresh* transaction (atomic abort means
/// nothing of the failed attempt is visible — reusing the old id would
/// hit the dedup map and return the logged ABORT forever). Every attempt
/// id is recorded per hop, so a test can check against the verifiers'
/// applied maps that exactly one attempt per hop applied.
class TrafficSource : public sim::Actor {
 public:
  using TargetResolver =
      std::function<ActorId(const workload::Transaction&)>;
  using LatencyResolver =
      std::function<Histogram*(const workload::Transaction&)>;

  /// Evidence of one workflow chain's execution.
  struct ChainRecord {
    uint64_t chain_id = 0;
    /// Attempt txn ids per hop, in issue order.
    std::vector<std::vector<TxnId>> hop_attempts;
    bool completed = false;
    bool dropped = false;
  };

  /// `arrivals == nullptr` selects the closed loop; `rng` feeds only the
  /// arrival process.
  TrafficSource(ActorId id, TargetResolver primary, TargetResolver fallback,
                workload::TxnGenerator* generator,
                workload::WorkflowGenerator* workflow,
                crypto::KeyRegistry* keys, sim::Simulator* sim,
                sim::Network* net,
                std::unique_ptr<workload::ArrivalProcess> arrivals, Rng rng,
                const workload::TrafficConfig& traffic,
                InflightGauge* gauge);

  /// Closed loop: sends the first request. Open loop: schedules the
  /// first arrival.
  void Start();

  /// Stops issuing new requests (arrivals, or a closed loop's next
  /// request); in-flight work drains normally (tests quiesce the system
  /// with this before auditing evidence).
  void Pause() { paused_ = true; }

  void OnMessage(const sim::Envelope& env) override;

  void SetLatencyResolver(LatencyResolver resolver) {
    latency_ = std::move(resolver);
  }
  void SetRecording(bool record) { recording_ = record; }

  /// Distinct units of work issued (requests or arrivals, plus workflow
  /// hops; retry attempts of the same unit are not re-counted).
  uint64_t offered() const { return offered_; }
  uint64_t completed() const { return completed_; }
  uint64_t aborted() const { return aborted_; }
  uint64_t retransmissions() const { return retransmissions_; }
  /// Units abandoned: shed at the in-flight cap, timed out past the
  /// retry cap, or aborted past the hop-attempt budget.
  uint64_t dropped() const { return dropped_; }
  uint64_t inflight() const { return pending_.size(); }

  uint64_t chains_started() const { return chains_.size(); }
  uint64_t chains_completed() const { return chains_completed_; }
  const std::vector<ChainRecord>& chains() const { return chains_; }

 private:
  static constexpr size_t kNoChain = static_cast<size_t>(-1);

  struct Pending {
    /// The signed request; the shim batches its transaction in place.
    std::shared_ptr<const shim::ClientRequestMsg> msg;
    SimTime sent_at = 0;
    sim::EventId timer = 0;
    SimDuration timeout = 0;
    uint32_t retries = 0;
    size_t chain = kNoChain;
    uint32_t hop = 0;
  };

  void ScheduleNextArrival();
  void OnArrival();
  /// Signs and sends a fresh transaction; counts it as offered work.
  void Inject(workload::Transaction txn, size_t chain, uint32_t hop);
  void SendPending(Pending* p, ActorId target);
  void OnTimeout(TxnId txn_id);
  /// Removes the pending entry (timer, retry slot, gauge) and returns it.
  Pending Finish(TxnId txn_id);
  void Drop(TxnId txn_id);
  void AdvanceChain(const Pending& done, bool aborted);

  TargetResolver primary_;
  TargetResolver fallback_;
  workload::TxnGenerator* generator_;
  workload::WorkflowGenerator* workflow_;
  crypto::KeyRegistry* keys_;
  sim::Simulator* sim_;
  sim::Network* net_;
  /// Null in closed loop: each answer, not a clock, releases the next
  /// request.
  std::unique_ptr<workload::ArrivalProcess> arrivals_;
  Rng rng_;
  workload::TrafficConfig traffic_;
  InflightGauge* gauge_;

  /// Requests awaiting an answer, in id order: the first bounds the
  /// floor signed into the next request.
  std::map<TxnId, Pending> pending_;
  /// Transactions currently in the retrying state (retries > 0).
  uint32_t retrying_ = 0;

  LatencyResolver latency_;
  bool recording_ = false;
  bool paused_ = false;
  uint64_t offered_ = 0;
  uint64_t completed_ = 0;
  uint64_t aborted_ = 0;
  uint64_t retransmissions_ = 0;
  uint64_t dropped_ = 0;

  std::vector<ChainRecord> chains_;
  uint64_t chains_completed_ = 0;
};

}  // namespace sbft::core

#endif  // SBFT_CORE_TRAFFIC_SOURCE_H_
