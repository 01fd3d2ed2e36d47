#include "core/traffic_source.h"

#include <algorithm>
#include <utility>

namespace sbft::core {

/// Workflow chains: attempts per hop before the chain is dropped (each
/// attempt after an abort is a fresh transaction).
constexpr size_t kMaxHopAttempts = 16;

TrafficSource::TrafficSource(
    ActorId id, TargetResolver primary, TargetResolver fallback,
    workload::TxnGenerator* generator, workload::WorkflowGenerator* workflow,
    crypto::KeyRegistry* keys, sim::Simulator* sim, sim::Network* net,
    std::unique_ptr<workload::ArrivalProcess> arrivals, Rng rng,
    const workload::TrafficConfig& traffic, InflightGauge* gauge)
    : Actor(id, "source-" + std::to_string(id)),
      primary_(std::move(primary)),
      fallback_(std::move(fallback)),
      generator_(generator),
      workflow_(workflow),
      keys_(keys),
      sim_(sim),
      net_(net),
      arrivals_(std::move(arrivals)),
      rng_(rng),
      traffic_(traffic),
      gauge_(gauge) {}

void TrafficSource::Start() {
  if (arrivals_ == nullptr) {
    Inject(generator_->Next(id()), kNoChain, 0);
    return;
  }
  ScheduleNextArrival();
}

void TrafficSource::ScheduleNextArrival() {
  if (paused_) return;
  SimDuration gap = arrivals_->NextGap(sim_->now(), &rng_);
  sim_->Schedule(gap, [this]() { OnArrival(); });
}

void TrafficSource::OnArrival() {
  // Open loop: the next arrival is scheduled before this one is even
  // admitted — completions never gate injection.
  ScheduleNextArrival();

  if (traffic_.max_inflight > 0 &&
      pending_.size() >= traffic_.max_inflight) {
    // Overload shedding at the hard cap: the work was offered, and lost.
    ++offered_;
    ++dropped_;
    return;
  }

  if (workflow_ != nullptr) {
    ChainRecord record;
    record.chain_id = workflow_->NewChainId();
    record.hop_attempts.resize(traffic_.workflow.chain_hops);
    chains_.push_back(std::move(record));
    size_t chain = chains_.size() - 1;
    Inject(workflow_->HopTxn(id(), chains_[chain].chain_id, 0), chain, 0);
    return;
  }
  Inject(generator_->Next(id()), kNoChain, 0);
}

void TrafficSource::Inject(workload::Transaction txn, size_t chain,
                           uint32_t hop) {
  ++offered_;
  auto msg = std::make_shared<shim::ClientRequestMsg>(id());
  msg->txn = std::move(txn);
  // The floor: below the oldest request still pending (every earlier one
  // was answered or dropped), or just below this one.
  msg->txn.floor =
      (pending_.empty() ? msg->txn.id
                        : std::min(msg->txn.id, pending_.begin()->first)) -
      1;
  msg->client_sig =
      keys_->Sign(id(), shim::ClientRequestMsg::SigningBytes(msg->txn));

  TxnId txn_id = msg->txn.id;
  if (chain != kNoChain) chains_[chain].hop_attempts[hop].push_back(txn_id);

  Pending p;
  p.msg = std::move(msg);
  p.sent_at = sim_->now();
  p.timeout = traffic_.retry_timeout;
  p.chain = chain;
  p.hop = hop;
  auto [it, inserted] = pending_.emplace(txn_id, std::move(p));
  gauge_->Up();
  SendPending(&it->second, primary_(it->second.msg->txn));
}

void TrafficSource::SendPending(Pending* p, ActorId target) {
  net_->Send(id(), target, p->msg, p->msg->WireSize());
  TxnId txn_id = p->msg->txn.id;
  p->timer = sim_->Schedule(p->timeout, [this, txn_id]() {
    OnTimeout(txn_id);
  });
}

void TrafficSource::OnTimeout(TxnId txn_id) {
  auto it = pending_.find(txn_id);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  p.timer = 0;
  if (p.retries == 0) {
    if (retrying_ >= traffic_.retry_inflight_cap) {
      // The retry budget is spent: dropping here is what keeps a
      // saturated system from amplifying overload with retransmits.
      Drop(txn_id);
      return;
    }
    ++retrying_;
  }
  ++p.retries;
  ++retransmissions_;
  p.timeout = std::min<SimDuration>(p.timeout * 2, Seconds(30));
  // Same signed request, fallback target: duplicates are answered from
  // the dedup maps / decision log, never re-executed.
  SendPending(&p, fallback_(p.msg->txn));
}

TrafficSource::Pending TrafficSource::Finish(TxnId txn_id) {
  auto it = pending_.find(txn_id);
  Pending p = std::move(it->second);
  if (p.timer != 0) {
    sim_->Cancel(p.timer);
    p.timer = 0;
  }
  if (p.retries > 0 && retrying_ > 0) --retrying_;
  pending_.erase(it);
  gauge_->Down();
  return p;
}

void TrafficSource::Drop(TxnId txn_id) {
  Pending p = Finish(txn_id);
  ++dropped_;
  if (p.chain != kNoChain) chains_[p.chain].dropped = true;
}

void TrafficSource::AdvanceChain(const Pending& done, bool aborted) {
  ChainRecord& chain = chains_[done.chain];
  if (aborted) {
    // Atomic abort: nothing of the failed attempt is visible, so the hop
    // is retried as a fresh transaction (a retransmit of the old id
    // would be answered with the logged ABORT forever).
    if (chain.hop_attempts[done.hop].size() >= kMaxHopAttempts) {
      chain.dropped = true;
      ++dropped_;
      return;
    }
    Inject(workflow_->HopTxn(id(), chain.chain_id, done.hop), done.chain,
           done.hop);
    return;
  }
  uint32_t next_hop = done.hop + 1;
  if (next_hop >= traffic_.workflow.chain_hops) {
    chain.completed = true;
    ++chains_completed_;
    return;
  }
  Inject(workflow_->HopTxn(id(), chain.chain_id, next_hop), done.chain,
         next_hop);
}

void TrafficSource::OnMessage(const sim::Envelope& env) {
  const auto* msg =
      shim::MessageAs<shim::ResponseMsg>(env, shim::MsgKind::kResponse);
  if (msg == nullptr) return;
  auto it = pending_.find(msg->txn_id);
  if (it == pending_.end()) return;  // Duplicate / late response.

  Pending done = Finish(msg->txn_id);
  if (msg->aborted) {
    ++aborted_;
  } else {
    ++completed_;
    if (recording_ && latency_) {
      Histogram* histogram = latency_(done.msg->txn);
      if (histogram != nullptr) {
        histogram->Record(sim_->now() - done.sent_at);
      }
    }
  }
  if (done.chain != kNoChain) {
    AdvanceChain(done, msg->aborted);
  } else if (arrivals_ == nullptr && !paused_) {
    Inject(generator_->Next(id()), kNoChain, 0);
  }
}

}  // namespace sbft::core
