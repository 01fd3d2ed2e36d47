#include "core/client.h"

namespace sbft::core {

Client::Client(ActorId id, TargetResolver primary, TargetResolver fallback,
               workload::TxnGenerator* generator,
               crypto::KeyRegistry* keys, sim::Simulator* sim,
               sim::Network* net, SimDuration timeout)
    : Actor(id, "client-" + std::to_string(id)),
      primary_(std::move(primary)),
      fallback_(std::move(fallback)),
      generator_(generator),
      keys_(keys),
      sim_(sim),
      net_(net),
      base_timeout_(timeout),
      current_timeout_(timeout) {}

void Client::Start() { SendNext(); }

void Client::SendNext() {
  current_ = std::make_shared<shim::ClientRequestMsg>(id());
  current_->txn = generator_->Next(id());
  // One request outstanding at a time: every earlier one was answered.
  current_->txn.floor = current_->txn.id - 1;
  current_->client_sig =
      keys_->Sign(id(), shim::ClientRequestMsg::SigningBytes(current_->txn));
  sent_at_ = sim_->now();
  current_timeout_ = base_timeout_;
  SendCurrent(primary_(current_->txn));
}

void Client::SendCurrent(ActorId target) {
  net_->Send(id(), target, current_, current_->WireSize());
  if (timer_ != 0) sim_->Cancel(timer_);
  timer_ = sim_->Schedule(current_timeout_, [this]() { OnTimeout(); });
}

void Client::OnTimeout() {
  timer_ = 0;
  if (current_ == nullptr) return;
  // Fig. 4 client role: after τ_m expires, retransmit to the fallback
  // (verifier / coordinator) with exponential backoff until a RESPONSE
  // arrives.
  ++retransmissions_;
  current_timeout_ = std::min<SimDuration>(current_timeout_ * 2, Seconds(30));
  SendCurrent(fallback_(current_->txn));
}

void Client::OnMessage(const sim::Envelope& env) {
  const auto* msg =
      shim::MessageAs<shim::ResponseMsg>(env, shim::MsgKind::kResponse);
  if (msg == nullptr || current_ == nullptr) return;
  if (msg->txn_id != current_->txn.id) return;  // Stale response.

  if (timer_ != 0) {
    sim_->Cancel(timer_);
    timer_ = 0;
  }
  if (msg->aborted) {
    ++aborted_;
  } else {
    ++completed_;
  }
  if (recording_ && latency_) {
    Histogram* histogram = latency_(current_->txn);
    if (histogram != nullptr) histogram->Record(sim_->now() - sent_at_);
  }
  SendNext();
}

}  // namespace sbft::core
