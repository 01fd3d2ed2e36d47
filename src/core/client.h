#ifndef SBFT_CORE_CLIENT_H_
#define SBFT_CORE_CLIENT_H_

#include <functional>
#include <memory>

#include "common/histogram.h"
#include "crypto/keys.h"
#include "shim/message.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "workload/ycsb.h"

namespace sbft::core {

/// \brief A closed-loop client C (paper §IV-A, §IX setup: "each client
/// waits for a response prior to sending its next request").
///
/// The client signs each transaction with its DS, and with its floor
/// (the id just below it: every earlier request was answered), and sends
/// it to the transaction's routing target — its home shard's current primary, or
/// the cross-shard coordinator — and arms the timer τ_m. On RESPONSE the
/// latency is recorded and the next transaction follows. On timeout the
/// client retransmits to the transaction's *fallback* target (the home
/// shard's verifier, per the Fig. 4 client role, or the coordinator for
/// cross-shard transactions) with exponential backoff.
class Client : public sim::Actor {
 public:
  /// Resolves where a transaction should go (tracks view changes and
  /// shard routing). Evaluated at every (re)send.
  using TargetResolver =
      std::function<ActorId(const workload::Transaction&)>;
  /// Resolves the latency histogram a transaction settles into (the home
  /// shard's plane histogram); may return nullptr to skip recording.
  using LatencyResolver =
      std::function<Histogram*(const workload::Transaction&)>;

  Client(ActorId id, TargetResolver primary, TargetResolver fallback,
         workload::TxnGenerator* generator, crypto::KeyRegistry* keys,
         sim::Simulator* sim, sim::Network* net, SimDuration timeout);

  /// Sends the first request.
  void Start();

  void OnMessage(const sim::Envelope& env) override;

  /// Latency samples are recorded only while recording (the experiment
  /// runner enables it after warmup). The single-histogram setter is the
  /// single-plane convenience; the resolver form routes per shard.
  void SetLatencyHistogram(Histogram* histogram) {
    latency_ = [histogram](const workload::Transaction&) {
      return histogram;
    };
  }
  void SetLatencyResolver(LatencyResolver resolver) {
    latency_ = std::move(resolver);
  }
  void SetRecording(bool record) { recording_ = record; }

  uint64_t completed() const { return completed_; }
  uint64_t aborted() const { return aborted_; }
  uint64_t retransmissions() const { return retransmissions_; }

 private:
  void SendNext();
  void SendCurrent(ActorId target);
  void OnTimeout();

  TargetResolver primary_;
  TargetResolver fallback_;
  workload::TxnGenerator* generator_;
  crypto::KeyRegistry* keys_;
  sim::Simulator* sim_;
  sim::Network* net_;
  SimDuration base_timeout_;
  SimDuration current_timeout_;

  std::shared_ptr<shim::ClientRequestMsg> current_;
  SimTime sent_at_ = 0;
  sim::EventId timer_ = 0;

  LatencyResolver latency_;
  bool recording_ = false;
  uint64_t completed_ = 0;
  uint64_t aborted_ = 0;
  uint64_t retransmissions_ = 0;
};

}  // namespace sbft::core

#endif  // SBFT_CORE_CLIENT_H_
