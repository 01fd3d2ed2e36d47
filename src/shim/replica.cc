#include "shim/replica.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <string>

namespace sbft::shim {

Replica::Replica(ActorId id, std::string_view kind, uint32_t index,
                 const ShimConfig& config, std::vector<ActorId> peers,
                 sim::Simulator* sim, sim::Network* net)
    : Actor(id, std::string(kind) + std::to_string(index)),
      config_(config),
      peers_(std::move(peers)),
      sim_(sim),
      net_(net) {
  assert(peers_.size() == config_.n);
  assert(peers_[index] == id);
}

void Replica::OnMessage(const sim::Envelope& env) {
  if (crashed_) return;
  const auto* base = static_cast<const Message*>(env.message.get());
  if (base == nullptr) return;
  if (base->kind != MsgKind::kResponse) {
    HandleMessage(env, base->kind);
  } else if (response_observer_) {
    response_observer_(env.from, *static_cast<const ResponseMsg*>(base));
  }
}

void Replica::SubmitTransaction(workload::TxnPtr txn) {
  // Each request is proposed once. One at or below its client's floor
  // was answered or abandoned, and its seen id may be gone: it is never
  // proposed again.
  seen_txns_.Raise(txn->client, txn->floor);
  if (!seen_txns_.FindOrInsert({txn->client, txn->id}).second) return;
  pending_.push_back(std::move(txn));
  MaybeProposeBatch();
}

void Replica::MaybeProposeBatch() {
  if (!CanPropose()) return;
  // Most requests leave the queue short of a batch: they need only the
  // flush, not a count of the uncommitted slots.
  if (pending_.size() >= config_.batch_size) {
    size_t inflight = UncommittedSlots();
    while (pending_.size() >= config_.batch_size &&
           inflight < config_.pipeline_width) {
      if (!ProposeBatch(config_.batch_size)) ++inflight;
    }
  }
  ScheduleBatchFlush();
}

void Replica::ScheduleBatchFlush() {
  if (batch_flush_timer_ != 0 || pending_.empty()) return;
  batch_flush_timer_ = sim_->Schedule(config_.batch_timeout, [this]() {
    batch_flush_timer_ = 0;
    if (!CanPropose() || pending_.empty()) return;
    // Whether the pipeline is full or not: a node whose slots stall
    // still moves its queue, one batch per timeout.
    ProposeBatch(std::min(pending_.size(), config_.batch_size));
    MaybeProposeBatch();
  });
}

bool Replica::ProposeBatch(size_t count) {
  workload::TransactionBatch batch;
  batch.txns.assign(std::make_move_iterator(pending_.begin()),
                    std::make_move_iterator(pending_.begin() + count));
  pending_.erase(pending_.begin(), pending_.begin() + count);
  return Propose(workload::ShareBatch(std::move(batch)));
}

void Replica::ReportCommit(SeqNum seq, ViewNum view,
                           const workload::BatchPtr& batch,
                           const crypto::CertPtr& cert) {
  ++committed_batches_;
  committed_txns_ += batch->txns.size();
  if (commit_cb_) commit_cb_(seq, view, batch, cert);
}

}  // namespace sbft::shim
