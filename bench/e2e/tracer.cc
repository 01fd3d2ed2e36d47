#include "tracer.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/shard_plane.h"
#include "shim/message.h"

namespace e2e {

using sbft::ActorId;
using sbft::SimTime;
using sbft::TxnId;
using sbft::core::Architecture;
using sbft::core::ShardPlane;
using sbft::shim::MsgKind;

namespace {

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

double RunningSum(const sbft::Histogram& h) {
  return h.mean() * static_cast<double>(h.count());
}

}  // namespace

// ---------------------------------------------------------------------------
// LatencyTap
// ---------------------------------------------------------------------------

LatencyTap::LatencyTap(Architecture* arch, const Workload& workload)
    : arch_(arch),
      workload_(workload),
      outages_(workload.faults.size(), -1.0),
      pending_needs_(workload.faults.size(), false) {
  for (const auto& source : arch->sources()) {
    source->SetLatencyResolver(
        [this](const sbft::workload::Transaction& txn) {
          return OnRecord(txn);
        });
  }
}

bool LatencyTap::Needs(size_t fault,
                       const sbft::workload::Transaction& txn) const {
  uint64_t mask = 0;
  for (const auto& op : txn.ops) {
    if (op.type == sbft::workload::OpType::kCompute) continue;
    mask |= 1ull << (arch_->router().ShardOf(op.key) & 63);
  }
  switch (workload_.faults[fault].needs) {
    case e2e::Needs::kCrossShard:
      return std::popcount(mask) > 1;
    case e2e::Needs::kShard0:
      return (mask & 1) != 0;
  }
  return false;
}

sbft::Histogram* LatencyTap::OnRecord(
    const sbft::workload::Transaction& txn) {
  Harvest();
  pending_ = arch_->LatencyFor(txn);
  pending_count_ = pending_->count();
  pending_sum_ = RunningSum(*pending_);
  pending_at_ = arch_->simulator()->now();
  for (size_t f = 0; f < outages_.size(); ++f) {
    pending_needs_[f] = outages_[f] < 0 && Needs(f, txn);
  }
  return pending_;
}

void LatencyTap::Harvest() {
  if (pending_ == nullptr) return;
  if (pending_->count() == pending_count_ + 1) {
    const int64_t latency =
        std::llround(RunningSum(*pending_) - pending_sum_);
    latencies_.push_back(latency);
    const SimTime due = pending_at_ - latency;
    for (size_t f = 0; f < outages_.size(); ++f) {
      const SimTime at = sbft::Seconds(workload_.faults[f].at_s);
      if (outages_[f] < 0 && pending_needs_[f] && due >= at) {
        outages_[f] = sbft::ToSeconds(pending_at_ - at);
      }
    }
  }
  pending_ = nullptr;
}

void LatencyTap::Finish() {
  Harvest();
  std::sort(latencies_.begin(), latencies_.end());
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

const char* PhaseName(int phase) {
  static const char* const kNames[kNumPhases] = {
      "batch_wait", "order",      "spawn",        "exec",
      "verify",     "coord_vote", "coord_decide", "respond"};
  return phase >= 0 && phase < kNumPhases ? kNames[phase] : "?";
}

int RoleOf(ActorId id) {
  if (id >= Architecture::kFirstExecutorId) return kRoleExecutor;
  if (id >= Architecture::kFirstSourceId) return kRoleSource;
  if (id >= Architecture::kFirstClientId) return kRoleOther;
  if (id >= Architecture::kVerifierId) {
    const ActorId offset = (id - Architecture::kVerifierId) % 1000;
    if (offset == 0) return kRoleVerifier;
    if (offset == 1) return kRoleStorage;
    return kRoleOther;
  }
  if (id >= sbft::core::kCoordinatorBaseId) return kRoleCoordinator;
  return kRoleShim;
}

Tracer::Tracer(Architecture* arch, SimTime from, SimTime to)
    : arch_(arch),
      match_quorum_(arch->config().f_e + 1),
      from_(from),
      to_(to),
      planes_(arch->shard_count()) {
  for (uint32_t s = 0; s < arch->shard_count(); ++s) {
    planes_[s].primary = arch->plane(s)->CurrentPrimary();
  }
  arch_->network()->SetDeliveryObserver(
      [this](const sbft::sim::Envelope& env) { OnDelivery(env); });
}

Tracer::~Tracer() { arch_->network()->SetDeliveryObserver(nullptr); }

template <typename T>
T& Tracer::Grow(std::vector<T>& v, size_t index) {
  if (index >= v.size()) v.resize(std::max(index + 1, v.size() * 2));
  return v[index];
}

void Tracer::OnDelivery(const sbft::sim::Envelope& env) {
  const auto* msg =
      static_cast<const sbft::shim::Message*>(env.message.get());
  if (msg == nullptr) return;
  const int kind = static_cast<int>(msg->kind);
  const SimTime now = arch_->simulator()->now();
  const int role = RoleOf(env.to);
  if (InWindow(now) && kind < kKinds) {
    RoleKind& c = cells_[role][kind];
    ++c.count;
    c.wait_ms += Ms(now - env.delivered_at);
    waits_[role].push_back(now - env.delivered_at);
  }
  switch (role) {
    case kRoleShim:
      if (msg->kind == MsgKind::kClientRequest &&
          RoleOf(env.from) == kRoleSource) {
        // Cross-shard requests reach the coordinator instead (below).
        const auto& req =
            static_cast<const sbft::shim::ClientRequestMsg&>(*msg);
        SimTime& due = Grow(due_, req.txn.id);
        if (due == 0 || env.sent_at < due) due = env.sent_at;
      } else {
        OnShim(env, now);
      }
      break;
    case kRoleVerifier:
      OnVerifier(env, now);
      break;
    case kRoleStorage:
      if (msg->kind == MsgKind::kStorageRead) {
        const uint32_t plane = (env.to - Architecture::kStorageId) / 1000;
        const ActorId first = ShardPlane::FirstExecutorId(plane);
        if (plane < planes_.size() && env.from >= first) {
          Grow(planes_[plane].exec_read, env.from - first) = env.sent_at;
        }
      }
      break;
    case kRoleCoordinator:
      OnCoordinator(env, now);
      break;
    case kRoleSource:
      if (msg->kind == MsgKind::kResponse) OnResponse(env, now);
      break;
    default:
      break;
  }
}

void Tracer::OnResponse(const sbft::sim::Envelope& env, SimTime now) {
  const auto& resp =
      static_cast<const sbft::shim::ResponseMsg&>(*env.message);
  const TxnId txn = resp.txn_id;
  uint8_t& answered = Grow(answered_, txn);
  if (answered != 0) return;  // The source ignores later duplicates.
  answered = 1;
  if (resp.aborted || !InWindow(now)) return;
  const SimTime due = txn < due_.size() ? due_[txn] : 0;

  // Stamps s[0..8] bound the eight phases: s[0] is the due time and
  // s[8] the delivery, so the phases always sum to the latency.
  SimTime s[kNumPhases + 1] = {};
  s[0] = due;
  s[kNumPhases] = now;
  s[kRespond] = env.sent_at;
  const bool cross = RoleOf(env.from) == kRoleCoordinator;
  uint32_t plane = 0;
  sbft::SeqNum seq = 0;
  if (cross) {
    ++traced_cross_;
    if (txn < votes_.size()) {
      // The deciding vote: the last one processed before the decision.
      const VoteStamp* best = nullptr;
      for (const VoteStamp& v : votes_[txn]) {
        if (v.processed == 0 || v.processed > env.sent_at) continue;
        if (best == nullptr || v.processed > best->processed) best = &v;
      }
      if (best != nullptr) {
        plane = best->shard;
        seq = best->seq;
        s[kCoordVote] = best->sent;
        s[kCoordDecide] = best->arrived;
      }
    }
  } else {
    plane = (env.from - Architecture::kVerifierId) / 1000;
    seq = resp.seq;
    s[kCoordVote] = env.sent_at;
    s[kCoordDecide] = env.sent_at;
  }
  if (seq != 0 && plane < planes_.size() &&
      seq < planes_[plane].seqs.size()) {
    const PlaneState& ps = planes_[plane];
    const SeqStamp& st = ps.seqs[seq];
    s[kOrder] = st.preprepare;
    s[kSpawn] = st.committed;
    const ActorId first = ShardPlane::FirstExecutorId(plane);
    if (st.crit_exec >= first && st.crit_exec - first < ps.exec_read.size()) {
      s[kExec] = ps.exec_read[st.crit_exec - first];
    }
    s[kVerify] = st.crit_verify;
    if (st.first_verify != 0 && st.crit_verify >= st.first_verify) {
      match_sum_ms_ += Ms(st.crit_verify - st.first_verify);
    }
  }
  bool gap = due == 0;
  if (gap) s[0] = now;
  for (int i = 1; i < kNumPhases; ++i) {
    if (s[i] == 0) {
      gap = true;
      s[i] = s[i - 1];
    }
    s[i] = std::clamp(s[i], s[i - 1], s[kNumPhases]);
  }
  if (gap) ++incomplete_;
  ++traced_;
  for (int p = 0; p < kNumPhases; ++p) {
    const int64_t d = s[p + 1] - s[p];
    phases_[p].sum_ms += Ms(d);
    if (!cross && (p == kCoordVote || p == kCoordDecide)) continue;
    phases_[p].samples.push_back(d);
  }
}

void Tracer::OnShim(const sbft::sim::Envelope& env, SimTime now) {
  const uint32_t plane = (env.to - 1) / 10000;
  if (plane >= planes_.size()) return;
  PlaneState& ps = planes_[plane];
  const auto& msg = static_cast<const sbft::shim::Message&>(*env.message);
  switch (msg.kind) {
    case MsgKind::kPrePrepare: {
      const auto& pp = static_cast<const sbft::shim::PrePrepareMsg&>(msg);
      SeqStamp& st = Grow(ps.seqs, pp.seq);
      st.preprepare = std::max(st.preprepare, env.sent_at);
      break;
    }
    case MsgKind::kPrepare:
    case MsgKind::kCommit: {
      // The primary spawns executors the moment it commits; that commit
      // happens while handling one of these, so the observer (which runs
      // right after the handler) sees the exact instant.
      if (env.to != ps.primary) break;
      const sbft::SeqNum seq =
          msg.kind == MsgKind::kPrepare
              ? static_cast<const sbft::shim::PrepareMsg&>(msg).seq
              : static_cast<const sbft::shim::CommitMsg&>(msg).seq;
      SeqStamp& st = Grow(ps.seqs, seq);
      if (st.committed != 0) break;
      const uint32_t index = (env.to - 1) % 10000;
      const auto& replicas = arch_->plane(plane)->pbft_replicas();
      if (index < replicas.size() && replicas[index]->HasCommitted(seq)) {
        st.committed = now;
      }
      break;
    }
    case MsgKind::kViewChange:
      if (ps.view_change_start == 0) ps.view_change_start = env.sent_at;
      break;
    case MsgKind::kNewView:
      ps.primary = arch_->plane(plane)->CurrentPrimary();
      if (ps.view_change_start != 0) {
        if (InWindow(now)) {
          view_change_s_ += sbft::ToSeconds(now - ps.view_change_start);
        }
        ps.view_change_start = 0;
      }
      break;
    default:
      break;
  }
}

void Tracer::OnVerifier(const sbft::sim::Envelope& env, SimTime now) {
  const uint32_t plane = (env.to - Architecture::kVerifierId) / 1000;
  if (plane >= planes_.size()) return;
  const auto& msg = static_cast<const sbft::shim::Message&>(*env.message);
  if (msg.kind == MsgKind::kVerify) {
    const auto& v = static_cast<const sbft::shim::VerifyMsg&>(msg);
    SeqStamp& st = Grow(planes_[plane].seqs, v.seq);
    if (st.first_verify == 0) st.first_verify = env.delivered_at;
    if (++st.verifies == match_quorum_) {
      st.crit_verify = env.delivered_at;
      st.crit_exec = env.from;
    }
  } else if (msg.kind == MsgKind::kCoordRedirect && takeover_start_ != 0 &&
             env.from == takeover_member_) {
    if (InWindow(now)) {
      takeover_s_ += sbft::ToSeconds(env.sent_at - takeover_start_);
    }
    takeover_start_ = 0;
  }
}

void Tracer::OnCoordinator(const sbft::sim::Envelope& env, SimTime now) {
  const auto& msg = static_cast<const sbft::shim::Message&>(*env.message);
  switch (msg.kind) {
    case MsgKind::kClientRequest:
      if (RoleOf(env.from) == kRoleSource) {
        const auto& req =
            static_cast<const sbft::shim::ClientRequestMsg&>(msg);
        SimTime& due = Grow(due_, req.txn.id);
        if (due == 0 || env.sent_at < due) due = env.sent_at;
      }
      break;
    case MsgKind::kCoordSyncRequest:
      if (takeover_start_ == 0) {
        takeover_start_ = env.sent_at;
        takeover_member_ = env.from;
      }
      break;
    case MsgKind::kShardVoteCert: {
      const auto& cert = static_cast<const sbft::shim::ShardVoteCertMsg&>(msg);
      for (const auto& share : cert.cert.shares) {
        for (VoteStamp& v : Grow(votes_, share.global_id)) {
          if (v.processed != 0 && v.shard != share.shard) continue;
          if (v.processed == 0) {
            v = VoteStamp{share.shard, share.seq, env.sent_at,
                          env.delivered_at, now};
          }
          break;
        }
      }
      break;
    }
    default:
      break;
  }
}

void Tracer::Finish() {
  for (PhaseStats& p : phases_) std::sort(p.samples.begin(), p.samples.end());
  for (auto& w : waits_) std::sort(w.begin(), w.end());
}

}  // namespace e2e
