#ifndef SBFT_BENCH_E2E_TRACER_H_
#define SBFT_BENCH_E2E_TRACER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "core/architecture.h"
#include "workloads.h"

namespace e2e {

/// \brief Exact latency of every committed transaction the sources
/// record, on either engine.
///
/// Each source asks its latency resolver which histogram to record into
/// right before recording `now - sent_at`. The tap answers with the
/// usual plane histogram and remembers that histogram's running sum; the
/// next call (or Finish) reads the recorded value back as the difference
/// of sums, which is exact to well under a nanosecond. Latency is timed
/// from the due time: the source stamps `sent_at` at arrival. The
/// sources' own histograms, and therefore the simulation, are untouched.
class LatencyTap {
 public:
  LatencyTap(sbft::core::Architecture* arch, const Workload& workload);

  LatencyTap(const LatencyTap&) = delete;
  LatencyTap& operator=(const LatencyTap&) = delete;

  /// Reads back the last value and sorts; call after the run.
  void Finish();

  /// Committed latencies in the measurement window, ns, sorted.
  const std::vector<int64_t>& latencies() const { return latencies_; }
  /// Per fault: simulated seconds from injection to the first commit of
  /// a request due after it that needs the failed component (-1 when
  /// none committed before the window ended).
  const std::vector<double>& outages() const { return outages_; }

 private:
  sbft::Histogram* OnRecord(const sbft::workload::Transaction& txn);
  void Harvest();
  bool Needs(size_t fault, const sbft::workload::Transaction& txn) const;

  sbft::core::Architecture* arch_;
  const Workload& workload_;
  std::vector<int64_t> latencies_;
  std::vector<double> outages_;
  sbft::Histogram* pending_ = nullptr;
  uint64_t pending_count_ = 0;
  double pending_sum_ = 0;
  sbft::SimTime pending_at_ = 0;
  /// Per fault: whether the pending transaction needs that component.
  std::vector<bool> pending_needs_;
};

/// Phases of one committed transaction's latency, in commit-path order.
/// Single-shard transactions leave the two coordinator phases at zero.
enum Phase {
  kBatchWait = 0,  ///< Due time -> PRE-PREPARE carrying it sent.
  kOrder,          ///< -> commit quorum at the primary (spawn point).
  kSpawn,          ///< -> critical executor's storage read sent.
  kExec,           ///< -> its VERIFY reaches the verifier.
  kVerify,         ///< -> RESPONSE (or 2PC vote share) sent.
  kCoordVote,      ///< -> the deciding vote reaches the coordinator.
  kCoordDecide,    ///< -> coordinator's RESPONSE sent.
  kRespond,        ///< -> RESPONSE delivered to the source.
  kNumPhases,
};

const char* PhaseName(int phase);

/// Receiver roles, for the (role, kind) delivery tables.
enum Role {
  kRoleShim = 0,
  kRoleVerifier,
  kRoleStorage,
  kRoleExecutor,
  kRoleCoordinator,
  kRoleSource,
  kRoleOther,
  kNumRoles,
};

/// Role of the actor with this id (pure id-block arithmetic).
int RoleOf(sbft::ActorId id);

/// \brief Delivery observer that splits each committed transaction's
/// latency into phases.
///
/// The stamps come from message fields the protocol already carries:
/// transaction ids in requests and responses, `seq` in PRE-PREPARE,
/// PREPARE, COMMIT, VERIFY and RESPONSE, `global_id` in vote shares. It
/// also tallies the receive wait (`now - delivered_at`: CPU queue plus
/// service; `delivered_at - sent_at` is network transit) per (role,
/// kind). All
/// state lives in flat arrays indexed by plane, sequence number,
/// executor index, transaction id, or (role, kind).
///
/// The network invokes the observer after OnMessage and it only reads,
/// so the simulation is identical with or without it (the audit heads
/// are compared to prove it). Serial engine only: the parallel engine
/// has no delivery observer.
class Tracer {
 public:
  static constexpr int kKinds = 32;

  Tracer(sbft::core::Architecture* arch, sbft::SimTime from,
         sbft::SimTime to);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void OnDelivery(const sbft::sim::Envelope& env);

  /// Sorts the sample vectors; call after the run.
  void Finish();

  struct PhaseStats {
    double sum_ms = 0;
    /// ns, sorted by Finish(); coordinator phases: cross-shard only.
    std::vector<int64_t> samples;
  };
  const std::array<PhaseStats, kNumPhases>& phases() const {
    return phases_;
  }
  /// Committed window transactions traced (all / cross-shard) and those
  /// with a missing stamp (its phase is folded into the next one).
  uint64_t traced() const { return traced_; }
  uint64_t traced_cross() const { return traced_cross_; }
  uint64_t incomplete() const { return incomplete_; }
  /// Mean ms from the first VERIFY of a transaction's sequence to the
  /// one that completed the match.
  double match_ms_mean() const {
    return traced_ == 0 ? 0 : match_sum_ms_ / static_cast<double>(traced_);
  }

  struct RoleKind {
    uint64_t count = 0;
    double wait_ms = 0;
  };
  const RoleKind& cell(int role, int kind) const {
    return cells_[role][kind];
  }
  /// Receive waits per role, ns, sorted by Finish().
  const std::vector<int64_t>& waits(int role) const { return waits_[role]; }
  /// Simulated seconds shim planes spent between a view change's first
  /// VIEW-CHANGE and its NEW-VIEW; coordinator members between a
  /// takeover's first sync request and their redirect broadcast.
  double view_change_s() const { return view_change_s_; }
  double takeover_s() const { return takeover_s_; }

 private:
  struct SeqStamp {
    sbft::SimTime preprepare = 0;
    sbft::SimTime committed = 0;
    sbft::SimTime first_verify = 0;
    sbft::SimTime crit_verify = 0;
    sbft::ActorId crit_exec = 0;
    uint32_t verifies = 0;
  };
  struct VoteStamp {
    uint32_t shard = 0;
    sbft::SeqNum seq = 0;
    sbft::SimTime sent = 0;
    sbft::SimTime arrived = 0;
    sbft::SimTime processed = 0;
  };
  struct PlaneState {
    sbft::ActorId primary = 0;
    std::vector<SeqStamp> seqs;
    std::vector<sbft::SimTime> exec_read;
    sbft::SimTime view_change_start = 0;
  };

  template <typename T>
  static T& Grow(std::vector<T>& v, size_t index);
  bool InWindow(sbft::SimTime t) const { return t > from_ && t <= to_; }

  void OnResponse(const sbft::sim::Envelope& env, sbft::SimTime now);
  void OnShim(const sbft::sim::Envelope& env, sbft::SimTime now);
  void OnVerifier(const sbft::sim::Envelope& env, sbft::SimTime now);
  void OnCoordinator(const sbft::sim::Envelope& env, sbft::SimTime now);

  sbft::core::Architecture* arch_;
  uint32_t match_quorum_;
  sbft::SimTime from_;
  sbft::SimTime to_;

  /// Indexed by transaction id (dense from 1): due time and whether the
  /// source already had its first answer.
  std::vector<sbft::SimTime> due_;
  std::vector<uint8_t> answered_;
  /// Indexed by global transaction id: the first vote share per shard.
  std::vector<std::array<VoteStamp, 2>> votes_;
  std::vector<PlaneState> planes_;

  std::array<PhaseStats, kNumPhases> phases_;
  uint64_t traced_ = 0;
  uint64_t traced_cross_ = 0;
  uint64_t incomplete_ = 0;
  double match_sum_ms_ = 0;

  RoleKind cells_[kNumRoles][kKinds];
  std::vector<int64_t> waits_[kNumRoles];
  double view_change_s_ = 0;
  double takeover_s_ = 0;
  sbft::SimTime takeover_start_ = 0;
  sbft::ActorId takeover_member_ = 0;
};

}  // namespace e2e

#endif  // SBFT_BENCH_E2E_TRACER_H_
