#ifndef SBFT_SERVERLESS_EXECUTOR_H_
#define SBFT_SERVERLESS_EXECUTOR_H_

#include <functional>
#include <memory>
#include <unordered_map>

#include "crypto/keys.h"
#include "shim/message.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace sbft::serverless {

/// Byzantine policy of one executor (paper §III: up to f_E of the n_E
/// spawned executors can fail arbitrarily).
enum class ExecutorBehavior : uint8_t {
  kHonest = 0,
  kWrongResult = 1,      ///< Computes then corrupts the result.
  kSilent = 2,           ///< Executes but never sends VERIFY.
  kDuplicateVerify = 3,  ///< Floods the verifier with duplicate VERIFYs
                         ///< (§V-C attack iii).
};

/// CPU cost constants of the executor function (DESIGN.md §16).
struct ExecutorCostModel {
  /// Verifying one DS inside the certificate C.
  SimDuration per_sig_verify = Micros(60);
  /// Fixed overhead per transaction executed (interpreting ops,
  /// serialization).
  SimDuration per_txn = Micros(3);
  /// Fixed startup work (decode EXECUTE, hash batch).
  SimDuration base = Micros(50);
};

/// The one cost table every executor reads.
inline constexpr ExecutorCostModel kExecutorCosts{};

/// \brief One stateless serverless function instance (paper §IV-C, §VIII
/// "Serverless Function").
///
/// Lifecycle: spawn (cloud start latency) -> validate certificate C ->
/// fetch read-set state from storage (Fig. 3 lines 17-18) -> execute the
/// batch locally, recording one read/write set per transaction -> send
/// VERIFY, signed over those sets and the result, to the verifier ->
/// terminate. Executors never write to storage and never talk to each
/// other. Validating and executing each cost CPU time, charged as one
/// simulator delay: the steps run one after the other, so they never
/// wait for a core.
class ExecutorFunction : public sim::Actor {
 public:
  /// Invoked when the function finishes (or would have, for byzantine
  /// variants); the cloud uses it for billing and slot release.
  using DoneCallback = std::function<void(ActorId executor)>;

  ExecutorFunction(ActorId id, std::shared_ptr<const shim::ExecuteMsg> work,
                   ActorId verifier, ActorId storage, uint32_t shim_quorum,
                   crypto::KeyRegistry* keys, sim::Simulator* sim,
                   sim::Network* net, ExecutorBehavior behavior,
                   DoneCallback done);

  /// Begins the function body (called by the cloud after start latency).
  void Start();

  /// Crash-stops the function (fault engine): all in-flight and future
  /// work silently evaporates; no VERIFY will ever be sent and the done
  /// callback never fires.
  void Kill() { killed_ = true; }
  bool killed() const { return killed_; }

  void OnMessage(const sim::Envelope& env) override;

  ExecutorBehavior behavior() const { return behavior_; }

 private:
  void FetchReadSet();
  void Execute(const shim::StorageReadReplyMsg& reply);
  void SendVerify(std::vector<storage::RwSet> txn_rws, Bytes result);
  void Finish();

  std::shared_ptr<const shim::ExecuteMsg> work_;
  ActorId verifier_;
  ActorId storage_;
  uint32_t shim_quorum_;
  crypto::KeyRegistry* keys_;
  sim::Simulator* sim_;
  sim::Network* net_;
  ExecutorBehavior behavior_;
  DoneCallback done_;
  uint64_t read_request_id_ = 0;
  bool executing_ = false;  // Guards against duplicated storage replies.
  bool finished_ = false;
  bool killed_ = false;  // Crash-stopped by the fault engine.
};

}  // namespace sbft::serverless

#endif  // SBFT_SERVERLESS_EXECUTOR_H_
