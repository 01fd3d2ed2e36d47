#include "serverless/executor.h"

#include "common/logging.h"
#include "crypto/sha256.h"

namespace sbft::serverless {

ExecutorFunction::ExecutorFunction(
    ActorId id, std::shared_ptr<const shim::ExecuteMsg> work,
    ActorId verifier, ActorId storage, uint32_t shim_quorum,
    crypto::KeyRegistry* keys, sim::Simulator* sim, sim::Network* net,
    ExecutorBehavior behavior, DoneCallback done)
    : Actor(id, "executor-" + std::to_string(id)),
      work_(std::move(work)),
      verifier_(verifier),
      storage_(storage),
      shim_quorum_(shim_quorum),
      keys_(keys),
      sim_(sim),
      net_(net),
      behavior_(behavior),
      done_(std::move(done)) {}

void ExecutorFunction::Start() {
  // Step (i) of the function body (paper §VIII): verify the certificate C
  // before executing. Invalid or sub-quorum certificates abort the
  // function — this is what defeats spawns from stale/forged EXECUTE
  // messages (§V-C duplicate spawning by non-primary).
  SimDuration validate_cost =
      kExecutorCosts.base +
      kExecutorCosts.per_sig_verify *
          static_cast<SimDuration>(work_->cert->signatures.size() + 1);
  sim_->Schedule(validate_cost, [this]() {
    if (killed_) return;
    if (!keys_->Verify(work_->sender,
                       shim::ExecuteMsg::SigningBytes(
                           work_->view, work_->seq, work_->digest),
                       work_->spawner_sig)) {
      SBFT_LOG(kDebug) << name() << " rejecting EXECUTE: bad spawner sig";
      Finish();
      return;
    }
    if (!work_->cert->Validate(*keys_, shim_quorum_).ok() ||
        work_->cert->seq != work_->seq ||
        work_->cert->digest != work_->digest) {
      SBFT_LOG(kDebug) << name() << " rejecting EXECUTE: bad certificate";
      Finish();
      return;
    }
    if (work_->batch->Hash() != work_->digest) {
      SBFT_LOG(kDebug) << name() << " rejecting EXECUTE: batch/digest mismatch";
      Finish();
      return;
    }
    FetchReadSet();
  });
}

void ExecutorFunction::FetchReadSet() {
  // Steps (ii)-(iii): gather the keys the batch touches and fetch their
  // current state from the on-premise storage (Fig. 3 lines 16-18).
  auto read = std::make_shared<shim::StorageReadMsg>(id());
  read->request_id = ++read_request_id_;
  for (const workload::TxnPtr& txn : work_->batch->txns) {
    for (const workload::Operation& op : txn->ops) {
      if (op.type != workload::OpType::kCompute) {
        read->keys.push_back(op.key);
      }
    }
  }
  if (read->keys.empty()) {
    // Pure-compute (or empty) batch: skip the storage round trip.
    shim::StorageReadReplyMsg empty(storage_);
    empty.request_id = read->request_id;
    Execute(empty);
    return;
  }
  net_->Send(id(), storage_, read, read->WireSize());
}

void ExecutorFunction::OnMessage(const sim::Envelope& env) {
  const auto* reply =
      shim::MessageAs<shim::StorageReadReplyMsg>(env, shim::MsgKind::kStorageReadReply);
  if (reply == nullptr || finished_ || executing_ || killed_) return;
  if (reply->request_id != read_request_id_) return;
  Execute(*reply);
}

void ExecutorFunction::Execute(const shim::StorageReadReplyMsg& reply) {
  executing_ = true;  // The network may duplicate replies (§IV-E).
  // Build key -> (value, version) view of the fetched state.
  std::unordered_map<std::string, const shim::StorageReadReplyMsg::Item*>
      fetched;
  for (const auto& item : reply.items) {
    fetched[item.key] = &item;
  }

  // The canonical result r covers the state transition (batch + write
  // set), which honest executors compute identically regardless of when
  // they fetched their reads; read versions are carried separately in
  // each transaction's read/write set and matched only under the §VI
  // conflict regime. A byzantine executor corrupting either the writes
  // or the result bytes breaks the f_E+1 match.
  crypto::Sha256 result_hash;
  result_hash.Update(work_->digest.data(), crypto::Digest::kSize);
  SimDuration compute = 0;
  // Transactions in the batch execute in parallel inside the function's
  // elastic environment (paper §IX-I: "if transactions can be executed in
  // parallel, [the] model is only bounded by the rate of consensus and
  // the number of executors"), so heavy per-transaction compute costs the
  // batch its *maximum*, not its sum. Fixed per-txn overheads still add.
  SimDuration max_txn_compute = 0;

  // Transactions in the batch execute in shim order against a local
  // write-through view ("any intermediate results are stored locally",
  // §IV-C): a later transaction sees the buffered writes — and the
  // version bumps — of earlier ones, exactly as the verifier will apply
  // them.
  std::unordered_map<std::string, uint64_t> local_version;
  auto version_of = [&](const std::string& key) -> uint64_t {
    auto lit = local_version.find(key);
    if (lit != local_version.end()) return lit->second;
    auto it = fetched.find(key);
    return (it != fetched.end() && it->second->found) ? it->second->version
                                                      : 0;
  };

  std::vector<storage::RwSet> txn_rws;
  txn_rws.reserve(work_->batch->txns.size());
  for (const workload::TxnPtr& txn : work_->batch->txns) {
    compute += kExecutorCosts.per_txn;
    SimDuration txn_compute = 0;
    storage::RwSet txn_rw;
    for (const workload::Operation& op : txn->ops) {
      switch (op.type) {
        case workload::OpType::kRead: {
          txn_rw.reads.push_back({op.key, version_of(op.key)});
          break;
        }
        case workload::OpType::kWrite: {
          // Reads-before-writes: record the version we overwrite so the
          // verifier can detect write-write conflicts too.
          uint64_t version = version_of(op.key);
          txn_rw.reads.push_back({op.key, version});
          txn_rw.writes.push_back({op.key, op.value});
          local_version[op.key] = version + 1;  // Buffered write.
          result_hash.Update(op.key);
          result_hash.Update(op.value);
          break;
        }
        case workload::OpType::kCompute:
          txn_compute += op.compute_cost;
          break;
      }
    }
    max_txn_compute = std::max(max_txn_compute, txn_compute);
    txn_rws.push_back(std::move(txn_rw));
  }
  compute += max_txn_compute;

  Bytes result = result_hash.Finish().ToBytes();
  // Step (iv): execute (charge the compute time), then send the result.
  sim_->Schedule(compute, [this, txn_rws = std::move(txn_rws),
                           result = std::move(result)]() mutable {
    if (killed_) return;
    if (behavior_ == ExecutorBehavior::kWrongResult) {
      // Arbitrary fault: flip the result. The rw sets stay plausible, so
      // only the f_E+1 matching rule at the verifier filters this out.
      result[0] ^= 0xff;
    }
    if (behavior_ == ExecutorBehavior::kSilent) {
      Finish();  // Omission fault: never report.
      return;
    }
    SendVerify(std::move(txn_rws), std::move(result));
  });
}

void ExecutorFunction::SendVerify(std::vector<storage::RwSet> txn_rws,
                                  Bytes result) {
  auto verify = std::make_shared<shim::VerifyMsg>(id());
  verify->view = work_->view;
  verify->seq = work_->seq;
  verify->batch_digest = work_->digest;
  verify->cert = work_->cert;
  verify->txn_rws = std::move(txn_rws);
  verify->result = std::move(result);
  for (const workload::TxnPtr& txn : work_->batch->txns) {
    verify->txn_refs.push_back(
        {txn->id, txn->client, txn->floor, txn->global_id, txn->coordinator});
  }
  verify->executor_sig = keys_->Sign(
      id(), shim::VerifyMsg::SigningBytes(verify->view, verify->seq,
                                          verify->batch_digest,
                                          verify->txn_rws, verify->result));
  int copies = behavior_ == ExecutorBehavior::kDuplicateVerify ? 4 : 1;
  for (int i = 0; i < copies; ++i) {
    net_->Send(id(), verifier_, verify, verify->WireSize());
  }
  Finish();
}

void ExecutorFunction::Finish() {
  if (finished_ || killed_) return;
  finished_ = true;
  if (done_) done_(id());
}

}  // namespace sbft::serverless
