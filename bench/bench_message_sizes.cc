// §IX setup table: wire sizes of the protocol messages, side by side with
// the sizes the paper reports for its implementation (PREPREPARE 5392 B,
// PREPARE 216 B, COMMIT 220 B, EXECUTE 3320 B, RESPONSE 2270 B at batch
// size 100).

#include <cstdio>

#include "crypto/keys.h"
#include "shim/message.h"
#include "workload/ycsb.h"

int main() {
  using namespace sbft;

  crypto::KeyRegistry keys(crypto::CryptoMode::kFast, 1);
  for (ActorId id = 0; id < 16; ++id) keys.RegisterNode(id);

  workload::YcsbConfig wconfig;
  wconfig.record_count = 600000;
  workload::YcsbGenerator gen(wconfig, Rng(7));
  workload::TransactionBatch batch;
  for (int i = 0; i < 100; ++i) {
    batch.txns.push_back(workload::ShareTxn(gen.Next(1000)));
  }
  workload::BatchPtr shared_batch = workload::ShareBatch(std::move(batch));
  crypto::Digest digest = shared_batch->Hash();

  crypto::CommitCertificate cert;
  cert.view = 0;
  cert.seq = 1;
  cert.digest = digest;
  Bytes commit_bytes = crypto::CommitSigningBytes(0, 1, digest);
  for (ActorId id = 0; id < 3; ++id) {  // 2f_R+1 of a 4-node shim.
    cert.signatures.push_back({id, keys.Sign(id, commit_bytes)});
  }

  shim::PrePrepareMsg preprepare(0);
  preprepare.view = 0;
  preprepare.seq = 1;
  preprepare.batch = shared_batch;
  preprepare.digest = digest;

  shim::PrepareMsg prepare(1);
  prepare.view = 0;
  prepare.seq = 1;
  prepare.digest = digest;

  shim::CommitMsg commit(1);
  commit.view = 0;
  commit.seq = 1;
  commit.digest = digest;
  commit.ds = keys.Sign(1, commit_bytes);

  shim::ExecuteMsg execute(0);
  execute.view = 0;
  execute.seq = 1;
  execute.batch = shared_batch;
  execute.digest = digest;
  execute.cert =
      std::make_shared<const crypto::CommitCertificate>(cert);
  execute.spawner_sig = keys.Sign(0, shim::ExecuteMsg::SigningBytes(0, 1, digest));

  // One read/write set per transaction, aligned with txn_refs, as
  // ExecutorFunction::Execute records them: every read and write op reads
  // its key, and a write also buffers its value.
  shim::VerifyMsg verify(9);
  verify.seq = 1;
  verify.batch_digest = digest;
  verify.cert = execute.cert;
  verify.result = Bytes(32, 'r');
  for (const workload::TxnPtr& txn : shared_batch->txns) {
    storage::RwSet& rw = verify.txn_rws.emplace_back();
    for (const workload::Operation& op : txn->ops) {
      if (op.type == workload::OpType::kCompute) continue;
      rw.reads.push_back({op.key, 1});
      if (op.type == workload::OpType::kWrite) {
        rw.writes.push_back({op.key, op.value});
      }
    }
    verify.txn_refs.push_back({txn->id, txn->client});
  }
  verify.executor_sig = Bytes(32, 's');

  shim::ResponseMsg response(9);
  response.txn_id = 1;
  response.client = 1000;
  response.seq = 1;
  response.batch_digest = digest;
  response.result = Bytes(32, 'r');

  std::printf("message sizes at batch=100 (paper §IX setup table)\n");
  std::printf("%-12s %12s %14s\n", "message", "ours(B)", "paper(B)");
  std::printf("%-12s %12zu %14s\n", "PREPREPARE", preprepare.WireSize(), "5392");
  std::printf("%-12s %12zu %14s\n", "PREPARE", prepare.WireSize(), "216");
  std::printf("%-12s %12zu %14s\n", "COMMIT", commit.WireSize(), "220");
  std::printf("%-12s %12zu %14s\n", "EXECUTE", execute.WireSize(), "3320");
  std::printf("%-12s %12zu %14s\n", "VERIFY", verify.WireSize(), "(n/a)");
  std::printf("%-12s %12zu %14s\n", "RESPONSE", response.WireSize(), "2270");

  // Threshold-signature remark (§IV-C): compact certificates shrink C.
  crypto::CompactCertificate compact = crypto::CompactCertificate::FromFull(cert);
  std::printf("\ncertificate C: full=%zu B, threshold-style compact=%zu B\n",
              EncodedSize(cert), EncodedSize(compact));

  // Featherweight checkpoints (§V-B): the paper's point is that classic
  // checkpoints carry "all the client requests and the proof that they
  // are committed" while the shim's featherweight variant carries only
  // the signed proofs. Compare one checkpoint covering 128 sequences.
  constexpr int kInterval = 128;
  shim::CheckpointMsg feather(0);
  feather.upto_seq = kInterval;
  size_t full_bytes = 0;
  {
    Encoder full_enc = Encoder::Counter();
    for (int i = 0; i < kInterval; ++i) {
      feather.certs.push_back(compact);
      // Full variant: the batch itself plus the full commit certificate.
      shared_batch->EncodeTo(&full_enc);
      cert.EncodeTo(&full_enc);
    }
    full_bytes = full_enc.size();
  }
  std::printf(
      "\ncheckpoint covering %d sequences (batch=100):\n"
      "  classic (requests + full commit proofs) : %10zu B\n"
      "  featherweight (compact certs only)      : %10zu B  (%.0fx smaller)\n",
      kInterval, full_bytes, feather.WireSize(),
      static_cast<double>(full_bytes) /
          static_cast<double>(feather.WireSize()));
  return 0;
}
