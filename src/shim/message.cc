#include "shim/message.h"

namespace sbft::shim {

const char* MsgKindName(MsgKind kind) {
  switch (kind) {
    case MsgKind::kClientRequest:
      return "CLIENT_REQUEST";
    case MsgKind::kPrePrepare:
      return "PREPREPARE";
    case MsgKind::kPrepare:
      return "PREPARE";
    case MsgKind::kCommit:
      return "COMMIT";
    case MsgKind::kExecute:
      return "EXECUTE";
    case MsgKind::kVerify:
      return "VERIFY";
    case MsgKind::kResponse:
      return "RESPONSE";
    case MsgKind::kError:
      return "ERROR";
    case MsgKind::kReplace:
      return "REPLACE";
    case MsgKind::kAck:
      return "ACK";
    case MsgKind::kViewChange:
      return "VIEWCHANGE";
    case MsgKind::kNewView:
      return "NEWVIEW";
    case MsgKind::kCheckpoint:
      return "CHECKPOINT";
    case MsgKind::kStorageRead:
      return "STORAGE_READ";
    case MsgKind::kStorageReadReply:
      return "STORAGE_READ_REPLY";
    case MsgKind::kPaxosAccept:
      return "PAXOS_ACCEPT";
    case MsgKind::kPaxosAccepted:
      return "PAXOS_ACCEPTED";
    case MsgKind::kLinearVote:
      return "LINEAR_VOTE";
    case MsgKind::kLinearCert:
      return "LINEAR_CERT";
    case MsgKind::kShardCommitDecision:
      return "SHARD_COMMIT_DECISION";
    case MsgKind::kShardVoteCert:
      return "SHARD_VOTE_CERT";
    case MsgKind::kCoordAppend:
      return "COORD_APPEND";
    case MsgKind::kCoordAck:
      return "COORD_ACK";
    case MsgKind::kCoordSyncRequest:
      return "COORD_SYNC_REQUEST";
    case MsgKind::kCoordSyncReply:
      return "COORD_SYNC_REPLY";
    case MsgKind::kCoordRedirect:
      return "COORD_REDIRECT";
    case MsgKind::kPaxosPrepare:
      return "PAXOS_PREPARE";
    case MsgKind::kPaxosPromise:
      return "PAXOS_PROMISE";
  }
  return "UNKNOWN";
}

Bytes Message::Serialized() const {
  Encoder enc;
  Encode(&enc);
  return enc.TakeBuffer();
}

size_t Message::WireSize() const {
  Encoder counter = Encoder::Counter();
  Encode(&counter);
  return counter.size() + ExtraWireBytes();
}

void Message::Encode(Encoder* enc) const {
  enc->PutU8(static_cast<uint8_t>(kind));
  enc->PutU32(sender);
  BuildWire(enc);
}

Bytes ClientRequestMsg::SigningBytes(const workload::Transaction& txn) {
  Encoder enc;
  enc.PutString("sbft-client-request");
  txn.EncodeTo(&enc);
  return enc.TakeBuffer();
}

void ClientRequestMsg::BuildWire(Encoder* enc) const {
  txn.EncodeTo(enc);
  enc->PutBytes(client_sig);
}

void PrePrepareMsg::BuildWire(Encoder* enc) const {
  enc->PutU64(view);
  enc->PutU64(seq);
  batch->EncodeTo(enc);
  enc->PutRaw(digest.data(), crypto::Digest::kSize);
}

void PrepareMsg::BuildWire(Encoder* enc) const {
  enc->PutU64(view);
  enc->PutU64(seq);
  enc->PutRaw(digest.data(), crypto::Digest::kSize);
}

void CommitMsg::BuildWire(Encoder* enc) const {
  enc->PutU64(view);
  enc->PutU64(seq);
  enc->PutRaw(digest.data(), crypto::Digest::kSize);
  enc->PutBytes(ds);
}

Bytes ExecuteMsg::SigningBytes(ViewNum view, SeqNum seq,
                               const crypto::Digest& digest) {
  Encoder enc;
  enc.PutString("sbft-execute");
  enc.PutU64(view);
  enc.PutU64(seq);
  enc.PutRaw(digest.data(), crypto::Digest::kSize);
  return enc.TakeBuffer();
}

void ExecuteMsg::BuildWire(Encoder* enc) const {
  enc->PutU64(view);
  enc->PutU64(seq);
  batch->EncodeTo(enc);
  enc->PutRaw(digest.data(), crypto::Digest::kSize);
  cert->EncodeTo(enc);
  enc->PutBytes(spawner_sig);
}

Bytes VerifyMsg::SigningBytes(ViewNum view, SeqNum seq,
                              const crypto::Digest& batch_digest,
                              const std::vector<storage::RwSet>& txn_rws,
                              const Bytes& result) {
  Encoder enc;
  enc.PutString("sbft-verify");
  enc.PutU64(view);
  enc.PutU64(seq);
  enc.PutRaw(batch_digest.data(), crypto::Digest::kSize);
  enc.PutVarint(txn_rws.size());
  for (const storage::RwSet& txn_rw : txn_rws) txn_rw.EncodeTo(&enc);
  enc.PutBytes(result);
  return enc.TakeBuffer();
}

void VerifyMsg::BuildWire(Encoder* enc) const {
  enc->PutU64(view);
  enc->PutU64(seq);
  enc->PutRaw(batch_digest.data(), crypto::Digest::kSize);
  cert->EncodeTo(enc);
  enc->PutVarint(txn_rws.size());
  for (const storage::RwSet& txn_rw : txn_rws) {
    txn_rw.EncodeTo(enc);
  }
  enc->PutVarint(txn_refs.size());
  for (const TxnRef& ref : txn_refs) {
    enc->PutU64(ref.id);
    enc->PutU32(ref.client);
    enc->PutVarint(ref.id - ref.floor);
  }
  enc->PutBytes(result);
  enc->PutBytes(executor_sig);
  // Fragment metadata rides in a trailing *indexed* section, emitted
  // only when at least one ref is a cross-shard fragment: batches without
  // fragments carry none of it, and carrying the ref index explicitly
  // keeps the encoding injective (a per-ref conditional field would let
  // two different ref lists collide on the same bytes).
  size_t fragments = 0;
  for (const TxnRef& ref : txn_refs) {
    if (ref.IsFragment()) ++fragments;
  }
  if (fragments > 0) {
    enc->PutVarint(fragments);
    for (size_t i = 0; i < txn_refs.size(); ++i) {
      const TxnRef& ref = txn_refs[i];
      if (!ref.IsFragment()) continue;
      enc->PutVarint(i);
      enc->PutU64(ref.global_id.id);
      enc->PutU32(ref.global_id.client);
      enc->PutU32(ref.coordinator);
    }
  }
}

void ResponseMsg::BuildWire(Encoder* enc) const {
  enc->PutU64(txn_id);
  enc->PutU32(client);
  enc->PutU64(seq);
  enc->PutRaw(batch_digest.data(), crypto::Digest::kSize);
  enc->PutBytes(result);
  enc->PutBool(aborted);
}

void ErrorMsg::BuildWire(Encoder* enc) const {
  enc->PutU8(static_cast<uint8_t>(reason));
  enc->PutU64(kmax);
  enc->PutRaw(txn_digest.data(), crypto::Digest::kSize);
  enc->PutBool(has_txn);
  if (has_txn) {
    txn.EncodeTo(enc);
  }
}

void ReplaceMsg::BuildWire(Encoder* enc) const {
  enc->PutRaw(txn_digest.data(), crypto::Digest::kSize);
}

void AckMsg::BuildWire(Encoder* enc) const {
  enc->PutBool(has_seq);
  enc->PutU64(kmax);
  enc->PutRaw(txn_digest.data(), crypto::Digest::kSize);
}

void PreparedProof::EncodeTo(Encoder* enc) const {
  enc->PutU64(view);
  enc->PutU64(seq);
  enc->PutRaw(digest.data(), crypto::Digest::kSize);
  batch->EncodeTo(enc);
}

Bytes ViewChangeMsg::SigningBytes(ViewNum new_view, SeqNum stable_seq) {
  Encoder enc;
  enc.PutString("sbft-viewchange");
  enc.PutU64(new_view);
  enc.PutU64(stable_seq);
  return enc.TakeBuffer();
}

void ViewChangeMsg::BuildWire(Encoder* enc) const {
  enc->PutU64(new_view);
  enc->PutU64(stable_seq);
  enc->PutVarint(prepared.size());
  for (const PreparedProof& p : prepared) {
    p.EncodeTo(enc);
  }
  enc->PutBytes(ds);
}

Bytes NewViewMsg::SigningBytes(ViewNum view, size_t reproposal_count) {
  Encoder enc;
  enc.PutString("sbft-newview");
  enc.PutU64(view);
  enc.PutU64(reproposal_count);
  return enc.TakeBuffer();
}

void NewViewMsg::BuildWire(Encoder* enc) const {
  enc->PutU64(view);
  enc->PutVarint(view_change_senders.size());
  for (ActorId id : view_change_senders) {
    enc->PutU32(id);
  }
  enc->PutVarint(reproposals.size());
  for (const PreparedProof& p : reproposals) {
    p.EncodeTo(enc);
  }
  enc->PutBytes(ds);
}

void CheckpointMsg::BuildWire(Encoder* enc) const {
  enc->PutU64(upto_seq);
  enc->PutRaw(cert_log_root.data(), crypto::Digest::kSize);
  enc->PutVarint(certs.size());
  for (const crypto::CompactCertificate& c : certs) {
    c.EncodeTo(enc);
  }
  enc->PutVarint(batches.size());
  for (const PreparedProof& p : batches) {
    p.EncodeTo(enc);
  }
}

void StorageReadMsg::BuildWire(Encoder* enc) const {
  enc->PutU64(request_id);
  enc->PutVarint(keys.size());
  for (const std::string& k : keys) {
    enc->PutString(k);
  }
}

void StorageReadReplyMsg::BuildWire(Encoder* enc) const {
  enc->PutU64(request_id);
  enc->PutVarint(items.size());
  for (const Item& item : items) {
    enc->PutString(item.key);
    enc->PutBytes(item.value);
    enc->PutU64(item.version);
    enc->PutBool(item.found);
  }
}

void PaxosAcceptMsg::BuildWire(Encoder* enc) const {
  enc->PutU64(ballot);
  enc->PutU64(slot);
  batch->EncodeTo(enc);
  enc->PutRaw(digest.data(), crypto::Digest::kSize);
  enc->PutU64(committed_upto);
}

void PaxosAcceptedMsg::BuildWire(Encoder* enc) const {
  enc->PutU64(ballot);
  enc->PutU64(slot);
  enc->PutRaw(digest.data(), crypto::Digest::kSize);
}

Bytes LinearVoteMsg::PrepareSigningBytes(ViewNum view, SeqNum seq,
                                         const crypto::Digest& digest) {
  Encoder enc;
  enc.PutString("sbft-linear-prepare");
  enc.PutU64(view);
  enc.PutU64(seq);
  enc.PutRaw(digest.data(), crypto::Digest::kSize);
  return enc.TakeBuffer();
}

void LinearVoteMsg::BuildWire(Encoder* enc) const {
  enc->PutU8(static_cast<uint8_t>(phase));
  enc->PutU64(view);
  enc->PutU64(seq);
  enc->PutRaw(digest.data(), crypto::Digest::kSize);
  enc->PutBytes(ds);
}

void LinearCertMsg::BuildWire(Encoder* enc) const {
  enc->PutU8(static_cast<uint8_t>(phase));
  cert.EncodeTo(enc);
}

void ShardVoteCertMsg::BuildWire(Encoder* enc) const {
  cert.EncodeTo(enc);
  enc->PutVarint(acked_cseqs.size());
  for (uint64_t cseq : acked_cseqs) {
    enc->PutU64(cseq);
  }
  enc->PutU64(coord_view);
}

void ShardCommitDecisionMsg::BuildWire(Encoder* enc) const {
  enc->PutU64(global_id.id);
  enc->PutU32(global_id.client);
  enc->PutBool(commit);
  // The quorum proof is present only on COMMITs (an empty proof adds no
  // bytes); the watermark piggyback and the view stamp follow it.
  if (!proof.shares.empty()) proof.EncodeTo(enc);
  enc->PutU64(cseq);
  enc->PutU64(watermark);
  enc->PutU64(coord_view);
  enc->PutU32(coord_leader);
}

void CoordAppendMsg::BuildWire(Encoder* enc) const {
  // The gid's client is written after the watermark, not next to its id:
  // the layout the goldens were recorded with.
  enc->PutU64(view);
  enc->PutU64(append_id);
  enc->PutU8(entry);
  enc->PutU64(global_id.id);
  enc->PutBool(commit);
  enc->PutU64(cseq);
  enc->PutU64(watermark);
  enc->PutU32(global_id.client);
  enc->PutVarint(shards.size());
  for (uint32_t s : shards) enc->PutU32(s);
  enc->PutBool(!proof.shares.empty());
  if (!proof.shares.empty()) proof.EncodeTo(enc);
  enc->PutVarint(truncated.size());
  for (const TxnKey& gid : truncated) {
    enc->PutU64(gid.id);
    enc->PutU32(gid.client);
  }
}

void CoordAckMsg::BuildWire(Encoder* enc) const {
  enc->PutU64(view);
  enc->PutU64(append_id);
}

void CoordSyncRequestMsg::BuildWire(Encoder* enc) const {
  enc->PutU64(view);
}

void CoordSyncReplyMsg::BuildWire(Encoder* enc) const {
  enc->PutU64(view);
  enc->PutU64(next_cseq);
  enc->PutU64(watermark);
  enc->PutVarint(decisions.size());
  for (const DecisionEntry& d : decisions) {
    enc->PutU64(d.global_id.id);
    enc->PutU32(d.global_id.client);
    enc->PutBool(d.commit);
    enc->PutU64(d.cseq);
    enc->PutU64(d.view);
    enc->PutBool(!d.proof.shares.empty());
    if (!d.proof.shares.empty()) d.proof.EncodeTo(enc);
  }
  enc->PutVarint(launches.size());
  for (const LaunchEntry& l : launches) {
    enc->PutU64(l.global_id.id);
    enc->PutU32(l.global_id.client);
    enc->PutVarint(l.shards.size());
    for (uint32_t s : l.shards) enc->PutU32(s);
  }
  enc->PutVarint(floors.size());
  for (const TxnKey& floor : floors) {
    enc->PutU64(floor.id);
    enc->PutU32(floor.client);
  }
}

void CoordRedirectMsg::BuildWire(Encoder* enc) const {
  enc->PutU64(view);
  enc->PutU32(leader);
}

void PaxosPrepareMsg::BuildWire(Encoder* enc) const {
  enc->PutU64(ballot);
  enc->PutU64(from_slot);
}

void PaxosPromiseMsg::BuildWire(Encoder* enc) const {
  enc->PutU64(ballot);
  enc->PutU64(commit_frontier);
  enc->PutVarint(entries.size());
  for (const AcceptedEntry& e : entries) {
    enc->PutU64(e.slot);
    enc->PutU64(e.ballot);
    e.batch->EncodeTo(enc);
  }
}

}  // namespace sbft::shim
