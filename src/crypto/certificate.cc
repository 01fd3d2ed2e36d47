#include "crypto/certificate.h"

#include <set>
#include <unordered_set>

#include "crypto/sha256.h"

namespace sbft::crypto {

void Signature::EncodeTo(Encoder* enc) const {
  enc->PutU32(signer);
  enc->PutBytes(sig);
}

Bytes CommitSigningBytes(ViewNum view, SeqNum seq, const Digest& digest) {
  Encoder enc;
  enc.PutString("sbft-commit");
  enc.PutU64(view);
  enc.PutU64(seq);
  enc.PutRaw(digest.data(), Digest::kSize);
  return enc.TakeBuffer();
}

void CommitCertificate::EncodeTo(Encoder* enc) const {
  enc->PutU64(view);
  enc->PutU64(seq);
  enc->PutRaw(digest.data(), Digest::kSize);
  enc->PutVarint(signatures.size());
  for (const Signature& s : signatures) {
    s.EncodeTo(enc);
  }
}

Status CommitCertificate::Validate(const KeyRegistry& registry,
                                   size_t quorum) const {
  std::unordered_set<ActorId> seen;
  for (const Signature& s : signatures) {
    if (!seen.insert(s.signer).second) {
      return Status::InvalidArgument("duplicate signer in certificate");
    }
  }
  if (seen.size() < quorum) {
    return Status::InvalidArgument("certificate below quorum");
  }
  Bytes signed_bytes = CommitSigningBytes(view, seq, digest);
  for (const Signature& s : signatures) {
    if (!registry.Verify(s.signer, signed_bytes, s.sig)) {
      return Status::PermissionDenied("bad signature in certificate");
    }
  }
  return Status::Ok();
}

const CertPtr& EmptyCertificate() {
  static const CertPtr kEmpty = std::make_shared<const CommitCertificate>();
  return kEmpty;
}

CompactCertificate CompactCertificate::FromFull(
    const CommitCertificate& full) {
  CompactCertificate c;
  c.view = full.view;
  c.seq = full.seq;
  c.digest = full.digest;
  Sha256 h;
  for (const Signature& s : full.signatures) {
    c.signers.push_back(s.signer);
    h.Update(s.sig);
  }
  c.aggregate = h.Finish();
  return c;
}

void CompactCertificate::EncodeTo(Encoder* enc) const {
  enc->PutU64(view);
  enc->PutU64(seq);
  enc->PutRaw(digest.data(), Digest::kSize);
  enc->PutVarint(signers.size());
  for (ActorId id : signers) {
    enc->PutU32(id);
  }
  enc->PutRaw(aggregate.data(), Digest::kSize);
}

Status CompactCertificate::Validate(const KeyRegistry& registry,
                                    size_t quorum) const {
  std::unordered_set<ActorId> seen;
  Bytes signed_bytes = CommitSigningBytes(view, seq, digest);
  Sha256 h;
  for (ActorId id : signers) {
    if (seen.contains(id)) {
      return Status::InvalidArgument("duplicate signer in certificate");
    }
    if (!registry.IsRegistered(id)) {
      return Status::PermissionDenied("unknown signer");
    }
    seen.insert(id);
    h.Update(registry.Sign(id, signed_bytes));
  }
  if (seen.size() < quorum) {
    return Status::InvalidArgument("certificate below quorum");
  }
  if (h.Finish() != aggregate) {
    return Status::PermissionDenied("aggregate tag mismatch");
  }
  return Status::Ok();
}

Bytes VoteSigningBytes(const TxnKey& global_id, uint32_t shard, SeqNum seq,
                       bool commit) {
  Encoder enc;
  enc.PutString("sbft-2pc-vote");
  enc.PutU64(global_id.id);
  enc.PutU32(global_id.client);
  enc.PutU32(shard);
  enc.PutU64(seq);
  enc.PutBool(commit);
  return enc.TakeBuffer();
}

void VoteShare::EncodeTo(Encoder* enc) const {
  enc->PutU64(global_id);
  enc->PutU32(client);
  enc->PutU32(shard);
  enc->PutU64(seq);
  enc->PutBool(commit);
  enc->PutU32(signer);
  enc->PutBytes(sig);
}

void VoteCertificate::EncodeTo(Encoder* enc) const {
  enc->PutVarint(shares.size());
  for (const VoteShare& s : shares) s.EncodeTo(enc);
}

Status VoteCertificate::Validate(const KeyRegistry& registry) const {
  std::set<std::pair<TxnKey, uint32_t>> seen_slots;
  for (const VoteShare& s : shares) {
    // One vote per (gid, shard).
    if (!seen_slots.insert({s.gid(), s.shard}).second) {
      return Status::InvalidArgument("duplicate vote share");
    }
  }
  for (const VoteShare& s : shares) {
    if (!registry.Verify(s.signer,
                         VoteSigningBytes(s.gid(), s.shard, s.seq, s.commit),
                         s.sig)) {
      return Status::PermissionDenied("bad vote share signature");
    }
  }
  return Status::Ok();
}

}  // namespace sbft::crypto
