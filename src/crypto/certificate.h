#ifndef SBFT_CRYPTO_CERTIFICATE_H_
#define SBFT_CRYPTO_CERTIFICATE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "common/ids.h"
#include "common/status.h"
#include "crypto/digest.h"
#include "crypto/keys.h"

namespace sbft::crypto {

/// One digital signature attributed to a signer.
struct Signature {
  ActorId signer = kInvalidActor;
  Bytes sig;

  void EncodeTo(Encoder* enc) const;
};

/// Canonical byte string that shim nodes sign in their COMMIT messages
/// and that executors re-verify inside certificates.
Bytes CommitSigningBytes(ViewNum view, SeqNum seq, const Digest& digest);

/// \brief Commit certificate C (paper Fig. 3 line 8): the set of DS from
/// 2f_R+1 distinct shim nodes proving that the shim agreed to order the
/// request with digest ∆ at sequence k of view v.
///
/// Included in EXECUTE and VERIFY messages so executors and the verifier
/// can detect byzantine spawning (§IV-C remark, §VI-B).
struct CommitCertificate {
  ViewNum view = 0;
  SeqNum seq = 0;
  Digest digest;
  std::vector<Signature> signatures;

  void EncodeTo(Encoder* enc) const;

  /// Checks that the certificate carries at least `quorum` valid
  /// signatures from distinct registered signers over
  /// CommitSigningBytes(view, seq, digest). Every call checks every
  /// signature against the registry as it is then.
  Status Validate(const KeyRegistry& registry, size_t quorum) const;
};

/// Shared immutable commit certificate. A shim node builds one per
/// committed slot; the spawner's EXECUTE and every executor's VERIFY for
/// that slot hold the same object.
using CertPtr = std::shared_ptr<const CommitCertificate>;

/// The canonical empty certificate (null-object for default-constructed
/// messages).
const CertPtr& EmptyCertificate();

/// \brief Threshold-signature-style compaction of a CommitCertificate
/// (paper §IV-C remark: "threshold signatures allow combining 2f_R+1
/// signatures into a single signature").
///
/// The aggregate tag is SHA256 over the member signatures; because this
/// library's DS are deterministic, a validator holding the KeyRegistry can
/// recompute each member signature and check the tag. This reproduces the
/// *size* and message-flow properties of threshold signatures; it is not a
/// standalone threshold scheme (documented substitution, see DESIGN.md).
struct CompactCertificate {
  ViewNum view = 0;
  SeqNum seq = 0;
  Digest digest;
  std::vector<ActorId> signers;
  Digest aggregate;

  /// Builds the compact form from a full certificate.
  static CompactCertificate FromFull(const CommitCertificate& full);

  void EncodeTo(Encoder* enc) const;

  /// Recomputes member signatures and the aggregate tag.
  Status Validate(const KeyRegistry& registry, size_t quorum) const;
};

/// Canonical bytes a shard verifier signs when voting on a 2PC fragment:
/// the gid (id, then client), the shard, the sequence and the vote.
Bytes VoteSigningBytes(const TxnKey& global_id, uint32_t shard, SeqNum seq,
                       bool commit);

/// One shard verifier's signed prepare-vote: the (signer, signature)
/// share that certificates aggregate instead of sending as its own
/// message. The gid is (client, global_id).
struct VoteShare {
  TxnId global_id = 0;
  ActorId client = kInvalidActor;
  uint32_t shard = 0;
  SeqNum seq = 0;
  bool commit = false;
  ActorId signer = kInvalidActor;
  Bytes sig;

  TxnKey gid() const { return {client, global_id}; }
  void EncodeTo(Encoder* enc) const;
};

/// \brief Share-based vote certificate: N (signer, signature) shares in
/// one object instead of N per-vote messages.
///
/// A shard verifier batches the shares of one settle round into a single
/// kShardVoteCert message per coordinator; a coordinator attaches the
/// full set of shares for a transaction to its commit decision as the
/// quorum proof. Validation rejects duplicate (gid, shard) pairs, then
/// verifies every share's signature.
struct VoteCertificate {
  std::vector<VoteShare> shares;

  void EncodeTo(Encoder* enc) const;

  /// All shares carry valid signatures from distinct (global_id, shard)
  /// slots.
  Status Validate(const KeyRegistry& registry) const;
};

}  // namespace sbft::crypto

#endif  // SBFT_CRYPTO_CERTIFICATE_H_
