#include "crypto/certificate.h"

#include <gtest/gtest.h>

#include "crypto/sha256.h"

namespace sbft::crypto {
namespace {

class CertificateTest : public ::testing::Test {
 protected:
  CertificateTest() : registry_(CryptoMode::kFast, 3) {
    for (ActorId id = 0; id < 7; ++id) registry_.RegisterNode(id);
  }

  /// Builds a certificate signed by nodes [0, signers).
  CommitCertificate MakeCert(size_t signers, ViewNum view = 1, SeqNum seq = 9) {
    CommitCertificate cert;
    cert.view = view;
    cert.seq = seq;
    cert.digest = Sha256::Hash("txn-payload");
    Bytes to_sign = CommitSigningBytes(view, seq, cert.digest);
    for (ActorId id = 0; id < signers; ++id) {
      cert.signatures.push_back({id, registry_.Sign(id, to_sign)});
    }
    return cert;
  }

  KeyRegistry registry_;
};

TEST_F(CertificateTest, ValidCertificatePasses) {
  CommitCertificate cert = MakeCert(5);
  EXPECT_TRUE(cert.Validate(registry_, 5).ok());
  EXPECT_TRUE(cert.Validate(registry_, 3).ok());
}

TEST_F(CertificateTest, BelowQuorumRejected) {
  CommitCertificate cert = MakeCert(4);
  Status st = cert.Validate(registry_, 5);
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST_F(CertificateTest, DuplicateSignerRejected) {
  CommitCertificate cert = MakeCert(3);
  cert.signatures.push_back(cert.signatures[0]);
  EXPECT_TRUE(cert.Validate(registry_, 3).IsInvalidArgument());
}

TEST_F(CertificateTest, BelowQuorumCheckedBeforeSignatures) {
  CommitCertificate cert = MakeCert(4);
  cert.signatures[0].sig[0] ^= 0xff;
  EXPECT_TRUE(cert.Validate(registry_, 5).IsInvalidArgument());
}

TEST_F(CertificateTest, ForgedSignatureRejected) {
  CommitCertificate cert = MakeCert(5);
  cert.signatures[2].sig[0] ^= 0xff;
  EXPECT_TRUE(cert.Validate(registry_, 5).IsPermissionDenied());
}

TEST_F(CertificateTest, RevalidatesAfterSignerUnregistered) {
  // No verdict is remembered: the second check runs against the registry
  // as it is then, which no longer knows signer 2.
  CommitCertificate cert = MakeCert(5);
  ASSERT_TRUE(cert.Validate(registry_, 5).ok());
  registry_.Unregister(2);
  EXPECT_TRUE(cert.Validate(registry_, 5).IsPermissionDenied());
}

TEST_F(CertificateTest, WrongSeqBreaksSignatures) {
  CommitCertificate cert = MakeCert(5);
  cert.seq += 1;  // Signatures no longer cover this binding.
  EXPECT_FALSE(cert.Validate(registry_, 5).ok());
}

TEST_F(CertificateTest, WrongDigestBreaksSignatures) {
  CommitCertificate cert = MakeCert(5);
  cert.digest = Sha256::Hash("other payload");
  EXPECT_FALSE(cert.Validate(registry_, 5).ok());
}

class VoteCertificateTest : public ::testing::Test {
 protected:
  VoteCertificateTest() : registry_(CryptoMode::kFast, 3) {
    for (ActorId id = 0; id < 7; ++id) registry_.RegisterNode(id);
  }

  /// One commit share per shard in [0, shards) for one gid, each signed
  /// by the node whose id is the shard.
  VoteCertificate MakeVoteCert(uint32_t shards) {
    VoteCertificate cert;
    for (uint32_t shard = 0; shard < shards; ++shard) {
      VoteShare share;
      share.global_id = 42;
      share.client = 1000;
      share.shard = shard;
      share.seq = 9;
      share.commit = true;
      share.signer = shard;
      share.sig = registry_.Sign(
          shard, VoteSigningBytes(share.gid(), shard, share.seq, true));
      cert.shares.push_back(std::move(share));
    }
    return cert;
  }

  KeyRegistry registry_;
};

TEST_F(VoteCertificateTest, ValidCertificatePasses) {
  EXPECT_TRUE(MakeVoteCert(3).Validate(registry_).ok());
}

TEST_F(VoteCertificateTest, DuplicateShareCheckedBeforeSignatures) {
  // A forged share comes first and the duplicate is forged too: the
  // duplicate still decides the verdict.
  VoteCertificate cert = MakeVoteCert(3);
  cert.shares[0].sig[0] ^= 0xff;
  cert.shares.push_back(cert.shares[2]);
  cert.shares.back().sig[0] ^= 0xff;
  EXPECT_TRUE(cert.Validate(registry_).IsInvalidArgument());
}

TEST_F(VoteCertificateTest, ForgedShareRejected) {
  VoteCertificate cert = MakeVoteCert(3);
  cert.shares[1].sig[0] ^= 0xff;
  EXPECT_TRUE(cert.Validate(registry_).IsPermissionDenied());
}

TEST_F(VoteCertificateTest, UnknownSignerRejected) {
  VoteCertificate cert = MakeVoteCert(3);
  cert.shares[1].signer = 1234;  // Never registered.
  EXPECT_TRUE(cert.Validate(registry_).IsPermissionDenied());
}

TEST_F(VoteCertificateTest, RevalidatesAfterSignerUnregistered) {
  VoteCertificate cert = MakeVoteCert(3);
  ASSERT_TRUE(cert.Validate(registry_).ok());
  registry_.Unregister(1);
  EXPECT_TRUE(cert.Validate(registry_).IsPermissionDenied());
}

TEST_F(CertificateTest, EncodedSizeMatchesEncoding) {
  CommitCertificate cert = MakeCert(5);
  Encoder enc;
  cert.EncodeTo(&enc);
  EXPECT_EQ(EncodedSize(cert), enc.size());
}

TEST_F(CertificateTest, CompactCertificateValidates) {
  CommitCertificate full = MakeCert(5);
  CompactCertificate compact = CompactCertificate::FromFull(full);
  EXPECT_TRUE(compact.Validate(registry_, 5).ok());
}

TEST_F(CertificateTest, CompactCertificateIsSmaller) {
  CommitCertificate full = MakeCert(5);
  CompactCertificate compact = CompactCertificate::FromFull(full);
  EXPECT_LT(EncodedSize(compact), EncodedSize(full));
}

TEST_F(CertificateTest, CompactRejectsTamperedAggregate) {
  CompactCertificate compact = CompactCertificate::FromFull(MakeCert(5));
  compact.aggregate = Sha256::Hash("tampered");
  EXPECT_TRUE(compact.Validate(registry_, 5).IsPermissionDenied());
}

TEST_F(CertificateTest, CompactRejectsBelowQuorum) {
  CompactCertificate compact = CompactCertificate::FromFull(MakeCert(3));
  EXPECT_FALSE(compact.Validate(registry_, 5).ok());
}

TEST_F(CertificateTest, CompactRejectsUnknownSigner) {
  CommitCertificate full = MakeCert(5);
  CompactCertificate compact = CompactCertificate::FromFull(full);
  compact.signers[0] = 1234;  // Never registered.
  EXPECT_FALSE(compact.Validate(registry_, 5).ok());
}

TEST_F(CertificateTest, CompactEncodedSizeMatchesEncoding) {
  CompactCertificate compact = CompactCertificate::FromFull(MakeCert(5));
  Encoder enc;
  compact.EncodeTo(&enc);
  EXPECT_EQ(EncodedSize(compact), enc.size());
}

TEST_F(CertificateTest, SigningBytesBindAllFields) {
  Digest d = Sha256::Hash("x");
  Bytes base = CommitSigningBytes(1, 2, d);
  EXPECT_NE(base, CommitSigningBytes(2, 2, d));
  EXPECT_NE(base, CommitSigningBytes(1, 3, d));
  EXPECT_NE(base, CommitSigningBytes(1, 2, Sha256::Hash("y")));
}

}  // namespace
}  // namespace sbft::crypto
