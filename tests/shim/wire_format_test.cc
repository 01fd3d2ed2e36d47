// The wire contract of all 28 message kinds (DESIGN.md §8): each case
// spells out, field by field, the bytes a message has always encoded to,
// and checks that Serialized() emits exactly those bytes and that
// WireSize() charges exactly them plus the MAC allowance.
#include <gtest/gtest.h>

#include <functional>

#include "crypto/sha256.h"
#include "shim/message.h"

namespace sbft::shim {
namespace {

workload::Transaction MakeTxn(TxnId id) {
  workload::Transaction txn;
  txn.id = id;
  txn.client = 7;
  workload::Operation read;
  read.type = workload::OpType::kRead;
  read.key = "alpha";
  workload::Operation write;
  write.type = workload::OpType::kWrite;
  write.key = "beta";
  write.value = ToBytes("payload");
  txn.ops = {read, write};
  return txn;
}

workload::BatchPtr MakeBatch(size_t n) {
  workload::TransactionBatch batch;
  for (size_t i = 0; i < n; ++i) {
    batch.txns.push_back(workload::ShareTxn(MakeTxn(i + 1)));
  }
  return workload::ShareBatch(std::move(batch));
}

crypto::CommitCertificate MakeCert() {
  crypto::CommitCertificate cert;
  cert.view = 3;
  cert.seq = 11;
  cert.digest = crypto::Sha256::Hash("cert");
  cert.signatures.push_back({1, ToBytes("sig-one")});
  cert.signatures.push_back({2, ToBytes("sig-two")});
  return cert;
}

crypto::VoteCertificate MakeVoteCert() {
  crypto::VoteCertificate cert;
  cert.shares.push_back({91, 1000000, 0, 5, true, 31, ToBytes("share-a")});
  cert.shares.push_back({91, 1000000, 1, 6, false, 32, ToBytes("share-b")});
  return cert;
}

/// Builds the expected form: kind byte, sender u32, then the payload
/// as spelled out by the case.
Bytes Legacy(const Message& m, const std::function<void(Encoder*)>& payload) {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(m.kind));
  enc.PutU32(m.sender);
  payload(&enc);
  return enc.TakeBuffer();
}

/// The bytes WireSize charges beyond the encoding: a MAC tag on the two
/// MAC-authenticated kinds.
size_t Allowance(MsgKind kind) {
  return kind == MsgKind::kPrePrepare || kind == MsgKind::kPrepare
             ? Message::kMacTagBytes
             : 0;
}

/// The bytes match the legacy form, and the size the network charges is
/// exactly those bytes plus the allowance.
void ExpectLegacyBytes(const Message& m,
                       const std::function<void(Encoder*)>& payload) {
  EXPECT_EQ(m.Serialized(), Legacy(m, payload)) << MsgKindName(m.kind);
  EXPECT_EQ(m.WireSize(), m.Serialized().size() + Allowance(m.kind))
      << MsgKindName(m.kind);
}

// ---------------------------------------------------------------------------
// Serialized bytes == the spelled-out legacy bytes, per kind.
// ---------------------------------------------------------------------------

TEST(WireFormatTest, ClientRequestMatchesLegacyBytes) {
  ClientRequestMsg m(4);
  m.txn = MakeTxn(42);
  m.client_sig = ToBytes("client-ds");
  ExpectLegacyBytes(m, [&](Encoder* e) {
    m.txn.EncodeTo(e);
    e->PutBytes(m.client_sig);
  });
}

TEST(WireFormatTest, PrePrepareMatchesLegacyBytes) {
  PrePrepareMsg m(2);
  m.view = 5;
  m.seq = 19;
  m.batch = MakeBatch(3);
  m.digest = m.batch->Hash();
  ExpectLegacyBytes(m, [&](Encoder* e) {
    e->PutU64(m.view);
    e->PutU64(m.seq);
    m.batch->EncodeTo(e);
    e->PutRaw(m.digest.data(), crypto::Digest::kSize);
  });
}

TEST(WireFormatTest, PrepareMatchesLegacyBytes) {
  PrepareMsg m(3);
  m.view = 1;
  m.seq = 2;
  m.digest = crypto::Sha256::Hash("x");
  ExpectLegacyBytes(m, [&](Encoder* e) {
    e->PutU64(m.view);
    e->PutU64(m.seq);
    e->PutRaw(m.digest.data(), crypto::Digest::kSize);
  });
}

TEST(WireFormatTest, CommitMatchesLegacyBytes) {
  CommitMsg m(3);
  m.view = 1;
  m.seq = 2;
  m.digest = crypto::Sha256::Hash("c");
  m.ds = ToBytes("commit-ds");
  ExpectLegacyBytes(m, [&](Encoder* e) {
    e->PutU64(m.view);
    e->PutU64(m.seq);
    e->PutRaw(m.digest.data(), crypto::Digest::kSize);
    e->PutBytes(m.ds);
  });
}

TEST(WireFormatTest, ExecuteMatchesLegacyBytes) {
  ExecuteMsg m(6);
  m.view = 2;
  m.seq = 9;
  m.batch = MakeBatch(2);
  m.digest = m.batch->Hash();
  m.cert = std::make_shared<const crypto::CommitCertificate>(MakeCert());
  m.spawner_sig = ToBytes("spawn-ds");
  ExpectLegacyBytes(m, [&](Encoder* e) {
    e->PutU64(m.view);
    e->PutU64(m.seq);
    m.batch->EncodeTo(e);
    e->PutRaw(m.digest.data(), crypto::Digest::kSize);
    m.cert->EncodeTo(e);
    e->PutBytes(m.spawner_sig);
  });
}

TEST(WireFormatTest, VerifyMatchesLegacyBytesWithAndWithoutFragments) {
  VerifyMsg m(8);
  m.view = 1;
  m.seq = 4;
  m.batch_digest = crypto::Sha256::Hash("b");
  m.cert = std::make_shared<const crypto::CommitCertificate>(MakeCert());
  storage::RwSet txn_rw;
  txn_rw.reads.push_back({"alpha", 3});
  txn_rw.writes.push_back({"beta", ToBytes("v")});
  m.txn_rws.push_back(txn_rw);
  m.txn_refs.push_back({21, 100, 20, {}, kInvalidActor});
  m.result = ToBytes("r");
  m.executor_sig = ToBytes("exec-ds");

  auto payload = [&](Encoder* e) {
    e->PutU64(m.view);
    e->PutU64(m.seq);
    e->PutRaw(m.batch_digest.data(), crypto::Digest::kSize);
    m.cert->EncodeTo(e);
    e->PutVarint(m.txn_rws.size());
    for (const storage::RwSet& r : m.txn_rws) r.EncodeTo(e);
    e->PutVarint(m.txn_refs.size());
    for (const VerifyMsg::TxnRef& ref : m.txn_refs) {
      e->PutU64(ref.id);
      e->PutU32(ref.client);
      e->PutVarint(ref.id - ref.floor);
    }
    e->PutBytes(m.result);
    e->PutBytes(m.executor_sig);
    size_t fragments = 0;
    for (const VerifyMsg::TxnRef& ref : m.txn_refs) {
      if (ref.IsFragment()) ++fragments;
    }
    if (fragments > 0) {
      e->PutVarint(fragments);
      for (size_t i = 0; i < m.txn_refs.size(); ++i) {
        if (!m.txn_refs[i].IsFragment()) continue;
        e->PutVarint(i);
        e->PutU64(m.txn_refs[i].global_id.id);
        e->PutU32(m.txn_refs[i].global_id.client);
        e->PutU32(m.txn_refs[i].coordinator);
      }
    }
  };
  ExpectLegacyBytes(m, payload);

  // Fragment refs add the trailing indexed section.
  VerifyMsg frag(8);
  frag.view = m.view;
  frag.seq = m.seq;
  frag.batch_digest = m.batch_digest;
  frag.cert = m.cert;
  frag.txn_rws = m.txn_rws;
  frag.txn_refs = m.txn_refs;
  frag.txn_refs.push_back({22, 890000, 21, {101, 9001}, 890000});
  frag.result = m.result;
  frag.executor_sig = m.executor_sig;
  EXPECT_GT(frag.WireSize(), m.WireSize());
  EXPECT_EQ(frag.Serialized().size(), frag.WireSize());
  // Each ref carries `id - floor` as a varint; the fragment section names
  // the gid by id, then client, then the coordinator.
  ExpectLegacyBytes(frag, [&](Encoder* e) {
    e->PutU64(frag.view);
    e->PutU64(frag.seq);
    e->PutRaw(frag.batch_digest.data(), crypto::Digest::kSize);
    frag.cert->EncodeTo(e);
    e->PutVarint(frag.txn_rws.size());
    for (const storage::RwSet& r : frag.txn_rws) r.EncodeTo(e);
    e->PutVarint(2);
    e->PutU64(21);
    e->PutU32(100);
    e->PutVarint(1);
    e->PutU64(22);
    e->PutU32(890000);
    e->PutVarint(1);
    e->PutBytes(frag.result);
    e->PutBytes(frag.executor_sig);
    e->PutVarint(1);
    e->PutVarint(1);
    e->PutU64(9001);
    e->PutU32(101);
    e->PutU32(890000);
  });
}

TEST(WireFormatTest, ResponseMatchesLegacyBytes) {
  ResponseMsg m(9);
  m.txn_id = 77;
  m.client = 100;
  m.seq = 6;
  m.batch_digest = crypto::Sha256::Hash("rb");
  m.result = ToBytes("ok");
  m.aborted = true;
  ExpectLegacyBytes(m, [&](Encoder* e) {
    e->PutU64(m.txn_id);
    e->PutU32(m.client);
    e->PutU64(m.seq);
    e->PutRaw(m.batch_digest.data(), crypto::Digest::kSize);
    e->PutBytes(m.result);
    e->PutBool(m.aborted);
  });
}

TEST(WireFormatTest, ErrorMatchesLegacyBytes) {
  ErrorMsg m(9);
  m.reason = ErrorMsg::Reason::kMissingRequest;
  m.kmax = 13;
  m.txn_digest = crypto::Sha256::Hash("t");
  m.has_txn = true;
  m.txn = MakeTxn(5);
  ExpectLegacyBytes(m, [&](Encoder* e) {
    e->PutU8(static_cast<uint8_t>(m.reason));
    e->PutU64(m.kmax);
    e->PutRaw(m.txn_digest.data(), crypto::Digest::kSize);
    e->PutBool(m.has_txn);
    m.txn.EncodeTo(e);
  });
}

TEST(WireFormatTest, ReplaceAndAckMatchLegacyBytes) {
  ReplaceMsg r(9);
  r.txn_digest = crypto::Sha256::Hash("rep");
  ExpectLegacyBytes(r, [&](Encoder* e) {
    e->PutRaw(r.txn_digest.data(), crypto::Digest::kSize);
  });

  AckMsg a(9);
  a.has_seq = true;
  a.kmax = 21;
  a.txn_digest = crypto::Sha256::Hash("ack");
  ExpectLegacyBytes(a, [&](Encoder* e) {
    e->PutBool(a.has_seq);
    e->PutU64(a.kmax);
    e->PutRaw(a.txn_digest.data(), crypto::Digest::kSize);
  });
}

TEST(WireFormatTest, ViewChangeAndNewViewMatchLegacyBytes) {
  PreparedProof proof;
  proof.view = 2;
  proof.seq = 17;
  proof.batch = MakeBatch(1);
  proof.digest = proof.batch->Hash();

  ViewChangeMsg vc(1);
  vc.new_view = 3;
  vc.stable_seq = 12;
  vc.prepared.push_back(proof);
  vc.ds = ToBytes("vc-ds");
  ExpectLegacyBytes(vc, [&](Encoder* e) {
    e->PutU64(vc.new_view);
    e->PutU64(vc.stable_seq);
    e->PutVarint(vc.prepared.size());
    for (const PreparedProof& p : vc.prepared) p.EncodeTo(e);
    e->PutBytes(vc.ds);
  });

  NewViewMsg nv(1);
  nv.view = 3;
  nv.view_change_senders = {0, 1, 2};
  nv.reproposals.push_back(proof);
  nv.ds = ToBytes("nv-ds");
  ExpectLegacyBytes(nv, [&](Encoder* e) {
    e->PutU64(nv.view);
    e->PutVarint(nv.view_change_senders.size());
    for (ActorId id : nv.view_change_senders) e->PutU32(id);
    e->PutVarint(nv.reproposals.size());
    for (const PreparedProof& p : nv.reproposals) p.EncodeTo(e);
    e->PutBytes(nv.ds);
  });
}

TEST(WireFormatTest, CheckpointMatchesLegacyBytes) {
  CheckpointMsg m(2);
  m.upto_seq = 16;
  m.cert_log_root = crypto::Sha256::Hash("root");
  m.certs.push_back(crypto::CompactCertificate::FromFull(MakeCert()));
  PreparedProof proof;
  proof.view = 1;
  proof.seq = 15;
  proof.batch = MakeBatch(1);
  proof.digest = proof.batch->Hash();
  m.batches.push_back(proof);
  ExpectLegacyBytes(m, [&](Encoder* e) {
    e->PutU64(m.upto_seq);
    e->PutRaw(m.cert_log_root.data(), crypto::Digest::kSize);
    e->PutVarint(m.certs.size());
    for (const crypto::CompactCertificate& c : m.certs) c.EncodeTo(e);
    e->PutVarint(m.batches.size());
    for (const PreparedProof& p : m.batches) p.EncodeTo(e);
  });
}

TEST(WireFormatTest, StorageMessagesMatchLegacyBytes) {
  StorageReadMsg rd(5);
  rd.request_id = 31;
  rd.keys = {"alpha", "beta"};
  ExpectLegacyBytes(rd, [&](Encoder* e) {
    e->PutU64(rd.request_id);
    e->PutVarint(rd.keys.size());
    for (const std::string& k : rd.keys) e->PutString(k);
  });

  StorageReadReplyMsg rr(5);
  rr.request_id = 31;
  rr.items.push_back({"alpha", ToBytes("v1"), 4, true});
  rr.items.push_back({"gone", {}, 0, false});
  ExpectLegacyBytes(rr, [&](Encoder* e) {
    e->PutU64(rr.request_id);
    e->PutVarint(rr.items.size());
    for (const StorageReadReplyMsg::Item& item : rr.items) {
      e->PutString(item.key);
      e->PutBytes(item.value);
      e->PutU64(item.version);
      e->PutBool(item.found);
    }
  });
}

TEST(WireFormatTest, PaxosMessagesMatchLegacyBytes) {
  PaxosAcceptMsg pa(1);
  pa.ballot = 2;
  pa.slot = 8;
  pa.batch = MakeBatch(2);
  pa.digest = pa.batch->Hash();
  pa.committed_upto = 6;
  ExpectLegacyBytes(pa, [&](Encoder* e) {
    e->PutU64(pa.ballot);
    e->PutU64(pa.slot);
    pa.batch->EncodeTo(e);
    e->PutRaw(pa.digest.data(), crypto::Digest::kSize);
    e->PutU64(pa.committed_upto);
  });

  PaxosAcceptedMsg pd(2);
  pd.ballot = 2;
  pd.slot = 8;
  pd.digest = pa.digest;
  ExpectLegacyBytes(pd, [&](Encoder* e) {
    e->PutU64(pd.ballot);
    e->PutU64(pd.slot);
    e->PutRaw(pd.digest.data(), crypto::Digest::kSize);
  });
}

TEST(WireFormatTest, LinearMessagesMatchLegacyBytes) {
  LinearVoteMsg lv(3);
  lv.phase = LinearPhase::kCommit;
  lv.view = 1;
  lv.seq = 5;
  lv.digest = crypto::Sha256::Hash("lv");
  lv.ds = ToBytes("vote-ds");
  ExpectLegacyBytes(lv, [&](Encoder* e) {
    e->PutU8(static_cast<uint8_t>(lv.phase));
    e->PutU64(lv.view);
    e->PutU64(lv.seq);
    e->PutRaw(lv.digest.data(), crypto::Digest::kSize);
    e->PutBytes(lv.ds);
  });

  LinearCertMsg lc(3);
  lc.phase = LinearPhase::kPrepare;
  lc.cert = MakeCert();
  ExpectLegacyBytes(lc, [&](Encoder* e) {
    e->PutU8(static_cast<uint8_t>(lc.phase));
    lc.cert.EncodeTo(e);
  });
}

TEST(WireFormatTest, ShardMessagesMatchLegacyBytes) {
  // Vote certificate: shares, ack count + acks, view stamp.
  ShardVoteCertMsg vc(9);
  vc.cert = MakeVoteCert();
  ExpectLegacyBytes(vc, [&](Encoder* e) {
    vc.cert.EncodeTo(e);
    e->PutVarint(0);
    e->PutU64(0);
  });

  ShardVoteCertMsg acked_vc(9);
  acked_vc.cert = MakeVoteCert();
  acked_vc.acked_cseqs = {3, 4};
  acked_vc.coord_view = 6;
  ExpectLegacyBytes(acked_vc, [&](Encoder* e) {
    acked_vc.cert.EncodeTo(e);
    e->PutVarint(acked_vc.acked_cseqs.size());
    for (uint64_t c : acked_vc.acked_cseqs) e->PutU64(c);
    e->PutU64(acked_vc.coord_view);
  });

  // Decision: gid, outcome, proof (COMMITs only), cseq, watermark, view
  // stamp.
  ShardCommitDecisionMsg decision(9);
  decision.global_id = {1000000, 42};
  decision.commit = true;
  decision.proof = MakeVoteCert();
  decision.cseq = 11;
  decision.watermark = 8;
  decision.coord_view = 2;
  decision.coord_leader = 890002;
  ExpectLegacyBytes(decision, [&](Encoder* e) {
    e->PutU64(decision.global_id.id);
    e->PutU32(decision.global_id.client);
    e->PutBool(decision.commit);
    decision.proof.EncodeTo(e);
    e->PutU64(decision.cseq);
    e->PutU64(decision.watermark);
    e->PutU64(decision.coord_view);
    e->PutU32(decision.coord_leader);
  });

  // A proofless decision adds no proof bytes: the 18-byte fixed prefix,
  // then the 16-byte watermark piggyback and the 12-byte view stamp.
  ShardCommitDecisionMsg abort(9);
  abort.global_id = {1000000, 42};
  ExpectLegacyBytes(abort, [&](Encoder* e) {
    e->PutU64(abort.global_id.id);
    e->PutU32(abort.global_id.client);
    e->PutBool(false);
    e->PutU64(0);
    e->PutU64(0);
    e->PutU64(0);
    e->PutU32(kInvalidActor);
  });
  EXPECT_EQ(abort.Serialized().size(), 18u + 16 + 12);
}

TEST(WireFormatTest, CoordAppendMatchesLegacyBytes) {
  // A decision record: the 51-byte fixed prefix names the gid by id and
  // keeps its client last; the sent-to shards, a presence flag and the
  // quorum proof, then the gids truncated since the previous append
  // follow.
  CoordAppendMsg decision(890001);
  decision.view = 2;
  decision.append_id = 14;
  decision.entry = CoordAppendMsg::kDecision;
  decision.global_id = {101, 9001};
  decision.commit = true;
  decision.cseq = 7;
  decision.watermark = 5;
  decision.shards = {0, 2};
  decision.proof = MakeVoteCert();
  decision.truncated = {{101, 8990}, {102, 17}};
  ExpectLegacyBytes(decision, [&](Encoder* e) {
    e->PutU64(2);
    e->PutU64(14);
    e->PutU8(CoordAppendMsg::kDecision);
    e->PutU64(9001);
    e->PutBool(true);
    e->PutU64(7);
    e->PutU64(5);
    e->PutU32(101);
    e->PutVarint(2);
    e->PutU32(0);
    e->PutU32(2);
    e->PutBool(true);
    decision.proof.EncodeTo(e);
    e->PutVarint(2);
    e->PutU64(8990);
    e->PutU32(101);
    e->PutU64(17);
    e->PutU32(102);
  });

  // A heartbeat carries no shards, no proof and no truncated gids: each
  // section is its empty marker.
  CoordAppendMsg heartbeat(890001);
  heartbeat.view = 2;
  heartbeat.append_id = 15;
  heartbeat.watermark = 6;
  ExpectLegacyBytes(heartbeat, [&](Encoder* e) {
    e->PutU64(2);
    e->PutU64(15);
    e->PutU8(CoordAppendMsg::kHeartbeat);
    e->PutU64(0);
    e->PutBool(false);
    e->PutU64(0);
    e->PutU64(6);
    e->PutU32(kInvalidActor);
    e->PutVarint(0);
    e->PutBool(false);
    e->PutVarint(0);
  });
}

TEST(WireFormatTest, CoordGroupControlMessagesMatchLegacyBytes) {
  CoordAckMsg ack(890002);
  ack.view = 3;
  ack.append_id = 41;
  ExpectLegacyBytes(ack, [&](Encoder* e) {
    e->PutU64(3);
    e->PutU64(41);
  });

  CoordSyncRequestMsg sync(890002);
  sync.view = 4;
  ExpectLegacyBytes(sync, [&](Encoder* e) { e->PutU64(4); });

  CoordRedirectMsg redirect(890002);
  redirect.view = 4;
  redirect.leader = 890001;
  ExpectLegacyBytes(redirect, [&](Encoder* e) {
    e->PutU64(4);
    e->PutU32(890001);
  });
}

TEST(WireFormatTest, CoordSyncReplyMatchesLegacyBytes) {
  // Decisions with and without a proof (each behind a presence flag),
  // launch records with their participant shards, and client floors.
  CoordSyncReplyMsg m(890003);
  m.view = 5;
  m.next_cseq = 12;
  m.watermark = 9;
  m.decisions.push_back({{101, 9001}, true, 10, 4, MakeVoteCert()});
  m.decisions.push_back({{102, 33}, false, 11, 5, {}});
  m.launches.push_back({{103, 7}, {1, 3}});
  m.floors = {{101, 8999}, {102, 30}};
  ExpectLegacyBytes(m, [&](Encoder* e) {
    e->PutU64(5);
    e->PutU64(12);
    e->PutU64(9);
    e->PutVarint(2);
    e->PutU64(9001);
    e->PutU32(101);
    e->PutBool(true);
    e->PutU64(10);
    e->PutU64(4);
    e->PutBool(true);
    m.decisions[0].proof.EncodeTo(e);
    e->PutU64(33);
    e->PutU32(102);
    e->PutBool(false);
    e->PutU64(11);
    e->PutU64(5);
    e->PutBool(false);
    e->PutVarint(1);
    e->PutU64(7);
    e->PutU32(103);
    e->PutVarint(2);
    e->PutU32(1);
    e->PutU32(3);
    e->PutVarint(2);
    e->PutU64(8999);
    e->PutU32(101);
    e->PutU64(30);
    e->PutU32(102);
  });
}

TEST(WireFormatTest, PaxosPhaseOneMessagesMatchLegacyBytes) {
  PaxosPrepareMsg prepare(1);
  prepare.ballot = 6;
  prepare.from_slot = 20;
  ExpectLegacyBytes(prepare, [&](Encoder* e) {
    e->PutU64(6);
    e->PutU64(20);
  });

  // A promise lists every accepted value above the frontier: slot, then
  // the accepting ballot, then the batch.
  PaxosPromiseMsg promise(2);
  promise.ballot = 6;
  promise.commit_frontier = 20;
  promise.entries.push_back({21, 5, MakeBatch(2)});
  promise.entries.push_back({22, 4, workload::EmptyBatch()});
  ExpectLegacyBytes(promise, [&](Encoder* e) {
    e->PutU64(6);
    e->PutU64(20);
    e->PutVarint(2);
    e->PutU64(21);
    e->PutU64(5);
    promise.entries[0].batch->EncodeTo(e);
    e->PutU64(22);
    e->PutU64(4);
    e->PutVarint(0);
  });
}

}  // namespace
}  // namespace sbft::shim
