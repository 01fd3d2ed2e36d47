#ifndef SBFT_SHIM_MESSAGE_H_
#define SBFT_SHIM_MESSAGE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "common/ids.h"
#include "common/sim_time.h"
#include "crypto/certificate.h"
#include "crypto/digest.h"
#include "sim/actor.h"
#include "storage/rw_set.h"
#include "workload/transaction.h"

namespace sbft::shim {

/// Every message type exchanged in the serverless-edge architecture
/// (paper Figs. 3 & 4, §V, plus the CFT baseline and storage RPC).
enum class MsgKind : uint8_t {
  kClientRequest = 0,
  kPrePrepare = 1,
  kPrepare = 2,
  kCommit = 3,
  kExecute = 4,
  kVerify = 5,
  kResponse = 6,
  kError = 7,
  kReplace = 8,
  kAck = 9,
  kViewChange = 10,
  kNewView = 11,
  kCheckpoint = 12,
  kStorageRead = 13,
  kStorageReadReply = 14,
  kPaxosAccept = 15,
  kPaxosAccepted = 16,
  kLinearVote = 17,
  kLinearCert = 18,
  kShardCommitDecision = 20,
  kShardVoteCert = 21,
  // Coordinator-group replication (DESIGN.md §10).
  kCoordAppend = 22,
  kCoordAck = 23,
  kCoordSyncRequest = 24,
  kCoordSyncReply = 25,
  kCoordRedirect = 26,
  // Multi-Paxos phase 1 (leader takeover read).
  kPaxosPrepare = 27,
  kPaxosPromise = 28,
};

/// Human-readable kind name for logs.
const char* MsgKindName(MsgKind kind);

/// \brief Base class of all wire messages.
///
/// Structured payloads travel by shared pointer inside the simulation;
/// nothing parses a message back from bytes. Every message starts with a
/// kind byte and its sender as a u32, and each type's BuildWire writes
/// the rest with Encoder Put* calls. That is the one definition of its
/// byte layout, and both halves of the wire contract run it:
///  - WireSize() runs it through a count-only Encoder, so it writes no
///    byte and allocates nothing; it is called on every send for the
///    size-dependent delay model, and a batch inside adds its memoised
///    size rather than walking its transactions;
///  - Serialized() writes the canonical bytes into a fresh buffer; only
///    tests call it, as the layout oracle.
/// Messages authenticated by MAC carry a kMacTagBytes allowance in their
/// size. No tag is computed: the cost model charges MAC time
/// (core/config.h).
struct Message : sim::MessageBase {
  /// Size allowance for a MAC tag on MAC-authenticated messages.
  static constexpr size_t kMacTagBytes = 32;

  explicit Message(MsgKind k, ActorId s) : kind(k), sender(s) {}

  MsgKind kind;
  ActorId sender;

  /// Canonical serialized form: kind, sender, then the payload.
  Bytes Serialized() const;

  /// Size the network charges: the serialized size, counted by running
  /// BuildWire without writing, plus ExtraWireBytes().
  size_t WireSize() const;

 protected:
  /// Appends the payload, everything after the kind and sender, to
  /// `enc`, or only counts it when `enc` is count-only.
  virtual void BuildWire(Encoder* enc) const = 0;
  /// Extra non-encoded wire bytes (e.g. MAC tag allowance).
  virtual size_t ExtraWireBytes() const { return 0; }

 private:
  /// Writes (or counts) the kind byte and the sender, then BuildWire.
  void Encode(Encoder* enc) const;
};

using MessagePtr = std::shared_ptr<const Message>;

/// Casts an envelope's payload to a concrete message type; returns nullptr
/// when the kind does not match.
template <typename T>
const T* MessageAs(const sim::Envelope& env, MsgKind kind) {
  const auto* base = static_cast<const Message*>(env.message.get());
  if (base == nullptr || base->kind != kind) return nullptr;
  return static_cast<const T*>(base);
}

/// Client -> primary: ⟨T⟩_C, DS-signed by the client (Fig. 3 line 1).
struct ClientRequestMsg : Message {
  ClientRequestMsg(ActorId s) : Message(MsgKind::kClientRequest, s) {}

  workload::Transaction txn;
  Bytes client_sig;

  /// Bytes the client signs.
  static Bytes SigningBytes(const workload::Transaction& txn);

  void BuildWire(Encoder* enc) const override;
};

/// Primary -> nodes: PREPREPARE(⟨T⟩C, ∆, k), MAC-authenticated
/// (Fig. 3 line 6).
struct PrePrepareMsg : Message {
  explicit PrePrepareMsg(ActorId s) : Message(MsgKind::kPrePrepare, s) {}

  ViewNum view = 0;
  SeqNum seq = 0;
  workload::BatchPtr batch = workload::EmptyBatch();
  crypto::Digest digest;  ///< ∆ = H(batch).

  void BuildWire(Encoder* enc) const override;
  size_t ExtraWireBytes() const override { return kMacTagBytes; }
};

/// Node -> nodes: PREPARE(∆, k), MAC-authenticated (Fig. 3 line 11).
struct PrepareMsg : Message {
  explicit PrepareMsg(ActorId s) : Message(MsgKind::kPrepare, s) {}

  ViewNum view = 0;
  SeqNum seq = 0;
  crypto::Digest digest;

  void BuildWire(Encoder* enc) const override;
  size_t ExtraWireBytes() const override { return kMacTagBytes; }
};

/// Node -> nodes: ⟨COMMIT(∆, k)⟩_R, DS-signed (Fig. 3 line 13); the
/// signatures are collected into the commit certificate C.
struct CommitMsg : Message {
  explicit CommitMsg(ActorId s) : Message(MsgKind::kCommit, s) {}

  ViewNum view = 0;
  SeqNum seq = 0;
  crypto::Digest digest;
  Bytes ds;  ///< DS over CommitSigningBytes(view, seq, digest).

  void BuildWire(Encoder* enc) const override;
};

/// Spawner -> executor: ⟨EXECUTE(⟨T⟩C, C, m, ∆)⟩_P (Fig. 3 line 9).
struct ExecuteMsg : Message {
  explicit ExecuteMsg(ActorId s) : Message(MsgKind::kExecute, s) {}

  ViewNum view = 0;
  SeqNum seq = 0;
  workload::BatchPtr batch = workload::EmptyBatch();
  crypto::Digest digest;
  /// C: 2f_R+1 commit signatures, shared with the committed slot.
  crypto::CertPtr cert = crypto::EmptyCertificate();
  Bytes spawner_sig;  ///< DS by the spawning shim node.

  static Bytes SigningBytes(ViewNum view, SeqNum seq,
                            const crypto::Digest& digest);

  void BuildWire(Encoder* enc) const override;
};

/// Executor -> verifier: VERIFY(⟨T⟩C, C, m, rw, r) (Fig. 3 line 20).
struct VerifyMsg : Message {
  explicit VerifyMsg(ActorId s) : Message(MsgKind::kVerify, s) {}

  /// Identity of one transaction in the batch, so the verifier can route
  /// per-transaction RESPONSE messages back to the right clients and
  /// learn the client's floor. For cross-shard fragments the ref also
  /// carries the global transaction id and the coordinator the shard
  /// verifier votes to (encoded as a trailing indexed section, present
  /// only when any ref is a fragment).
  struct TxnRef {
    TxnId id = 0;
    ActorId client = kInvalidActor;
    /// The transaction's signed floor (workload::Transaction::floor).
    TxnId floor = 0;
    TxnKey global_id{};
    ActorId coordinator = kInvalidActor;

    bool IsFragment() const { return global_id.client != kInvalidActor; }
    friend bool operator==(const TxnRef&, const TxnRef&) = default;
  };

  ViewNum view = 0;
  SeqNum seq = 0;
  crypto::Digest batch_digest;
  /// C, shared with the EXECUTE the executor ran.
  crypto::CertPtr cert = crypto::EmptyCertificate();
  /// The paper's rw, one read/write set per transaction, aligned with
  /// `txn_refs`. The executor signs exactly these sets, and the verifier
  /// matches, prepare-locks and applies them *per transaction* (the
  /// paper's Fig. 3 flow is per request), so one divergent or stale
  /// transaction aborts alone, not its whole batch.
  std::vector<storage::RwSet> txn_rws;
  std::vector<TxnRef> txn_refs;
  Bytes result;         ///< Execution result r (opaque bytes).
  Bytes executor_sig;   ///< DS by the executor over SigningBytes.

  /// What the executor signs: view, sequence, batch digest, the number
  /// of per-transaction sets and each set in order, then the result. The
  /// refs are not signed; only the verifier's match vouches for them.
  static Bytes SigningBytes(ViewNum view, SeqNum seq,
                            const crypto::Digest& batch_digest,
                            const std::vector<storage::RwSet>& txn_rws,
                            const Bytes& result);

  void BuildWire(Encoder* enc) const override;
};

/// Verifier -> client / primary: ⟨RESPONSE(∆, r)⟩_V per transaction
/// (Fig. 3 line 33); `aborted` carries the §VI-B ABORT outcome.
struct ResponseMsg : Message {
  explicit ResponseMsg(ActorId s) : Message(MsgKind::kResponse, s) {}

  TxnId txn_id = 0;
  ActorId client = kInvalidActor;
  SeqNum seq = 0;
  crypto::Digest batch_digest;
  Bytes result;
  bool aborted = false;

  void BuildWire(Encoder* enc) const override;
};

/// Verifier -> shim nodes on client retransmission (Fig. 4 lines 10/12):
/// either "consensus gap at kmax" or "request never seen". The
/// missing-request variant carries the full ⟨T⟩C (as in the paper's
/// ERROR(⟨T⟩C)) so an honest primary can propose it.
struct ErrorMsg : Message {
  explicit ErrorMsg(ActorId s) : Message(MsgKind::kError, s) {}

  enum class Reason : uint8_t {
    kGap = 0,             ///< Waiting on sequence kmax (Fig. 4 line 10).
    kMissingRequest = 1,  ///< No VERIFY seen for the txn (Fig. 4 line 12).
  };

  Reason reason = Reason::kGap;
  SeqNum kmax = 0;              ///< For kGap.
  crypto::Digest txn_digest;    ///< For kMissingRequest.
  bool has_txn = false;         ///< For kMissingRequest: ⟨T⟩C attached.
  workload::Transaction txn;

  void BuildWire(Encoder* enc) const override;
};

/// Verifier -> shim nodes: the primary is provably misbehaving; run a
/// view change (Fig. 4 line 14, §VI-B abort detection).
struct ReplaceMsg : Message {
  explicit ReplaceMsg(ActorId s) : Message(MsgKind::kReplace, s) {}

  crypto::Digest txn_digest;

  void BuildWire(Encoder* enc) const override;
};

/// Verifier -> shim nodes: the missing work identified by an ERROR has
/// been verified; nodes can cancel their re-transmission timers Υ
/// (§V-A2).
struct AckMsg : Message {
  explicit AckMsg(ActorId s) : Message(MsgKind::kAck, s) {}

  bool has_seq = false;
  SeqNum kmax = 0;
  crypto::Digest txn_digest;

  void BuildWire(Encoder* enc) const override;
};

/// Proof that a request prepared at (view, seq): 2f+1 PREPARE-equivalent
/// signatures. Reuses the certificate structure.
struct PreparedProof {
  ViewNum view = 0;
  SeqNum seq = 0;
  crypto::Digest digest;
  workload::BatchPtr batch = workload::EmptyBatch();

  void EncodeTo(Encoder* enc) const;
};

/// Node -> nodes: VIEWCHANGE to view v+1 (§V-A4, PBFT-style).
struct ViewChangeMsg : Message {
  explicit ViewChangeMsg(ActorId s) : Message(MsgKind::kViewChange, s) {}

  ViewNum new_view = 0;
  SeqNum stable_seq = 0;  ///< Last checkpoint-stable sequence.
  std::vector<PreparedProof> prepared;
  Bytes ds;

  static Bytes SigningBytes(ViewNum new_view, SeqNum stable_seq);

  void BuildWire(Encoder* enc) const override;
};

/// New primary -> nodes: NEWVIEW with the requests that must be
/// re-proposed in the new view (§V-A4).
struct NewViewMsg : Message {
  explicit NewViewMsg(ActorId s) : Message(MsgKind::kNewView, s) {}

  ViewNum view = 0;
  std::vector<ActorId> view_change_senders;
  std::vector<PreparedProof> reproposals;
  Bytes ds;

  static Bytes SigningBytes(ViewNum view, size_t reproposal_count);

  void BuildWire(Encoder* enc) const override;
};

/// Node -> nodes: featherweight checkpoint (§V-B): Merkle root over the
/// certificate log plus the compact certificates since the last
/// checkpoint — no client requests, no full commit proofs.
struct CheckpointMsg : Message {
  explicit CheckpointMsg(ActorId s) : Message(MsgKind::kCheckpoint, s) {}

  SeqNum upto_seq = 0;
  crypto::Digest cert_log_root;
  std::vector<crypto::CompactCertificate> certs;
  /// Batches for the certified sequences so dark nodes can adopt them.
  std::vector<PreparedProof> batches;

  void BuildWire(Encoder* enc) const override;
};

/// Executor -> storage: read request for the keys of a batch.
struct StorageReadMsg : Message {
  explicit StorageReadMsg(ActorId s) : Message(MsgKind::kStorageRead, s) {}

  uint64_t request_id = 0;
  std::vector<std::string> keys;

  void BuildWire(Encoder* enc) const override;
};

/// Storage -> executor: values + versions for the requested keys.
struct StorageReadReplyMsg : Message {
  explicit StorageReadReplyMsg(ActorId s)
      : Message(MsgKind::kStorageReadReply, s) {}

  struct Item {
    std::string key;
    SharedBytes value;  ///< Shared with the store's record.
    uint64_t version = 0;
    bool found = false;
  };

  uint64_t request_id = 0;
  std::vector<Item> items;

  void BuildWire(Encoder* enc) const override;
};

/// Leader -> acceptors for the SERVERLESSCFT baseline (multi-Paxos
/// steady-state phase 2a; no cryptographic signatures — §IX-H).
struct PaxosAcceptMsg : Message {
  explicit PaxosAcceptMsg(ActorId s) : Message(MsgKind::kPaxosAccept, s) {}

  uint64_t ballot = 0;
  SeqNum slot = 0;
  workload::BatchPtr batch = workload::EmptyBatch();
  crypto::Digest digest;
  /// Leader's contiguous commit frontier, piggybacked so followers can
  /// bound what a failover must re-propose (slots <= this are settled).
  SeqNum committed_upto = 0;

  void BuildWire(Encoder* enc) const override;
};

/// Acceptor -> leader (phase 2b).
struct PaxosAcceptedMsg : Message {
  explicit PaxosAcceptedMsg(ActorId s)
      : Message(MsgKind::kPaxosAccepted, s) {}

  uint64_t ballot = 0;
  SeqNum slot = 0;
  crypto::Digest digest;

  void BuildWire(Encoder* enc) const override;
};

/// Phases of the linear (collector-based) shim protocol — the PoE/SBFT
/// alternative the paper's §IV-B remark suggests for replacing PBFT's two
/// quadratic phases with linear communication.
enum class LinearPhase : uint8_t {
  kPrepare = 0,
  kCommit = 1,
};

/// Node -> primary: a DS vote for one phase of (view, seq, digest).
struct LinearVoteMsg : Message {
  explicit LinearVoteMsg(ActorId s) : Message(MsgKind::kLinearVote, s) {}

  LinearPhase phase = LinearPhase::kPrepare;
  ViewNum view = 0;
  SeqNum seq = 0;
  crypto::Digest digest;
  Bytes ds;

  /// Prepare votes sign a distinct domain; commit votes sign the standard
  /// CommitSigningBytes so the resulting certificate is exactly the C
  /// that executors and the verifier already validate.
  static Bytes PrepareSigningBytes(ViewNum view, SeqNum seq,
                                   const crypto::Digest& digest);

  void BuildWire(Encoder* enc) const override;
};

/// Primary -> nodes: the aggregated 2f_R+1-vote certificate for a phase.
/// Carried in threshold-style compact form (§IV-C remark) so the message
/// stays O(1) in the shim size.
struct LinearCertMsg : Message {
  explicit LinearCertMsg(ActorId s) : Message(MsgKind::kLinearCert, s) {}

  LinearPhase phase = LinearPhase::kPrepare;
  crypto::CommitCertificate cert;  // Full form (validated by recipients).

  void BuildWire(Encoder* enc) const override;
};

/// Shard verifier -> coordinator: one settle round's 2PC PREPARE votes
/// as a share-based certificate — K signed (signer, signature) vote
/// shares in a single message, each share individually attributable and
/// the whole set batch-verifiable (DESIGN.md §8). Votes are layered on
/// top of the shard's BFT pipeline: a share is only produced after the
/// fragment matched f_E+1 identical VERIFYs and passed ccheck + prepare
/// locking.
struct ShardVoteCertMsg : Message {
  explicit ShardVoteCertMsg(ActorId s)
      : Message(MsgKind::kShardVoteCert, s) {}

  crypto::VoteCertificate cert;
  /// Watermark piggyback: decision cseqs this shard has applied but not
  /// yet seen confirmed by the coordinator's watermark.
  std::vector<uint64_t> acked_cseqs;
  /// View stamp: the coordinator-group view this participant believes is
  /// current when it votes — a stale stamp is answered with a
  /// view-stamped decision the participant learns the real leader from.
  uint64_t coord_view = 0;

  void BuildWire(Encoder* enc) const override;
};

/// Coordinator -> participant shard verifiers: the logged 2PC outcome for
/// one cross-shard transaction. Participants apply their buffered write
/// set on commit, discard it on abort, and release prepare locks either
/// way; duplicates are idempotent (retry timers may resend).
struct ShardCommitDecisionMsg : Message {
  explicit ShardCommitDecisionMsg(ActorId s)
      : Message(MsgKind::kShardCommitDecision, s) {}

  TxnKey global_id;
  bool commit = false;
  /// Quorum proof: the full set of signed vote shares the coordinator
  /// decided on (COMMITs only). Participants batch-verify it before
  /// applying, so a forged decision cannot flip an outcome.
  crypto::VoteCertificate proof;
  /// Watermark piggyback: the coordinator's dense
  /// decision sequence number for this outcome (0 for presumed-abort
  /// answers) and its fully-decided watermark — every decision with
  /// cseq <= watermark is applied at all its participants, so dedup
  /// state below it can be truncated.
  uint64_t cseq = 0;
  uint64_t watermark = 0;
  /// View stamp: the deciding group view and the leader's actor id — how
  /// participants learn the current leader and where to redirect vote
  /// retransmits.
  uint64_t coord_view = 0;
  ActorId coord_leader = kInvalidActor;

  void BuildWire(Encoder* enc) const override;
};

// ---------------------------------------------------------------------------
// Coordinator-group replication (DESIGN.md §10). Appends, acks and syncs
// travel between group members, so a group of one never sends them; a
// redirect follows every takeover, a recovering group of one's included.
// ---------------------------------------------------------------------------

/// Coordinator leader -> followers: one replicated-log record. Serves
/// three entry kinds: heartbeats (leadership liveness + watermark
/// propagation), decision records (the quorum-fenced write-ahead log),
/// and launch records (best-effort in-flight txn metadata so a standby
/// can re-derive pending 2PC state after takeover). Every kind also
/// carries the gids the leader truncated since its previous append.
struct CoordAppendMsg : Message {
  enum Entry : uint8_t {
    kHeartbeat = 0,
    kDecision = 1,
    kLaunch = 2,
  };

  explicit CoordAppendMsg(ActorId s) : Message(MsgKind::kCoordAppend, s) {}

  uint64_t view = 0;
  uint64_t append_id = 0;
  uint8_t entry = kHeartbeat;
  TxnKey global_id;
  bool commit = false;
  uint64_t cseq = 0;
  uint64_t watermark = 0;
  /// kDecision: the shards the decision is sent to. kLaunch: the
  /// participant set (what a standby needs to judge vote completeness).
  std::vector<uint32_t> shards;
  /// kDecision COMMITs: the quorum proof, so a standby can re-answer
  /// retried votes with a provable decision.
  crypto::VoteCertificate proof;
  /// Gids the leader truncated since its previous append: each one's
  /// client floor passed it and every participant acked it. A follower
  /// drops them and raises the client's floor to at least the id.
  std::vector<TxnKey> truncated;

  void BuildWire(Encoder* enc) const override;
};

/// Coordinator follower -> leader: quorum ack for one decision append
/// (heartbeats and launch records are not acked).
struct CoordAckMsg : Message {
  explicit CoordAckMsg(ActorId s) : Message(MsgKind::kCoordAck, s) {}

  uint64_t view = 0;
  uint64_t append_id = 0;

  void BuildWire(Encoder* enc) const override;
};

/// New coordinator leader -> group: takeover read ("send me your log").
struct CoordSyncRequestMsg : Message {
  explicit CoordSyncRequestMsg(ActorId s)
      : Message(MsgKind::kCoordSyncRequest, s) {}

  uint64_t view = 0;

  void BuildWire(Encoder* enc) const override;
};

/// Coordinator member -> takeover candidate: the member's decision log,
/// launch records and client floors, plus its cseq/watermark frontier.
struct CoordSyncReplyMsg : Message {
  explicit CoordSyncReplyMsg(ActorId s)
      : Message(MsgKind::kCoordSyncReply, s) {}

  struct DecisionEntry {
    TxnKey global_id;
    bool commit = false;
    uint64_t cseq = 0;
    uint64_t view = 0;  ///< Group view the decision was fenced in.
    crypto::VoteCertificate proof;
  };
  struct LaunchEntry {
    TxnKey global_id;
    std::vector<uint32_t> shards;
  };

  uint64_t view = 0;
  uint64_t next_cseq = 1;
  uint64_t watermark = 0;
  std::vector<DecisionEntry> decisions;
  std::vector<LaunchEntry> launches;
  /// Each client's floor as this member knows it, as (client, floor).
  std::vector<TxnKey> floors;

  void BuildWire(Encoder* enc) const override;
};

/// Coordinator member -> shard verifiers (broadcast after takeover) or
/// -> a vote's sender (follower bounce): the group leader for `view` is
/// `leader`; standing votes should be re-sent there.
struct CoordRedirectMsg : Message {
  explicit CoordRedirectMsg(ActorId s)
      : Message(MsgKind::kCoordRedirect, s) {}

  uint64_t view = 0;
  ActorId leader = kInvalidActor;

  void BuildWire(Encoder* enc) const override;
};

// ---------------------------------------------------------------------------
// Multi-Paxos phase 1 (CFT shim leader takeover; also the machinery the
// coordinator group's sync protocol mirrors).
// ---------------------------------------------------------------------------

/// Candidate leader -> acceptors: phase-1a read for every slot above
/// `from_slot` (the candidate's commit frontier).
struct PaxosPrepareMsg : Message {
  explicit PaxosPrepareMsg(ActorId s)
      : Message(MsgKind::kPaxosPrepare, s) {}

  uint64_t ballot = 0;
  SeqNum from_slot = 0;

  void BuildWire(Encoder* enc) const override;
};

/// Acceptor -> candidate leader: phase-1b promise carrying every accepted
/// value above the requested frontier (highest accepting ballot each).
struct PaxosPromiseMsg : Message {
  explicit PaxosPromiseMsg(ActorId s)
      : Message(MsgKind::kPaxosPromise, s) {}

  struct AcceptedEntry {
    SeqNum slot = 0;
    uint64_t ballot = 0;
    workload::BatchPtr batch = workload::EmptyBatch();
  };

  uint64_t ballot = 0;
  SeqNum commit_frontier = 0;
  std::vector<AcceptedEntry> entries;

  void BuildWire(Encoder* enc) const override;
};

}  // namespace sbft::shim

#endif  // SBFT_SHIM_MESSAGE_H_
