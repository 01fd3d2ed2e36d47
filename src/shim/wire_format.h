#ifndef SBFT_SHIM_WIRE_FORMAT_H_
#define SBFT_SHIM_WIRE_FORMAT_H_

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace sbft::shim {

enum class MsgKind : uint8_t;

/// \brief Packed little-endian views over the fixed prefix of every wire
/// message (DESIGN.md §8).
///
/// Each header below mirrors, byte for byte, what the Encoder-based
/// serializer used to emit for the fixed-width fields at the front of a
/// message. The structs are plain byte arrays wrapped in typed accessors:
///  - alignment is 1 by construction, so `reinterpret_cast` from any
///    buffer offset is valid without #pragma pack and UBSan-clean;
///  - accessors assemble integers with shifts, so the layout is
///    little-endian on every host;
///  - `static_assert(sizeof(...))` pins each layout at compile time — a
///    field added without updating the wire contract fails the build.
///
/// Writing goes through the same structs (BuildWire packs a header on the
/// stack and appends it raw), and WireSize() counts that same BuildWire
/// instead of summing field widths, so there is exactly one definition
/// of each message's byte layout. Parsing uses `TryFrom`, which
/// bounds-checks the buffer and the kind byte and returns nullptr instead
/// of reading out of bounds. Variable-length sections (batches,
/// certificates, length-prefixed byte strings) follow the fixed prefix
/// and keep the varint/length-prefixed encoding.
namespace wire {

struct U8Field {
  uint8_t b[1];
  uint8_t get() const { return b[0]; }
  void set(uint8_t v) { b[0] = v; }
};

struct BoolField {
  uint8_t b[1];
  bool get() const { return b[0] == 1; }
  /// True iff the byte is a canonical bool (0 or 1) — parsers must reject
  /// anything else so the encoding stays injective.
  bool valid() const { return b[0] <= 1; }
  void set(bool v) { b[0] = v ? 1 : 0; }
};

struct U32Field {
  uint8_t b[4];
  uint32_t get() const {
    return static_cast<uint32_t>(b[0]) | static_cast<uint32_t>(b[1]) << 8 |
           static_cast<uint32_t>(b[2]) << 16 |
           static_cast<uint32_t>(b[3]) << 24;
  }
  void set(uint32_t v) {
    for (int i = 0; i < 4; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
  }
};

struct U64Field {
  uint8_t b[8];
  uint64_t get() const {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(b[i]) << (8 * i);
    return v;
  }
  void set(uint64_t v) {
    for (int i = 0; i < 8; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
  }
};

struct DigestField {
  uint8_t b[32];
  const uint8_t* data() const { return b; }
  uint8_t* mutable_data() { return b; }
};

/// Common 5-byte header every message starts with: kind + sender.
struct MsgHeader {
  U8Field kind;
  U32Field sender;
};
static_assert(sizeof(MsgHeader) == 5, "wire layout changed");

/// Bounds-checked view: nullptr unless the buffer holds at least a full
/// H and (when `expected_kind` is set) the kind byte matches.
template <typename H>
const H* TryFrom(const uint8_t* data, size_t size, MsgKind expected_kind) {
  if (data == nullptr || size < sizeof(H)) return nullptr;
  const H* h = reinterpret_cast<const H*>(data);
  if (h->hdr.kind.get() != static_cast<uint8_t>(expected_kind)) return nullptr;
  return h;
}

template <typename H>
const H* TryFrom(const Bytes& buf, MsgKind expected_kind) {
  return TryFrom<H>(buf.data(), buf.size(), expected_kind);
}

// --- Fixed prefixes, one struct per message kind. "complete" means the
// whole message is fixed-width; otherwise variable sections follow. ---

/// kClientRequest prefix: the transaction's fixed head (id, client,
/// flags); ops and the client signature follow.
struct ClientRequestHeader {
  MsgHeader hdr;
  U64Field txn_id;
  U32Field client;
  U8Field txn_flags;
};
static_assert(sizeof(ClientRequestHeader) == 18, "wire layout changed");

/// kPrePrepare prefix: (view, seq); batch then ∆ follow.
struct PrePrepareHeader {
  MsgHeader hdr;
  U64Field view;
  U64Field seq;
};
static_assert(sizeof(PrePrepareHeader) == 21, "wire layout changed");

/// kPrepare — complete.
struct PrepareHeader {
  MsgHeader hdr;
  U64Field view;
  U64Field seq;
  DigestField digest;
};
static_assert(sizeof(PrepareHeader) == 53, "wire layout changed");

/// kCommit prefix: the DS follows as length-prefixed bytes.
struct CommitHeader {
  MsgHeader hdr;
  U64Field view;
  U64Field seq;
  DigestField digest;
};
static_assert(sizeof(CommitHeader) == 53, "wire layout changed");

/// kExecute prefix: batch, ∆, certificate, and spawner DS follow.
struct ExecuteHeader {
  MsgHeader hdr;
  U64Field view;
  U64Field seq;
};
static_assert(sizeof(ExecuteHeader) == 21, "wire layout changed");

/// kVerify prefix: certificate, per-txn rw sets, refs, result, DS follow.
struct VerifyHeader {
  MsgHeader hdr;
  U64Field view;
  U64Field seq;
  DigestField batch_digest;
};
static_assert(sizeof(VerifyHeader) == 53, "wire layout changed");

/// kResponse prefix: result bytes and the aborted flag follow.
struct ResponseHeader {
  MsgHeader hdr;
  U64Field txn_id;
  U32Field client;
  U64Field seq;
  DigestField batch_digest;
};
static_assert(sizeof(ResponseHeader) == 57, "wire layout changed");

/// kError prefix: the optional ⟨T⟩C follows when has_txn is set.
struct ErrorHeader {
  MsgHeader hdr;
  U8Field reason;
  U64Field kmax;
  DigestField txn_digest;
  BoolField has_txn;
};
static_assert(sizeof(ErrorHeader) == 47, "wire layout changed");

/// kReplace — complete.
struct ReplaceHeader {
  MsgHeader hdr;
  DigestField txn_digest;
};
static_assert(sizeof(ReplaceHeader) == 37, "wire layout changed");

/// kAck — complete.
struct AckHeader {
  MsgHeader hdr;
  BoolField has_seq;
  U64Field kmax;
  DigestField txn_digest;
};
static_assert(sizeof(AckHeader) == 46, "wire layout changed");

/// kViewChange prefix: prepared proofs and the DS follow.
struct ViewChangeHeader {
  MsgHeader hdr;
  U64Field new_view;
  U64Field stable_seq;
};
static_assert(sizeof(ViewChangeHeader) == 21, "wire layout changed");

/// kNewView prefix: sender list, reproposals, and the DS follow.
struct NewViewHeader {
  MsgHeader hdr;
  U64Field view;
};
static_assert(sizeof(NewViewHeader) == 13, "wire layout changed");

/// kCheckpoint prefix: compact certificates and batches follow.
struct CheckpointHeader {
  MsgHeader hdr;
  U64Field upto_seq;
  DigestField cert_log_root;
};
static_assert(sizeof(CheckpointHeader) == 45, "wire layout changed");

/// kStorageRead prefix: the key list follows.
struct StorageReadHeader {
  MsgHeader hdr;
  U64Field request_id;
};
static_assert(sizeof(StorageReadHeader) == 13, "wire layout changed");

/// kStorageReadReply prefix: the item list follows.
struct StorageReadReplyHeader {
  MsgHeader hdr;
  U64Field request_id;
};
static_assert(sizeof(StorageReadReplyHeader) == 13, "wire layout changed");

/// kPaxosAccept prefix: batch, ∆, committed_upto follow.
struct PaxosAcceptHeader {
  MsgHeader hdr;
  U64Field ballot;
  U64Field slot;
};
static_assert(sizeof(PaxosAcceptHeader) == 21, "wire layout changed");

/// kPaxosAccepted — complete.
struct PaxosAcceptedHeader {
  MsgHeader hdr;
  U64Field ballot;
  U64Field slot;
  DigestField digest;
};
static_assert(sizeof(PaxosAcceptedHeader) == 53, "wire layout changed");

/// kLinearVote prefix: the DS follows.
struct LinearVoteHeader {
  MsgHeader hdr;
  U8Field phase;
  U64Field view;
  U64Field seq;
  DigestField digest;
};
static_assert(sizeof(LinearVoteHeader) == 54, "wire layout changed");

/// kLinearCert prefix: the full certificate follows.
struct LinearCertHeader {
  MsgHeader hdr;
  U8Field phase;
};
static_assert(sizeof(LinearCertHeader) == 6, "wire layout changed");

/// kShardCommitDecision prefix: the gid (id, then client), the outcome;
/// the quorum proof (COMMITs only), the (cseq, watermark) piggyback and
/// the view stamp follow.
struct ShardCommitDecisionHeader {
  MsgHeader hdr;
  U64Field global_id;
  U32Field global_client;
  BoolField commit;
};
static_assert(sizeof(ShardCommitDecisionHeader) == 18, "wire layout changed");

/// kShardVoteCert prefix: the share list, the watermark piggyback and the
/// view stamp follow (share-based quorum certificate, DESIGN.md §8).
struct ShardVoteCertHeader {
  MsgHeader hdr;
};
static_assert(sizeof(ShardVoteCertHeader) == 5, "wire layout changed");

// --- coordinator-group replication (DESIGN.md §10) ---
//
// Appends, acks and syncs travel between group members, so a group of one
// never sends them; redirects go to the shard verifiers after a takeover.

/// kCoordAppend prefix: the gid is (global_id, client); the
/// sent-to/participant shard list, an optional quorum proof and the
/// truncated gids follow. One header serves heartbeats (entry 0),
/// decision records (entry 1), and launch records (entry 2).
struct CoordAppendHeader {
  MsgHeader hdr;
  U64Field view;
  U64Field append_id;
  U8Field entry;
  U64Field global_id;
  BoolField commit;
  U64Field cseq;
  U64Field watermark;
  U32Field client;
};
static_assert(sizeof(CoordAppendHeader) == 51, "wire layout changed");

/// kCoordAck — complete. A follower's quorum ack for one append.
struct CoordAckHeader {
  MsgHeader hdr;
  U64Field view;
  U64Field append_id;
};
static_assert(sizeof(CoordAckHeader) == 21, "wire layout changed");

/// kCoordSyncRequest — complete. New-leader takeover read.
struct CoordSyncRequestHeader {
  MsgHeader hdr;
  U64Field view;
};
static_assert(sizeof(CoordSyncRequestHeader) == 13, "wire layout changed");

/// kCoordSyncReply prefix: the decision-log entries and launch records
/// follow.
struct CoordSyncReplyHeader {
  MsgHeader hdr;
  U64Field view;
  U64Field next_cseq;
  U64Field watermark;
};
static_assert(sizeof(CoordSyncReplyHeader) == 29, "wire layout changed");

/// kCoordRedirect — complete. "The coordinator leader for `view` is
/// `leader`; re-send your standing votes there."
struct CoordRedirectHeader {
  MsgHeader hdr;
  U64Field view;
  U32Field leader;
};
static_assert(sizeof(CoordRedirectHeader) == 17, "wire layout changed");

/// kPaxosPrepare — complete. Phase-1a read from a candidate leader.
struct PaxosPrepareHeader {
  MsgHeader hdr;
  U64Field ballot;
  U64Field from_slot;
};
static_assert(sizeof(PaxosPrepareHeader) == 21, "wire layout changed");

/// kPaxosPromise prefix: the accepted-entry list follows.
struct PaxosPromiseHeader {
  MsgHeader hdr;
  U64Field ballot;
  U64Field commit_frontier;
};
static_assert(sizeof(PaxosPromiseHeader) == 21, "wire layout changed");

}  // namespace wire
}  // namespace sbft::shim

#endif  // SBFT_SHIM_WIRE_FORMAT_H_
