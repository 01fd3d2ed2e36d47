#ifndef SBFT_COMMON_IDS_H_
#define SBFT_COMMON_IDS_H_

#include <compare>
#include <cstdint>

namespace sbft {

/// Identity of a simulation participant (client, shim node, executor,
/// verifier, storage). The paper's id() function (§III).
using ActorId = uint32_t;

/// Sentinel for "no actor".
constexpr ActorId kInvalidActor = 0xffffffffu;

/// Consensus sequence number k assigned by the shim primary.
using SeqNum = uint64_t;

/// PBFT view number v; the primary of view v is node (v mod n).
using ViewNum = uint64_t;

/// Client-chosen transaction identifier. It names a transaction only
/// together with its client (TxnKey): a client signs whatever id it
/// likes, ids another client will use included, so a table of client
/// transactions keyed by the bare id lets one client's request stand in
/// for another's.
using TxnId = uint64_t;

/// The name of a client transaction: its client and that client's id.
/// A cross-shard transaction's global id (gid) is its TxnKey too, so the
/// client named in a gid is the one whose floor truncates it.
struct TxnKey {
  ActorId client = kInvalidActor;
  TxnId id = 0;

  friend auto operator<=>(const TxnKey&, const TxnKey&) = default;
};

}  // namespace sbft

#endif  // SBFT_COMMON_IDS_H_
