#ifndef SBFT_COMMON_CLIENT_FLOOR_H_
#define SBFT_COMMON_CLIENT_FLOOR_H_

#include <cstddef>
#include <map>
#include <unordered_map>
#include <utility>
#include <variant>

#include "common/ids.h"

namespace sbft {

/// \brief Per-client transaction table bounded by each client's floor.
///
/// Every signer of requests puts a floor into each transaction it signs:
/// the highest id at or below which it has nothing outstanding, each
/// earlier request answered or abandoned. No request at or below it will
/// be retransmitted, so nothing needs to be remembered about one. The
/// table keeps, per client, the highest floor it has learned plus the
/// entries above it: raising a floor erases the client's entries at or
/// below it, and a key at or below its client's floor is never inserted.
/// It therefore holds what is in flight, not the run's history.
///
/// Entries sit in one map ordered by (client, id), so raising a floor
/// erases one contiguous range. `V` defaults to an empty payload, which
/// makes the table a set of keys.
template <typename V = std::monostate>
class FloorTable {
 public:
  /// The highest floor learned for `client` (0 when none is known).
  TxnId floor(ActorId client) const {
    auto it = floors_.find(client);
    return it == floors_.end() ? 0 : it->second;
  }

  /// Raises `client`'s floor to `floor` and erases the client's entries
  /// at or below it. A floor below the known one changes nothing.
  void Raise(ActorId client, TxnId floor) {
    TxnId& known = floors_[client];
    if (floor <= known) return;
    known = floor;
    entries_.erase(entries_.lower_bound(TxnKey{client, 0}),
                   entries_.upper_bound(TxnKey{client, floor}));
  }

  /// The key's entry, or nullptr when the key is absent.
  V* Find(const TxnKey& key) {
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
  }
  const V* Find(const TxnKey& key) const {
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
  }

  /// The key's entry, and true when it was inserted just now (value-
  /// initialised). {nullptr, false} when the key is at or below its
  /// client's floor: such a key is never stored.
  std::pair<V*, bool> FindOrInsert(const TxnKey& key) {
    if (key.id <= floor(key.client)) return {nullptr, false};
    auto [it, inserted] = entries_.try_emplace(key);
    return {&it->second, inserted};
  }

  /// Erases the key; false when it was absent.
  bool Erase(const TxnKey& key) { return entries_.erase(key) > 0; }

  /// Entries held (floors not counted).
  size_t size() const { return entries_.size(); }

 private:
  std::map<TxnKey, V> entries_;
  std::unordered_map<ActorId, TxnId> floors_;
};

}  // namespace sbft

#endif  // SBFT_COMMON_CLIENT_FLOOR_H_
