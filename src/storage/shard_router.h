#ifndef SBFT_STORAGE_SHARD_ROUTER_H_
#define SBFT_STORAGE_SHARD_ROUTER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sbft::storage {

/// Index of one shard plane (0..shard_count-1).
using ShardId = uint32_t;

/// \brief Hash-partitions the keyspace over `shard_count` shard planes.
///
/// The partition function is a stable FNV-1a over the key bytes — NOT
/// std::hash — so the key→shard mapping is identical across builds,
/// platforms, and runs, which the replayable-chaos digest contract
/// requires. With shard_count == 1 every key maps to shard 0 and the
/// system collapses to the original single-plane architecture.
class ShardRouter {
 public:
  explicit ShardRouter(uint32_t shard_count)
      : shard_count_(shard_count == 0 ? 1 : shard_count) {}

  uint32_t shard_count() const { return shard_count_; }

  /// Stable 64-bit FNV-1a hash of a key (exposed for tests and for the
  /// workload generator's cross-shard key forcing).
  static uint64_t HashKey(std::string_view key) {
    uint64_t h = 0xcbf29ce484222325ull;
    for (char c : key) {
      h ^= static_cast<uint8_t>(c);
      h *= 0x100000001b3ull;
    }
    return h;
  }

  /// Home shard of a key.
  ShardId ShardOf(std::string_view key) const {
    return shard_count_ == 1
               ? 0
               : static_cast<ShardId>(HashKey(key) % shard_count_);
  }

  /// Sorted, deduplicated list of shards a key set spans.
  std::vector<ShardId> ShardsOf(const std::vector<std::string>& keys) const;

 private:
  uint32_t shard_count_;
};

}  // namespace sbft::storage

#endif  // SBFT_STORAGE_SHARD_ROUTER_H_
