#ifndef SBFT_STORAGE_KV_STORE_H_
#define SBFT_STORAGE_KV_STORE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/paged_table.h"
#include "common/status.h"

namespace sbft::storage {

/// A value together with its write version. The value shares the
/// store's buffer.
struct VersionedValue {
  SharedBytes value;
  uint64_t version = 0;
};

/// \brief The enterprise's on-premise data store S (paper §I challenge 4,
/// §III).
///
/// Versioned in-memory key-value store. Executors read from it (never
/// write); only the trusted verifier applies write sets. Per-key versions
/// let the verifier run the paper's concurrency-control check ("is the
/// value of rw the same as in the data-store", Fig. 3 line 32) by
/// comparing versions instead of full values.
///
/// The load phase is implicit: a load base (one value image and a
/// predicate over keys) stands for every record, and the table holds only
/// the keys written since. A key missing from the table that the
/// predicate accepts reads as the image at version 1; its first Put gives
/// it version 2. Memory is bounded by the keys written since the load,
/// not by the record count. Values are shared, never copied: a Put keeps
/// the buffer it is given and a Get returns it.
///
/// A written key's record (its value reference, version and key) is
/// packed into an append-only arena of kArenaBlockBytes blocks, and the
/// table's 8-B slot holds a 32-bit tag of the key's hash beside the
/// record's reference. The store never erases, so a record never moves
/// and lives as long as the store.
class KvStore {
 public:
  /// Accepts exactly the record keys of a load phase. It must own
  /// everything it reads: the store keeps it for its whole life.
  using RecordPredicate = std::function<bool(std::string_view key)>;

  /// Size of an arena block. A record longer than a block gets a block
  /// of its own size.
  static constexpr size_t kArenaBlockBytes = 4096;

  /// Arena bytes of the record of a written key of `key_size` bytes: the
  /// value reference and version, the key's length as a uint32_t, then
  /// the key, padded to 8 B (40 B for a key of 5 to 12 bytes).
  static constexpr size_t ArenaRecordBytes(size_t key_size) {
    return (sizeof(Record) + sizeof(uint32_t) + key_size + 7) & ~size_t{7};
  }

  /// The 32-bit tag of a key's hash that its table slot holds. Keys with
  /// equal tags are told apart by their bytes in the arena.
  static uint32_t KeyTag(std::string_view key) {
    const uint64_t hash = std::hash<std::string_view>{}(key);
    return static_cast<uint32_t>(hash ^ (hash >> 32));
  }

  /// Reads a key. Returns NotFound for absent keys.
  Status Get(const std::string& key, VersionedValue* out) const;

  /// Current version of a key; 0 when absent (version numbering starts
  /// at 1 on first write, or on the load phase for a record).
  uint64_t VersionOf(const std::string& key) const;

  /// True when the key exists.
  bool Contains(const std::string& key) const;

  /// Writes a key, bumping its version.
  void Put(const std::string& key, SharedBytes value);

  /// Load phase: every key `is_record` accepts holds `image` at version 1
  /// until its first Put. Meant for a fresh store; replaces any earlier
  /// base.
  void SetLoadBase(SharedBytes image, RecordPredicate is_record);

  uint64_t reads() const { return reads_; }
  /// Puts since construction; the load phase writes nothing.
  uint64_t writes() const { return writes_; }

 private:
  /// The head of a written key's record in the arena. The key's length
  /// (a uint32_t) and its bytes follow it.
  struct Record {
    SharedBytes value;
    uint64_t version;
  };

  /// \brief The records of the written keys, appended into blocks.
  ///
  /// A record goes into the newest block when it fits there, and starts
  /// a new block otherwise. A record refers to its 8-B word in the arena
  /// plus one, so a reference of 0 names no record. Records are
  /// destroyed with the arena.
  class Arena {
   public:
    Arena() = default;
    Arena(Arena&& other) noexcept : blocks_(std::exchange(other.blocks_, {})) {}
    Arena& operator=(Arena&& other) noexcept {
      std::swap(blocks_, other.blocks_);
      return *this;
    }
    ~Arena();

    /// Places a record and returns its reference.
    uint32_t Append(std::string_view key, SharedBytes value, uint64_t version);

    Record& At(uint32_t ref) {
      return const_cast<Record&>(std::as_const(*this).At(ref));
    }
    const Record& At(uint32_t ref) const;
    std::string_view KeyOf(uint32_t ref) const;

   private:
    static constexpr size_t kBlockWords = kArenaBlockBytes / 8;

    struct Block {
      std::unique_ptr<std::byte[]> bytes;
      size_t used = 0;
    };

    const std::byte* Address(uint32_t ref) const {
      const size_t word = ref - 1;
      return blocks_[word / kBlockWords].bytes.get() + 8 * (word % kBlockWords);
    }

    std::vector<Block> blocks_;
  };

  /// A slot of the written-key table: the key's tag beside its record's
  /// reference, so a probe compares tags without touching a record and
  /// growth rehashes from the tag. Most lookups are of records nobody
  /// has written, and such a miss rarely touches a record.
  struct WrittenPolicy {
    struct Key {
      std::string_view key;
      const Arena* arena;
    };
    struct Slot {
      uint32_t tag = 0;
      uint32_t ref = 0;
    };
    static uint64_t Hash(const Key& key) { return KeyTag(key.key); }
    static uint64_t Hash(const Slot& slot) { return slot.tag; }
    static bool Empty(const Slot& slot) { return slot.ref == 0; }
    static bool Matches(const Slot& slot, uint64_t hash, const Key& key) {
      return slot.tag == hash && key.arena->KeyOf(slot.ref) == key.key;
    }
  };

  /// The record of a written key, or nullptr when the key is unwritten.
  const Record* Written(std::string_view key) const;

  /// True when `key` is a record of the load phase.
  bool IsRecord(std::string_view key) const {
    return is_record_ && is_record_(key);
  }

  /// Keys written since the load phase, and their records.
  Arena arena_;
  PagedTable<WrittenPolicy> written_;
  SharedBytes image_;
  RecordPredicate is_record_;
  mutable uint64_t reads_ = 0;
  uint64_t writes_ = 0;
};

}  // namespace sbft::storage

#endif  // SBFT_STORAGE_KV_STORE_H_
