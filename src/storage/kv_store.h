#ifndef SBFT_STORAGE_KV_STORE_H_
#define SBFT_STORAGE_KV_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

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
class KvStore {
 public:
  /// Accepts exactly the record keys of a load phase. It must own
  /// everything it reads: the store keeps it for its whole life.
  using RecordPredicate = std::function<bool(std::string_view key)>;

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
  /// One written key: its version, a reference to its value and its key,
  /// in one allocation.
  struct Record;
  struct FreeRecord {
    void operator()(Record* record) const;
  };
  using RecordPtr = std::unique_ptr<Record, FreeRecord>;

  /// A slot of the written-key table: the key's hash beside its record,
  /// so a probe compares hashes without leaving the slot array. Most
  /// lookups are of records nobody has written, and such a miss never
  /// touches a record.
  struct WrittenPolicy {
    using Key = std::string_view;
    struct Slot {
      uint64_t hash = 0;
      RecordPtr record;
    };
    static uint64_t Hash(std::string_view key) {
      return std::hash<std::string_view>{}(key);
    }
    static uint64_t Hash(const Slot& slot) { return slot.hash; }
    static bool Empty(const Slot& slot) { return slot.record == nullptr; }
    static bool Matches(const Slot& slot, uint64_t hash,
                        std::string_view key);
  };

  static RecordPtr NewRecord(std::string_view key, SharedBytes value,
                             uint64_t version);

  /// True when `key` is a record of the load phase.
  bool IsRecord(std::string_view key) const {
    return is_record_ && is_record_(key);
  }

  /// Keys written since the load phase.
  PagedTable<WrittenPolicy> written_;
  SharedBytes image_;
  RecordPredicate is_record_;
  mutable uint64_t reads_ = 0;
  uint64_t writes_ = 0;
};

}  // namespace sbft::storage

#endif  // SBFT_STORAGE_KV_STORE_H_
