#ifndef SBFT_STORAGE_KV_STORE_H_
#define SBFT_STORAGE_KV_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/bytes.h"
#include "common/status.h"

namespace sbft::storage {

/// A value together with its write version.
struct VersionedValue {
  Bytes value;
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
/// Values are copy-on-write: a load phase shares one immutable image
/// across all its records, and a record gets a buffer of its own on its
/// first Put. Memory is bounded by the record count plus the keys written
/// since the load, not by records times value size.
class KvStore {
 public:
  /// An immutable value shared by the records of one load phase.
  using Image = std::shared_ptr<const Bytes>;

  KvStore() = default;

  /// Reads a key. Returns NotFound for absent keys.
  Status Get(const std::string& key, VersionedValue* out) const;

  /// Current version of a key; 0 when absent (version numbering starts
  /// at 1 on first write).
  uint64_t VersionOf(const std::string& key) const;

  /// True when the key exists.
  bool Contains(const std::string& key) const;

  /// Writes a key, bumping its version.
  void Put(const std::string& key, Bytes value);

  /// Load phase: writes `key` like Put, sharing `image` instead of owning
  /// a copy of the value.
  void Load(std::string key, const Image& image);

  /// Pre-sizes the table for `records` keys (before a load phase).
  void Reserve(size_t records) { map_.reserve(records); }

  /// Removes a key (used by tests; the YCSB workloads only read/update).
  void Delete(const std::string& key);

  size_t size() const { return map_.size(); }
  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }

 private:
  struct Record {
    Image value;
    uint64_t version = 0;
  };

  std::unordered_map<std::string, Record> map_;
  mutable uint64_t reads_ = 0;
  uint64_t writes_ = 0;
};

}  // namespace sbft::storage

#endif  // SBFT_STORAGE_KV_STORE_H_
