#ifndef SBFT_STORAGE_RW_SET_H_
#define SBFT_STORAGE_RW_SET_H_

#include <string>
#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "storage/kv_store.h"

namespace sbft::storage {

/// One observed read: key plus the version the executor saw.
struct ReadEntry {
  std::string key;
  uint64_t version = 0;

  friend bool operator==(const ReadEntry& a, const ReadEntry& b) {
    return a.key == b.key && a.version == b.version;
  }
};

/// One buffered write: key plus the new value, shared with the
/// transaction that wrote it.
struct WriteEntry {
  std::string key;
  SharedBytes value;

  friend bool operator==(const WriteEntry& a, const WriteEntry& b) {
    return a.key == b.key && a.value == b.value;
  }
};

/// \brief The read-write set rw carried in VERIFY messages (paper Fig. 3).
///
/// Executors record what they read (with versions) and what they intend to
/// write; the verifier checks the reads are still current before applying
/// the writes (Fig. 3 lines 31-34).
struct RwSet {
  std::vector<ReadEntry> reads;
  std::vector<WriteEntry> writes;

  void EncodeTo(Encoder* enc) const;
  static Status DecodeFrom(Decoder* dec, RwSet* out);

  /// The paper's ccheck (Fig. 3 line 32): every read version still matches
  /// the store.
  bool ReadsCurrent(const KvStore& store) const;

  /// Applies the write set (Fig. 3 line 34). Call only after ReadsCurrent.
  void ApplyWrites(KvStore* store) const;

  bool empty() const { return reads.empty() && writes.empty(); }

  friend bool operator==(const RwSet& a, const RwSet& b) {
    return a.reads == b.reads && a.writes == b.writes;
  }
};

}  // namespace sbft::storage

#endif  // SBFT_STORAGE_RW_SET_H_
