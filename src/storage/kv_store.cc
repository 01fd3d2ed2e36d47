#include "storage/kv_store.h"

namespace sbft::storage {

KvStore::KvStore() {
  // Most lookups are of records nobody has written, so they miss the
  // table, and a miss walks its whole bucket. At this load factor about
  // half the buckets are empty, and such a miss stops at the bucket.
  written_.max_load_factor(0.5f);
}

Status KvStore::Get(const std::string& key, VersionedValue* out) const {
  ++reads_;
  auto it = written_.find(key);
  if (it != written_.end()) {
    *out = it->second;
  } else if (IsRecord(key)) {
    out->value = image_;
    out->version = 1;
  } else {
    return Status::NotFound(key);
  }
  return Status::Ok();
}

uint64_t KvStore::VersionOf(const std::string& key) const {
  auto it = written_.find(key);
  if (it != written_.end()) return it->second.version;
  return IsRecord(key) ? 1 : 0;
}

bool KvStore::Contains(const std::string& key) const {
  return written_.contains(key) || IsRecord(key);
}

void KvStore::Put(const std::string& key, Bytes value) {
  ++writes_;
  auto [it, first_write] = written_.try_emplace(key);
  VersionedValue& slot = it->second;
  if (first_write && IsRecord(key)) slot.version = 1;
  slot.value = std::move(value);
  ++slot.version;
}

void KvStore::SetLoadBase(Bytes image, RecordPredicate is_record) {
  image_ = std::move(image);
  is_record_ = std::move(is_record);
}

}  // namespace sbft::storage
