#include "storage/kv_store.h"

namespace sbft::storage {

Status KvStore::Get(const std::string& key, VersionedValue* out) const {
  ++reads_;
  auto it = map_.find(key);
  if (it == map_.end()) {
    return Status::NotFound(key);
  }
  out->value = *it->second.value;
  out->version = it->second.version;
  return Status::Ok();
}

uint64_t KvStore::VersionOf(const std::string& key) const {
  auto it = map_.find(key);
  return it == map_.end() ? 0 : it->second.version;
}

bool KvStore::Contains(const std::string& key) const {
  return map_.contains(key);
}

void KvStore::Put(const std::string& key, Bytes value) {
  ++writes_;
  Record& slot = map_[key];
  slot.value = std::make_shared<const Bytes>(std::move(value));
  ++slot.version;
}

void KvStore::Load(std::string key, const Image& image) {
  ++writes_;
  Record& slot = map_[std::move(key)];
  slot.value = image;
  ++slot.version;
}

void KvStore::Delete(const std::string& key) { map_.erase(key); }

}  // namespace sbft::storage
