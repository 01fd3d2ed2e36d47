#include "storage/kv_store.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>

namespace sbft::storage {

/// A header followed by the key's bytes.
struct KvStore::Record {
  uint64_t version;
  SharedBytes value;
  uint32_t key_size;

  std::string_view key() const {
    return {reinterpret_cast<const char*>(this + 1), key_size};
  }
};

void KvStore::FreeRecord::operator()(Record* record) const {
  record->~Record();
  ::operator delete(record);
}

KvStore::RecordPtr KvStore::NewRecord(std::string_view key, SharedBytes value,
                                      uint64_t version) {
  if (key.size() > std::numeric_limits<uint32_t>::max()) {
    std::fprintf(stderr, "KvStore: a key is over 4 GiB\n");
    std::abort();
  }
  void* raw = ::operator new(sizeof(Record) + key.size());
  RecordPtr record(new (raw) Record{version, std::move(value),
                                    static_cast<uint32_t>(key.size())});
  std::memcpy(reinterpret_cast<char*>(record.get() + 1), key.data(),
              key.size());
  return record;
}

bool KvStore::WrittenPolicy::Matches(const Slot& slot, uint64_t hash,
                                     std::string_view key) {
  return slot.hash == hash && slot.record->key() == key;
}

Status KvStore::Get(const std::string& key, VersionedValue* out) const {
  ++reads_;
  if (const auto* slot = written_.Find(key)) {
    out->value = slot->record->value;
    out->version = slot->record->version;
  } else if (IsRecord(key)) {
    out->value = image_;
    out->version = 1;
  } else {
    return Status::NotFound(key);
  }
  return Status::Ok();
}

uint64_t KvStore::VersionOf(const std::string& key) const {
  if (const auto* slot = written_.Find(key)) return slot->record->version;
  return IsRecord(key) ? 1 : 0;
}

bool KvStore::Contains(const std::string& key) const {
  return written_.Find(key) != nullptr || IsRecord(key);
}

void KvStore::Put(const std::string& key, SharedBytes value) {
  ++writes_;
  auto [slot, first_write] = written_.FindOrInsert(key, [&](uint64_t hash) {
    // A record of the load phase is at version 1 until this write.
    return WrittenPolicy::Slot{
        hash, NewRecord(key, std::move(value), IsRecord(key) ? 2 : 1)};
  });
  if (first_write) return;
  slot->record->value = std::move(value);
  ++slot->record->version;
}

void KvStore::SetLoadBase(SharedBytes image, RecordPredicate is_record) {
  image_ = std::move(image);
  is_record_ = std::move(is_record);
}

}  // namespace sbft::storage
