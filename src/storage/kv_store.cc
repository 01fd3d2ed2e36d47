#include "storage/kv_store.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>

namespace sbft::storage {

/// A 16-byte header followed by the key's bytes, then the value's.
struct KvStore::Record {
  uint64_t version;
  uint32_t key_size;
  uint32_t value_size;

  char* bytes() { return reinterpret_cast<char*>(this + 1); }
  const char* bytes() const { return reinterpret_cast<const char*>(this + 1); }
  std::string_view key() const { return {bytes(), key_size}; }
  char* value() { return bytes() + key_size; }
  const char* value() const { return bytes() + key_size; }
};

void KvStore::FreeRecord::operator()(Record* record) const {
  ::operator delete(record);
}

KvStore::RecordPtr KvStore::NewRecord(std::string_view key,
                                      const Bytes& value, uint64_t version) {
  constexpr size_t kMaxSize = std::numeric_limits<uint32_t>::max();
  if (key.size() > kMaxSize || value.size() > kMaxSize) {
    std::fprintf(stderr, "KvStore: a key or value is over 4 GiB\n");
    std::abort();
  }
  void* raw = ::operator new(sizeof(Record) + key.size() + value.size());
  RecordPtr record(new (raw) Record{version, static_cast<uint32_t>(key.size()),
                                    static_cast<uint32_t>(value.size())});
  std::memcpy(record->bytes(), key.data(), key.size());
  if (!value.empty()) {
    std::memcpy(record->value(), value.data(), value.size());
  }
  return record;
}

bool KvStore::WrittenPolicy::Matches(const Slot& slot, uint64_t hash,
                                     std::string_view key) {
  return slot.hash == hash && slot.record->key() == key;
}

Status KvStore::Get(const std::string& key, VersionedValue* out) const {
  ++reads_;
  if (const auto* slot = written_.Find(key)) {
    const Record& record = *slot->record;
    out->value.assign(record.value(), record.value() + record.value_size);
    out->version = record.version;
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

void KvStore::Put(const std::string& key, Bytes value) {
  ++writes_;
  auto [slot, first_write] = written_.FindOrInsert(key, [&](uint64_t hash) {
    // A record of the load phase is at version 1 until this write.
    return WrittenPolicy::Slot{hash,
                               NewRecord(key, value, IsRecord(key) ? 2 : 1)};
  });
  if (first_write) return;
  Record& record = *slot->record;
  if (record.value_size != value.size()) {
    slot->record = NewRecord(key, value, record.version + 1);
    return;
  }
  if (!value.empty()) {
    std::memcpy(record.value(), value.data(), value.size());
  }
  ++record.version;
}

void KvStore::SetLoadBase(Bytes image, RecordPredicate is_record) {
  image_ = std::move(image);
  is_record_ = std::move(is_record);
}

}  // namespace sbft::storage
