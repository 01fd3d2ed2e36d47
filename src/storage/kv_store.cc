#include "storage/kv_store.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>

namespace sbft::storage {

static_assert(KvStore::kArenaBlockBytes % 8 == 0);
static_assert(KvStore::ArenaRecordBytes(sizeof "user599999" - 1) == 40);

namespace {

[[noreturn]] void Die(const char* what) {
  std::fprintf(stderr, "KvStore: %s\n", what);
  std::abort();
}

}  // namespace

KvStore::Arena::~Arena() {
  for (Block& block : blocks_) {
    for (size_t at = 0; at < block.used;) {
      auto* record = std::launder(reinterpret_cast<Record*>(&block.bytes[at]));
      uint32_t key_size = 0;
      std::memcpy(&key_size, &block.bytes[at + sizeof(Record)],
                  sizeof key_size);
      record->~Record();
      at += ArenaRecordBytes(key_size);
    }
  }
}

uint32_t KvStore::Arena::Append(std::string_view key, SharedBytes value,
                                uint64_t version) {
  static_assert(alignof(Record) <= 8 && sizeof(Record) % 8 == 0);
  if (key.size() > std::numeric_limits<uint32_t>::max()) {
    Die("a key is over 4 GiB");
  }
  const size_t bytes = ArenaRecordBytes(key.size());
  if (blocks_.empty() || blocks_.back().used + bytes > kArenaBlockBytes) {
    // A reference is a word's index plus one, so the new block's last
    // word would be referred to as (blocks + 1) * kBlockWords.
    if ((blocks_.size() + 1) * kBlockWords >
        std::numeric_limits<uint32_t>::max()) {
      Die("the written keys' records are over 2^32 words");
    }
    blocks_.push_back({std::make_unique_for_overwrite<std::byte[]>(
        std::max(bytes, kArenaBlockBytes))});
  }
  Block& block = blocks_.back();
  std::byte* at = &block.bytes[block.used];
  new (at) Record{std::move(value), version};
  const auto key_size = static_cast<uint32_t>(key.size());
  std::memcpy(at + sizeof(Record), &key_size, sizeof key_size);
  std::memcpy(at + sizeof(Record) + sizeof key_size, key.data(), key.size());
  const auto ref = static_cast<uint32_t>(
      (blocks_.size() - 1) * kBlockWords + block.used / 8 + 1);
  block.used += bytes;
  return ref;
}

const KvStore::Record& KvStore::Arena::At(uint32_t ref) const {
  return *std::launder(reinterpret_cast<const Record*>(Address(ref)));
}

std::string_view KvStore::Arena::KeyOf(uint32_t ref) const {
  const std::byte* at = Address(ref) + sizeof(Record);
  uint32_t key_size = 0;
  std::memcpy(&key_size, at, sizeof key_size);
  return {reinterpret_cast<const char*>(at + sizeof key_size), key_size};
}

// Inline: as a call, it cost `bench_simcore`'s kv_get (lookups that miss
// an empty table) about a tenth of its rate.
inline const KvStore::Record* KvStore::Written(std::string_view key) const {
  const auto* slot = written_.Find({key, &arena_});
  return slot == nullptr ? nullptr : &arena_.At(slot->ref);
}

Status KvStore::Get(const std::string& key, VersionedValue* out) const {
  ++reads_;
  if (const Record* record = Written(key)) {
    out->value = record->value;
    out->version = record->version;
  } else if (IsRecord(key)) {
    out->value = image_;
    out->version = 1;
  } else {
    return Status::NotFound(key);
  }
  return Status::Ok();
}

uint64_t KvStore::VersionOf(const std::string& key) const {
  if (const Record* record = Written(key)) return record->version;
  return IsRecord(key) ? 1 : 0;
}

bool KvStore::Contains(const std::string& key) const {
  return Written(key) != nullptr || IsRecord(key);
}

void KvStore::Put(const std::string& key, SharedBytes value) {
  ++writes_;
  auto [slot, first_write] =
      written_.FindOrInsert({key, &arena_}, [&](uint64_t hash) {
        // A record of the load phase is at version 1 until this write.
        return WrittenPolicy::Slot{
            static_cast<uint32_t>(hash),
            arena_.Append(key, std::move(value), IsRecord(key) ? 2 : 1)};
      });
  if (first_write) return;
  Record& record = arena_.At(slot->ref);
  record.value = std::move(value);
  ++record.version;
}

void KvStore::SetLoadBase(SharedBytes image, RecordPredicate is_record) {
  image_ = std::move(image);
  is_record_ = std::move(is_record);
}

}  // namespace sbft::storage
