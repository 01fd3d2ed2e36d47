#include "storage/rw_set.h"

namespace sbft::storage {

void RwSet::EncodeTo(Encoder* enc) const {
  enc->PutVarint(reads.size());
  for (const ReadEntry& r : reads) {
    enc->PutString(r.key);
    enc->PutU64(r.version);
  }
  enc->PutVarint(writes.size());
  for (const WriteEntry& w : writes) {
    enc->PutString(w.key);
    enc->PutBytes(w.value);
  }
}

Status RwSet::DecodeFrom(Decoder* dec, RwSet* out) {
  uint64_t n;
  Status st = dec->GetCount(&n);
  if (!st.ok()) return st;
  out->reads.clear();
  out->reads.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    ReadEntry r;
    st = dec->GetString(&r.key);
    if (!st.ok()) return st;
    st = dec->GetU64(&r.version);
    if (!st.ok()) return st;
    out->reads.push_back(std::move(r));
  }
  st = dec->GetCount(&n);
  if (!st.ok()) return st;
  out->writes.clear();
  out->writes.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    WriteEntry w;
    st = dec->GetString(&w.key);
    if (!st.ok()) return st;
    st = dec->GetBytes(&w.value);
    if (!st.ok()) return st;
    out->writes.push_back(std::move(w));
  }
  return Status::Ok();
}

bool RwSet::ReadsCurrent(const KvStore& store) const {
  for (const ReadEntry& r : reads) {
    if (store.VersionOf(r.key) != r.version) return false;
  }
  return true;
}

void RwSet::ApplyWrites(KvStore* store) const {
  for (const WriteEntry& w : writes) {
    store->Put(w.key, w.value);
  }
}

}  // namespace sbft::storage
