#include "common/codec.h"

#include <cassert>
#include <vector>

namespace sbft {

namespace {

/// Per-thread stack of recycled scratch buffers. Capped so a single
/// outsized encode (a checkpoint with thousands of batches) does not pin
/// megabytes of capacity forever.
constexpr size_t kMaxScratchBuffers = 8;
constexpr size_t kMaxRetainedCapacity = 1 << 20;

thread_local std::vector<Bytes> scratch_pool;

}  // namespace

Bytes ScratchEncoder::AcquireScratchBuffer() {
  if (scratch_pool.empty()) return Bytes();
  Bytes buf = std::move(scratch_pool.back());
  scratch_pool.pop_back();
  buf.clear();
  return buf;
}

void ScratchEncoder::ReleaseScratchBuffer(Bytes buf) {
  if (scratch_pool.size() >= kMaxScratchBuffers ||
      buf.capacity() > kMaxRetainedCapacity) {
    return;
  }
  scratch_pool.push_back(std::move(buf));
}

void Encoder::Count(size_t len) {
  assert(counting_ && "Count on a writing encoder");
  counted_ += len;
}

void Encoder::Append(const uint8_t* data, size_t len) {
  buf_.insert(buf_.end(), data, data + len);
}

Status Decoder::GetU8(uint8_t* out) {
  if (remaining() < 1) return Status::Corruption("truncated u8");
  *out = data_[pos_++];
  return Status::Ok();
}

Status Decoder::GetU32(uint32_t* out) {
  if (remaining() < 4) return Status::Corruption("truncated u32");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  *out = v;
  return Status::Ok();
}

Status Decoder::GetU64(uint64_t* out) {
  if (remaining() < 8) return Status::Corruption("truncated u64");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  *out = v;
  return Status::Ok();
}

Status Decoder::GetVarint(uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (remaining() < 1) return Status::Corruption("truncated varint");
    uint8_t byte = data_[pos_++];
    // The tenth byte holds bit 63 alone, and a last byte of 0 after the
    // first is overlong: each value has exactly one encoding.
    if (shift == 63 && byte > 1) return Status::Corruption("varint overflow");
    if (byte == 0 && shift > 0) return Status::Corruption("overlong varint");
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  *out = v;
  return Status::Ok();
}

Status Decoder::GetBytes(Bytes* out) {
  uint64_t len;
  Status s = GetVarint(&len);
  if (!s.ok()) return s;
  if (len > remaining()) return Status::Corruption("truncated bytes");
  out->assign(data_ + pos_, data_ + pos_ + len);
  pos_ += len;
  return Status::Ok();
}

Status Decoder::GetBytes(SharedBytes* out) {
  Bytes bytes;
  Status s = GetBytes(&bytes);
  if (s.ok()) *out = std::move(bytes);
  return s;
}

Status Decoder::GetString(std::string* out) {
  uint64_t len;
  Status s = GetVarint(&len);
  if (!s.ok()) return s;
  if (len > remaining()) return Status::Corruption("truncated string");
  out->assign(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return Status::Ok();
}

Status Decoder::GetCount(uint64_t* out) {
  Status s = GetVarint(out);
  if (!s.ok()) return s;
  if (*out > remaining()) return Status::Corruption("count exceeds buffer");
  return Status::Ok();
}

}  // namespace sbft
