#include "crypto/hmac.h"

#include <cstring>

#include "crypto/sha256.h"

namespace sbft::crypto {

Digest HmacSha256(const Bytes& key, const uint8_t* message, size_t len) {
  constexpr size_t kBlock = 64;
  // Key normalization and pads live on the stack: HMAC runs once per
  // kFast signature and verification, so the three Bytes allocations the
  // naive version made per call were pure overhead.
  uint8_t k[kBlock];
  if (key.size() > kBlock) {
    Digest kd = Sha256::Hash(key);
    std::memcpy(k, kd.data(), Digest::kSize);
    std::memset(k + Digest::kSize, 0, kBlock - Digest::kSize);
  } else {
    if (!key.empty()) std::memcpy(k, key.data(), key.size());
    std::memset(k + key.size(), 0, kBlock - key.size());
  }

  uint8_t pad[kBlock];
  for (size_t i = 0; i < kBlock; ++i) pad[i] = k[i] ^ 0x36;
  Sha256 inner;
  inner.Update(pad, kBlock);
  inner.Update(message, len);
  Digest inner_digest = inner.Finish();

  for (size_t i = 0; i < kBlock; ++i) pad[i] = k[i] ^ 0x5c;
  Sha256 outer;
  outer.Update(pad, kBlock);
  outer.Update(inner_digest.data(), Digest::kSize);
  return outer.Finish();
}

Digest HmacSha256(const Bytes& key, const Bytes& message) {
  return HmacSha256(key, message.data(), message.size());
}

}  // namespace sbft::crypto
