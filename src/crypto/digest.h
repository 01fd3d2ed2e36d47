#ifndef SBFT_CRYPTO_DIGEST_H_
#define SBFT_CRYPTO_DIGEST_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include "common/bytes.h"

namespace sbft::crypto {

/// \brief 256-bit message digest (output of SHA-256).
///
/// Used as the transaction digest ∆ = H(m) that PBFT carries through its
/// PREPARE/COMMIT phases instead of the full request (paper §IV-B).
class Digest {
 public:
  static constexpr size_t kSize = 32;

  /// All-zero digest.
  Digest() { bytes_.fill(0); }

  const std::array<uint8_t, kSize>& bytes() const { return bytes_; }
  uint8_t* mutable_data() { return bytes_.data(); }
  const uint8_t* data() const { return bytes_.data(); }

  /// Copies the digest into an owned byte buffer.
  Bytes ToBytes() const { return Bytes(bytes_.begin(), bytes_.end()); }

  /// Lower-case hex (64 chars).
  std::string ToHex() const { return HexEncode(bytes_.data(), kSize); }

  /// Short prefix for log lines (8 hex chars).
  std::string ShortHex() const { return ToHex().substr(0, 8); }

  friend bool operator==(const Digest& a, const Digest& b) {
    return a.bytes_ == b.bytes_;
  }
  friend bool operator!=(const Digest& a, const Digest& b) {
    return !(a == b);
  }
  friend bool operator<(const Digest& a, const Digest& b) {
    return a.bytes_ < b.bytes_;
  }

 private:
  std::array<uint8_t, kSize> bytes_;
};

/// Hash functor so Digest can key unordered containers.
struct DigestHash {
  size_t operator()(const Digest& d) const {
    size_t h;
    std::memcpy(&h, d.data(), sizeof(h));
    return h;
  }
};

}  // namespace sbft::crypto

#endif  // SBFT_CRYPTO_DIGEST_H_
