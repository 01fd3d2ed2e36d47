#ifndef SBFT_CRYPTO_SHA256_H_
#define SBFT_CRYPTO_SHA256_H_

#include <cstdint>
#include <string_view>

#include "common/bytes.h"
#include "crypto/digest.h"

namespace sbft::crypto {

/// \brief Incremental SHA-256 (FIPS 180-4).
///
/// The collision-resistant hash H(·) assumed by the paper (§III); used for
/// transaction digests, compact-certificate tags, audit-log chains, Merkle
/// trees, and HMAC.
class Sha256 {
 public:
  Sha256();

  /// Absorbs `len` bytes.
  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  void Update(std::string_view s) {
    Update(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  /// Finishes the hash. The object must not be reused afterwards.
  Digest Finish();

  /// One-shot convenience.
  static Digest Hash(const Bytes& data);
  static Digest Hash(std::string_view s);
  static Digest Hash(const uint8_t* data, size_t len);

 private:
  /// Compresses `nblocks` consecutive 64-byte blocks, keeping the working
  /// state in registers across the whole run (the bulk-input fast path).
  void ProcessBlocks(const uint8_t* data, size_t nblocks);

  uint32_t state_[8];
  uint64_t length_ = 0;  // Total message length in bytes.
  uint8_t buffer_[64];
  size_t buffered_ = 0;
};

}  // namespace sbft::crypto

#endif  // SBFT_CRYPTO_SHA256_H_
