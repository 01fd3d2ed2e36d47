#ifndef SBFT_CRYPTO_HMAC_H_
#define SBFT_CRYPTO_HMAC_H_

#include "common/bytes.h"
#include "crypto/digest.h"

namespace sbft::crypto {

/// Computes HMAC-SHA256(key, message) per RFC 2104.
///
/// The paper's shim authenticates PREPREPARE/PREPARE with MACs (§III);
/// here the cost model charges those, and HMAC is the kFast signature
/// stand-in (see keys.h).
Digest HmacSha256(const Bytes& key, const Bytes& message);

/// Variant taking a raw message range.
Digest HmacSha256(const Bytes& key, const uint8_t* message, size_t len);

}  // namespace sbft::crypto

#endif  // SBFT_CRYPTO_HMAC_H_
