#ifndef SBFT_COMMON_BYTES_H_
#define SBFT_COMMON_BYTES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace sbft {

/// Owned byte buffer used for message payloads, keys, and crypto material.
using Bytes = std::vector<uint8_t>;

/// \brief An immutable byte buffer shared by reference count: a written
/// value.
///
/// A value is made once (a generator's write payload, a load image) and
/// then travels: into transactions, batches, write sets, read replies and
/// the store's records. Copying a SharedBytes shares its buffer, so every
/// one of those holds the same bytes instead of its own copy. Equality
/// compares bytes, not buffers, and it converts to the `const Bytes&` it
/// wraps, so it encodes and hashes exactly like that Bytes. The count is
/// atomic: the parallel engine's loops copy and drop values concurrently.
class SharedBytes {
 public:
  /// Empty; holds no buffer.
  SharedBytes() = default;
  /// Moves `bytes` into a new shared buffer (none when it is empty).
  SharedBytes(Bytes bytes)  // NOLINT(google-explicit-constructor)
      : buf_(bytes.empty() ? nullptr
                           : std::make_shared<const Bytes>(std::move(bytes))) {}

  operator const Bytes&() const { return bytes(); }  // NOLINT

  /// The shared buffer's first byte; equal for every copy.
  const uint8_t* data() const { return bytes().data(); }
  bool empty() const { return buf_ == nullptr; }

  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return a.buf_ == b.buf_ || a.bytes() == b.bytes();
  }

 private:
  const Bytes& bytes() const { return buf_ ? *buf_ : Empty(); }
  static const Bytes& Empty();

  std::shared_ptr<const Bytes> buf_;
};

/// Builds a byte buffer from a string's characters.
Bytes ToBytes(std::string_view s);

/// Interprets a byte buffer as text (lossy for non-ASCII content).
std::string BytesToString(const Bytes& b);

/// Lower-case hex encoding ("deadbeef").
std::string HexEncode(const uint8_t* data, size_t len);
std::string HexEncode(const Bytes& b);

/// Decodes lower/upper-case hex; returns false on odd length or bad digit.
bool HexDecode(std::string_view hex, Bytes* out);

/// Constant-time equality for secret material (MAC tags, keys).
bool ConstantTimeEquals(const Bytes& a, const Bytes& b);

/// Appends `src` to `dst`.
void AppendBytes(Bytes* dst, const Bytes& src);

/// 64-bit FNV-1a over a byte range; used for non-cryptographic hashing
/// (container keys, dedup) — never for authentication.
uint64_t Fnv1a64(const uint8_t* data, size_t len);
uint64_t Fnv1a64(const Bytes& b);

}  // namespace sbft

#endif  // SBFT_COMMON_BYTES_H_
