#ifndef SBFT_COMMON_CODEC_H_
#define SBFT_COMMON_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/status.h"

namespace sbft {

/// \brief Little-endian binary encoder used for all wire messages.
///
/// The encoding is deliberately simple and deterministic: fixed-width
/// little-endian integers, LEB128 varints, and length-prefixed byte strings.
/// Every message type in shim/message.h serializes through this class so
/// that digests, signatures, and the reported message sizes are stable.
///
/// A count-only encoder (Counter()) owns no buffer: every Put* only
/// advances size(). Wire sizes are counted by running the same EncodeTo /
/// BuildWire that writes the bytes, so each layout is written once.
class Encoder {
 public:
  Encoder() = default;

  /// Constructs around an existing buffer (cleared, capacity kept) — the
  /// hook ScratchEncoder uses to recycle allocations across encodes.
  explicit Encoder(Bytes&& reuse) : buf_(std::move(reuse)) { buf_.clear(); }

  /// A count-only encoder: it writes nothing and allocates nothing.
  static Encoder Counter() {
    Encoder enc;
    enc.counting_ = true;
    return enc;
  }

  /// True for a count-only encoder.
  bool counting() const { return counting_; }

  /// Counts `len` bytes without producing them, for a part whose encoded
  /// size is already known (a batch's memoised size). Count-only
  /// encoders only.
  void Count(size_t len);

  // The Put* bodies sit in the header: a WireSize() call runs one per
  // field, and the count-only branch costs nothing once inlined.

  /// Appends one byte.
  void PutU8(uint8_t v) {
    if (counting_) {
      ++counted_;
    } else {
      buf_.push_back(v);
    }
  }
  /// Appends a 32-bit little-endian integer.
  void PutU32(uint32_t v) { PutLittleEndian(v, 4); }
  /// Appends a 64-bit little-endian integer.
  void PutU64(uint64_t v) { PutLittleEndian(v, 8); }
  /// Appends a 64-bit integer as LEB128 (1-10 bytes).
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      PutU8(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    PutU8(static_cast<uint8_t>(v));
  }
  /// Appends a bool as one byte (0/1).
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  /// Appends varint length followed by the raw bytes.
  void PutBytes(const Bytes& b) {
    PutVarint(b.size());
    PutRaw(b.data(), b.size());
  }
  /// Appends varint length followed by the string's characters.
  void PutString(std::string_view s) {
    PutVarint(s.size());
    PutRaw(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }
  /// Appends `len` raw bytes with no length prefix.
  void PutRaw(const uint8_t* data, size_t len) {
    if (counting_) {
      counted_ += len;
    } else {
      Append(data, len);
    }
  }

  /// Number of bytes encoded (or counted) so far.
  size_t size() const { return counting_ ? counted_ : buf_.size(); }

  /// Read-only view of the buffer (empty on a count-only encoder).
  const Bytes& buffer() const { return buf_; }

  /// Moves the buffer out of the encoder.
  Bytes TakeBuffer() { return std::move(buf_); }

 private:
  /// Appends the low `width` bytes of `v`, least significant first.
  void PutLittleEndian(uint64_t v, size_t width) {
    if (counting_) {
      counted_ += width;
      return;
    }
    uint8_t le[8];
    for (size_t i = 0; i < width; ++i) {
      le[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    Append(le, width);
  }
  /// The writing half of PutRaw, kept out of line.
  void Append(const uint8_t* data, size_t len);

  Bytes buf_;
  bool counting_ = false;
  size_t counted_ = 0;
};

/// Encoded size of `x`, counted through its own EncodeTo.
template <typename T>
size_t EncodedSize(const T& x) {
  Encoder counter = Encoder::Counter();
  x.EncodeTo(&counter);
  return counter.size();
}

/// \brief An Encoder whose buffer is checked out of a thread-local pool.
///
/// The hot paths (content digests) encode into a buffer only to hash it
/// and then throw it away; with a plain Encoder that is one heap
/// allocation per call. A ScratchEncoder returns the buffer — capacity
/// intact — to the pool on destruction, so steady-state encodes are
/// allocation-free. The pool is a small stack, so nested scratch encodes
/// each get their own buffer.
class ScratchEncoder {
 public:
  ScratchEncoder() : enc_(AcquireScratchBuffer()) {}
  ~ScratchEncoder() { ReleaseScratchBuffer(enc_.TakeBuffer()); }

  ScratchEncoder(const ScratchEncoder&) = delete;
  ScratchEncoder& operator=(const ScratchEncoder&) = delete;

  Encoder* operator->() { return &enc_; }
  Encoder& enc() { return enc_; }

 private:
  static Bytes AcquireScratchBuffer();
  static void ReleaseScratchBuffer(Bytes buf);

  Encoder enc_;
};

/// \brief Decoder matching Encoder; every getter validates bounds and
/// returns Status::Corruption on truncated or malformed input.
class Decoder {
 public:
  /// The decoder borrows `data`; the caller keeps it alive while decoding.
  explicit Decoder(const Bytes& data) : data_(data.data()), size_(data.size()) {}

  Status GetU8(uint8_t* out);
  Status GetU32(uint32_t* out);
  Status GetU64(uint64_t* out);
  Status GetVarint(uint64_t* out);
  Status GetBytes(Bytes* out);
  Status GetBytes(SharedBytes* out);
  Status GetString(std::string* out);
  /// Reads a varint element count. Every element takes at least one
  /// byte, so a count above remaining() is Corruption — checked before
  /// the caller sizes anything by it.
  Status GetCount(uint64_t* out);

  /// Bytes not yet consumed.
  size_t remaining() const { return size_ - pos_; }

  /// True when the whole buffer has been consumed.
  bool Done() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace sbft

#endif  // SBFT_COMMON_CODEC_H_
