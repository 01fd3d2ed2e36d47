#include "crypto/sha256.h"

#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define SBFT_SHA256_X86_SHANI 1
#include <immintrin.h>
#endif

namespace sbft::crypto {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

inline uint32_t Load32BE(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) << 24 | static_cast<uint32_t>(p[1]) << 16 |
         static_cast<uint32_t>(p[2]) << 8 | static_cast<uint32_t>(p[3]);
}

inline uint32_t SmallSigma0(uint32_t x) {
  return Rotr(x, 7) ^ Rotr(x, 18) ^ (x >> 3);
}
inline uint32_t SmallSigma1(uint32_t x) {
  return Rotr(x, 17) ^ Rotr(x, 19) ^ (x >> 10);
}

// One round with explicit register naming: unrolling 8 of these with the
// registers shifted one position per round removes the per-round variable
// rotation (h=g; g=f; ...) entirely.
#define SBFT_SHA256_ROUND(a, b, c, d, e, f, g, h, ki, wi)               \
  do {                                                                  \
    uint32_t t1 = (h) + (Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25)) +     \
                  (((e) & (f)) ^ (~(e) & (g))) + (ki) + (wi);           \
    uint32_t t2 = (Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22)) +            \
                  (((a) & (b)) ^ ((a) & (c)) ^ ((b) & (c)));            \
    (d) += t1;                                                          \
    (h) = t1 + t2;                                                      \
  } while (0)

#if SBFT_SHA256_X86_SHANI

/// SHA-NI compression: the same FIPS 180-4 function the scalar loop
/// computes, but four rounds per sha256rnds2 with the message schedule in
/// xmm registers. Digest output is bit-identical to the scalar path, so
/// every pinned golden digest is unaffected by which path runs.
__attribute__((target("sha,ssse3,sse4.1"))) void ProcessBlocksShaNi(
    uint32_t state[8], const uint8_t* data, size_t nblocks) {
  const __m128i kShuffle =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  // Pack {a,b,c,d} / {e,f,g,h} into the ABEF / CDGH register layout the
  // sha256rnds2 instruction expects.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i st1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);
  st1 = _mm_shuffle_epi32(st1, 0x1B);
  __m128i st0 = _mm_alignr_epi8(tmp, st1, 8);
  st1 = _mm_blend_epi16(st1, tmp, 0xF0);

  for (size_t blk = 0; blk < nblocks; ++blk, data += 64) {
    const __m128i save0 = st0;
    const __m128i save1 = st1;
    __m128i msg, m0, m1, m2, m3;

    // Rounds 0-3.
    msg = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 0));
    m0 = _mm_shuffle_epi8(msg, kShuffle);
    msg = _mm_add_epi32(
        m0, _mm_set_epi64x(0xE9B5DBA5B5C0FBCFULL, 0x71374491428A2F98ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);

    // Rounds 4-7.
    m1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16));
    m1 = _mm_shuffle_epi8(m1, kShuffle);
    msg = _mm_add_epi32(
        m1, _mm_set_epi64x(0xAB1C5ED5923F82A4ULL, 0x59F111F13956C25BULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    m0 = _mm_sha256msg1_epu32(m0, m1);

    // Rounds 8-11.
    m2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32));
    m2 = _mm_shuffle_epi8(m2, kShuffle);
    msg = _mm_add_epi32(
        m2, _mm_set_epi64x(0x550C7DC3243185BEULL, 0x12835B01D807AA98ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    m1 = _mm_sha256msg1_epu32(m1, m2);

    // Rounds 12-15.
    m3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48));
    m3 = _mm_shuffle_epi8(m3, kShuffle);
    msg = _mm_add_epi32(
        m3, _mm_set_epi64x(0xC19BF1749BDC06A7ULL, 0x80DEB1FE72BE5D74ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(m3, m2, 4);
    m0 = _mm_add_epi32(m0, tmp);
    m0 = _mm_sha256msg2_epu32(m0, m3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    m2 = _mm_sha256msg1_epu32(m2, m3);

    // Rounds 16-19.
    msg = _mm_add_epi32(
        m0, _mm_set_epi64x(0x240CA1CC0FC19DC6ULL, 0xEFBE4786E49B69C1ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(m0, m3, 4);
    m1 = _mm_add_epi32(m1, tmp);
    m1 = _mm_sha256msg2_epu32(m1, m0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    m3 = _mm_sha256msg1_epu32(m3, m0);

    // Rounds 20-23.
    msg = _mm_add_epi32(
        m1, _mm_set_epi64x(0x76F988DA5CB0A9DCULL, 0x4A7484AA2DE92C6FULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(m1, m0, 4);
    m2 = _mm_add_epi32(m2, tmp);
    m2 = _mm_sha256msg2_epu32(m2, m1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    m0 = _mm_sha256msg1_epu32(m0, m1);

    // Rounds 24-27.
    msg = _mm_add_epi32(
        m2, _mm_set_epi64x(0xBF597FC7B00327C8ULL, 0xA831C66D983E5152ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(m2, m1, 4);
    m3 = _mm_add_epi32(m3, tmp);
    m3 = _mm_sha256msg2_epu32(m3, m2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    m1 = _mm_sha256msg1_epu32(m1, m2);

    // Rounds 28-31.
    msg = _mm_add_epi32(
        m3, _mm_set_epi64x(0x1429296706CA6351ULL, 0xD5A79147C6E00BF3ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(m3, m2, 4);
    m0 = _mm_add_epi32(m0, tmp);
    m0 = _mm_sha256msg2_epu32(m0, m3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    m2 = _mm_sha256msg1_epu32(m2, m3);

    // Rounds 32-35.
    msg = _mm_add_epi32(
        m0, _mm_set_epi64x(0x53380D134D2C6DFCULL, 0x2E1B213827B70A85ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(m0, m3, 4);
    m1 = _mm_add_epi32(m1, tmp);
    m1 = _mm_sha256msg2_epu32(m1, m0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    m3 = _mm_sha256msg1_epu32(m3, m0);

    // Rounds 36-39.
    msg = _mm_add_epi32(
        m1, _mm_set_epi64x(0x92722C8581C2C92EULL, 0x766A0ABB650A7354ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(m1, m0, 4);
    m2 = _mm_add_epi32(m2, tmp);
    m2 = _mm_sha256msg2_epu32(m2, m1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    m0 = _mm_sha256msg1_epu32(m0, m1);

    // Rounds 40-43.
    msg = _mm_add_epi32(
        m2, _mm_set_epi64x(0xC76C51A3C24B8B70ULL, 0xA81A664BA2BFE8A1ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(m2, m1, 4);
    m3 = _mm_add_epi32(m3, tmp);
    m3 = _mm_sha256msg2_epu32(m3, m2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    m1 = _mm_sha256msg1_epu32(m1, m2);

    // Rounds 44-47.
    msg = _mm_add_epi32(
        m3, _mm_set_epi64x(0x106AA070F40E3585ULL, 0xD6990624D192E819ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(m3, m2, 4);
    m0 = _mm_add_epi32(m0, tmp);
    m0 = _mm_sha256msg2_epu32(m0, m3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    m2 = _mm_sha256msg1_epu32(m2, m3);

    // Rounds 48-51.
    msg = _mm_add_epi32(
        m0, _mm_set_epi64x(0x34B0BCB52748774CULL, 0x1E376C0819A4C116ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(m0, m3, 4);
    m1 = _mm_add_epi32(m1, tmp);
    m1 = _mm_sha256msg2_epu32(m1, m0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    m3 = _mm_sha256msg1_epu32(m3, m0);

    // Rounds 52-55.
    msg = _mm_add_epi32(
        m1, _mm_set_epi64x(0x682E6FF35B9CCA4FULL, 0x4ED8AA4A391C0CB3ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(m1, m0, 4);
    m2 = _mm_add_epi32(m2, tmp);
    m2 = _mm_sha256msg2_epu32(m2, m1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);

    // Rounds 56-59.
    msg = _mm_add_epi32(
        m2, _mm_set_epi64x(0x8CC7020884C87814ULL, 0x78A5636F748F82EEULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(m2, m1, 4);
    m3 = _mm_add_epi32(m3, tmp);
    m3 = _mm_sha256msg2_epu32(m3, m2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);

    // Rounds 60-63.
    msg = _mm_add_epi32(
        m3, _mm_set_epi64x(0xC67178F2BEF9A3F7ULL, 0xA4506CEB90BEFFFAULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);

    st0 = _mm_add_epi32(st0, save0);
    st1 = _mm_add_epi32(st1, save1);
  }

  // Unpack ABEF/CDGH back to {a..d} / {e..h}.
  tmp = _mm_shuffle_epi32(st0, 0x1B);
  st1 = _mm_shuffle_epi32(st1, 0xB1);
  st0 = _mm_blend_epi16(tmp, st1, 0xF0);
  st1 = _mm_alignr_epi8(st1, tmp, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), st0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), st1);
}

bool HasShaNi() {
  static const bool supported = __builtin_cpu_supports("sha") &&
                                __builtin_cpu_supports("sse4.1") &&
                                __builtin_cpu_supports("ssse3");
  return supported;
}

#endif  // SBFT_SHA256_X86_SHANI

}  // namespace

Sha256::Sha256() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
}

void Sha256::ProcessBlocks(const uint8_t* data, size_t nblocks) {
#if SBFT_SHA256_X86_SHANI
  if (HasShaNi()) {
    ProcessBlocksShaNi(state_, data, nblocks);
    return;
  }
#endif
  // Working variables stay in registers across the whole run of blocks —
  // for bulk input (streaming hashes, multi-block HMAC payloads) the state
  // array is loaded and stored once per call instead of once per block.
  uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];

  for (size_t blk = 0; blk < nblocks; ++blk, data += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = Load32BE(data + 4 * i);
    }
    for (int i = 16; i < 64; i += 4) {
      w[i] = w[i - 16] + SmallSigma0(w[i - 15]) + w[i - 7] +
             SmallSigma1(w[i - 2]);
      w[i + 1] = w[i - 15] + SmallSigma0(w[i - 14]) + w[i - 6] +
                 SmallSigma1(w[i - 1]);
      w[i + 2] = w[i - 14] + SmallSigma0(w[i - 13]) + w[i - 5] +
                 SmallSigma1(w[i]);
      w[i + 3] = w[i - 13] + SmallSigma0(w[i - 12]) + w[i - 4] +
                 SmallSigma1(w[i + 1]);
    }

    const uint32_t sa = a, sb = b, sc = c, sd = d;
    const uint32_t se = e, sf = f, sg = g, sh = h;

    for (int i = 0; i < 64; i += 8) {
      SBFT_SHA256_ROUND(a, b, c, d, e, f, g, h, kK[i + 0], w[i + 0]);
      SBFT_SHA256_ROUND(h, a, b, c, d, e, f, g, kK[i + 1], w[i + 1]);
      SBFT_SHA256_ROUND(g, h, a, b, c, d, e, f, kK[i + 2], w[i + 2]);
      SBFT_SHA256_ROUND(f, g, h, a, b, c, d, e, kK[i + 3], w[i + 3]);
      SBFT_SHA256_ROUND(e, f, g, h, a, b, c, d, kK[i + 4], w[i + 4]);
      SBFT_SHA256_ROUND(d, e, f, g, h, a, b, c, kK[i + 5], w[i + 5]);
      SBFT_SHA256_ROUND(c, d, e, f, g, h, a, b, kK[i + 6], w[i + 6]);
      SBFT_SHA256_ROUND(b, c, d, e, f, g, h, a, kK[i + 7], w[i + 7]);
    }

    a += sa;
    b += sb;
    c += sc;
    d += sd;
    e += se;
    f += sf;
    g += sg;
    h += sh;
  }

  state_[0] = a;
  state_[1] = b;
  state_[2] = c;
  state_[3] = d;
  state_[4] = e;
  state_[5] = f;
  state_[6] = g;
  state_[7] = h;
}

#undef SBFT_SHA256_ROUND

void Sha256::Update(const uint8_t* data, size_t len) {
  // An empty input may come with a null `data`, which memcpy must not get.
  if (len == 0) return;
  length_ += len;
  if (buffered_ > 0) {
    size_t take = std::min(len, sizeof(buffer_) - buffered_);
    std::memcpy(buffer_ + buffered_, data, take);
    buffered_ += take;
    data += take;
    len -= take;
    if (buffered_ == sizeof(buffer_)) {
      ProcessBlocks(buffer_, 1);
      buffered_ = 0;
    }
  }
  if (len >= 64) {
    size_t nblocks = len / 64;
    ProcessBlocks(data, nblocks);
    data += nblocks * 64;
    len -= nblocks * 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, data, len);
    buffered_ = len;
  }
}

Digest Sha256::Finish() {
  uint64_t bit_length = length_ * 8;
  // Padding: 0x80, zeros, 64-bit big-endian bit length — written straight
  // into the block buffer rather than drip-fed through Update.
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_ + buffered_, 0, sizeof(buffer_) - buffered_);
    ProcessBlocks(buffer_, 1);
    buffered_ = 0;
  }
  std::memset(buffer_ + buffered_, 0, 56 - buffered_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_length >> (56 - 8 * i));
  }
  ProcessBlocks(buffer_, 1);

  Digest d;
  for (int i = 0; i < 8; ++i) {
    d.mutable_data()[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    d.mutable_data()[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    d.mutable_data()[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    d.mutable_data()[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return d;
}

Digest Sha256::Hash(const Bytes& data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

Digest Sha256::Hash(std::string_view s) {
  Sha256 h;
  h.Update(s);
  return h.Finish();
}

Digest Sha256::Hash(const uint8_t* data, size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Finish();
}

}  // namespace sbft::crypto
