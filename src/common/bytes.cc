#include "common/bytes.h"

namespace sbft {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int HexDigitValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

const Bytes& SharedBytes::Empty() {
  static const Bytes kEmpty;
  return kEmpty;
}

Bytes ToBytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string BytesToString(const Bytes& b) {
  return std::string(b.begin(), b.end());
}

std::string HexEncode(const uint8_t* data, size_t len) {
  std::string out;
  out.reserve(len * 2);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kHexDigits[data[i] >> 4]);
    out.push_back(kHexDigits[data[i] & 0x0f]);
  }
  return out;
}

std::string HexEncode(const Bytes& b) { return HexEncode(b.data(), b.size()); }

bool HexDecode(std::string_view hex, Bytes* out) {
  if (hex.size() % 2 != 0) return false;
  out->clear();
  out->reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = HexDigitValue(hex[i]);
    int lo = HexDigitValue(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return true;
}

bool ConstantTimeEquals(const Bytes& a, const Bytes& b) {
  if (a.size() != b.size()) return false;
  uint8_t acc = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    acc |= static_cast<uint8_t>(a[i] ^ b[i]);
  }
  return acc == 0;
}

void AppendBytes(Bytes* dst, const Bytes& src) {
  dst->insert(dst->end(), src.begin(), src.end());
}

uint64_t Fnv1a64(const uint8_t* data, size_t len) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t Fnv1a64(const Bytes& b) { return Fnv1a64(b.data(), b.size()); }

}  // namespace sbft
