#include "common/rng.h"

#include <cmath>

namespace sbft {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  return Mix64(*state += 0x9e3779b97f4a7c15ull);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(&sm);
  }
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::Uniform(uint64_t n) {
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -n % n;
  while (true) {
    uint64_t r = NextU64();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::Range(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(
                  Uniform(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::Exponential(double mean) {
  double u;
  do {
    u = NextDouble();
  } while (u == 0.0);
  return -mean * std::log(u);
}

Rng Rng::Fork(uint64_t stream) {
  // Derive a child seed from our state plus the stream id; golden-ratio
  // mixing keeps nearby stream ids decorrelated.
  uint64_t seed = NextU64() ^ (stream * 0x9e3779b97f4a7c15ull + 0x1234567);
  return Rng(seed);
}

}  // namespace sbft
