#ifndef SBFT_COMMON_RNG_H_
#define SBFT_COMMON_RNG_H_

#include <cstdint>

namespace sbft {

/// splitmix64's finaliser: a bijection on 64-bit values in which every
/// input bit moves every output bit, the low ones a hash table indexes
/// by included.
constexpr uint64_t Mix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// \brief Deterministic pseudo-random generator (xoshiro256** seeded via
/// SplitMix64).
///
/// Every stochastic component of the simulation (network jitter, workload
/// key choice, byzantine coin flips) draws from an Rng forked from the
/// experiment seed, so a run is exactly reproducible from its seed. Never
/// used for cryptographic material.
class Rng {
 public:
  /// Seeds the generator; equal seeds produce equal streams.
  explicit Rng(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t NextU64();

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t Uniform(uint64_t n);

  /// Uniform integer in [lo, hi]. Requires lo <= hi.
  int64_t Range(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Exponentially distributed value with the given mean (> 0).
  double Exponential(double mean);

  /// Creates an independent child generator; children with different
  /// `stream` ids are statistically independent of each other and of the
  /// parent's future output.
  Rng Fork(uint64_t stream);

 private:
  uint64_t s_[4];
};

}  // namespace sbft

#endif  // SBFT_COMMON_RNG_H_
