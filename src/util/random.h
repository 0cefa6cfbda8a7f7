// Deterministic, fast pseudo-random generator for workload synthesis.
// xoshiro256** — small state, excellent statistical quality, reproducible
// across platforms (the workload generators must produce identical data for
// identical seeds so experiments are repeatable).

#ifndef MODELARDB_UTIL_RANDOM_H_
#define MODELARDB_UTIL_RANDOM_H_

#include <cstdint>

namespace modelardb {

class Random {
 public:
  explicit Random(uint64_t seed = 0x9e3779b97f4a7c15ull) {
    // SplitMix64 seeding so nearby seeds yield uncorrelated streams.
    uint64_t z = seed;
    for (int i = 0; i < 4; ++i) {
      z += 0x9e3779b97f4a7c15ull;
      uint64_t x = z;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
      state_[i] = x ^ (x >> 31);
    }
  }

  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  // Uniform in [lo, hi).
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  // Uniform integer in [0, n).
  uint64_t NextBelow(uint64_t n) { return n == 0 ? 0 : NextU64() % n; }

  // True with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

}  // namespace modelardb

#endif  // MODELARDB_UTIL_RANDOM_H_
