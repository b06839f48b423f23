// Deterministic pseudo-random number generation.
//
// All randomness in the library flows through Rng so that every experiment is
// reproducible from a single 64-bit seed. The generator is xoshiro256++,
// seeded through SplitMix64 (the recommended seeding procedure), implemented
// from the public-domain reference algorithms.
#pragma once

#include <array>
#include <cstdint>

#include "common/contract.h"

namespace udwn {

/// xoshiro256++ generator. Not a cryptographic RNG; statistical quality is
/// more than sufficient for protocol simulation.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Next raw 64-bit output. Defined here, like uniform() and chance():
  /// the engine draws once per node per slot, and the build has no LTO.
  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// UniformRandomBitGenerator interface (usable with <random> adaptors).
  std::uint64_t operator()() { return next(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ull; }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 high bits -> double in [0,1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire rejection-free
  /// multiply-shift (bias below 2^-64, irrelevant here).
  std::uint64_t below(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p) {
    if (p <= 0) return false;
    if (p >= 1) return true;
    return uniform() < p;
  }

  /// Spawn an independent child generator. Used to give each node / each
  /// repetition its own stream so that runs are reproducible regardless of
  /// iteration order.
  Rng split();

 private:
  static constexpr std::uint64_t rotl(std::uint64_t v, int k) {
    return (v << k) | (v >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace udwn
