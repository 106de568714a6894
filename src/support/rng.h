// Deterministic pseudo-random number generation.
//
// All randomness in the library (PUF process variation, noise, partial
// encryption selection, channel fault injection, workload data) flows
// through these generators so every test and bench is reproducible from a
// seed.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace eric {

/// SplitMix64: used to expand a single 64-bit seed into independent streams
/// (notably to seed Xoshiro256** non-degenerately).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(uint64_t seed) : state_(seed) {}

  constexpr uint64_t Next() {
    state_ += 0x9E3779B97F4A7C15ull;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// Xoshiro256**: fast, high-quality general-purpose PRNG.
/// Satisfies UniformRandomBitGenerator so it composes with <random>
/// distributions.
class Xoshiro256 {
 public:
  using result_type = uint64_t;

  explicit Xoshiro256(uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.Next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }

  uint64_t operator()() { return Next(); }

  uint64_t Next() {
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

  /// Uniform integer in [0, bound). bound must be > 0.
  uint64_t NextBounded(uint64_t bound) {
    // Lemire's nearly-divisionless method would be overkill; simple
    // rejection keeps the distribution exact.
    const uint64_t threshold = -bound % bound;
    for (;;) {
      const uint64_t r = Next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Standard-normal variate (Box–Muller, one value per call).
  double NextGaussian();

  /// Advances the state exactly as NextGaussian() would, without the
  /// transcendental math: for callers that know the variate cannot
  /// matter (see kMaxAbsGaussian).
  void SkipGaussian() { NextBoxMullerUniforms(); }

  bool NextBool() { return (Next() >> 63) != 0; }

 private:
  static constexpr uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  struct BoxMullerUniforms {
    double u1;  ///< in (0, 1): the radius draw, redrawn while zero
    double u2;  ///< in [0, 1): the angle draw
  };
  /// The uniform draws behind one NextGaussian(), in its order.
  BoxMullerUniforms NextBoxMullerUniforms();

  uint64_t state_[4];
};

/// Upper bound on |NextGaussian()|. NextDouble() returns k * 2^-53 and
/// u1 is redrawn while zero, so u1 >= 2^-53 and
/// |g| = sqrt(-2 ln u1) * |cos(.)| <= sqrt(106 ln 2) ~= 8.5717. The 0.3%
/// margin covers libm and rounding error. A measurement whose noise-free
/// margin exceeds this many noise sigmas cannot be flipped by the noise.
inline constexpr double kMaxAbsGaussian = 8.6;

inline Xoshiro256::BoxMullerUniforms Xoshiro256::NextBoxMullerUniforms() {
  double u1 = NextDouble();
  const double u2 = NextDouble();
  while (u1 <= 0.0) u1 = NextDouble();
  return {u1, u2};
}

inline double Xoshiro256::NextGaussian() {
  // Box–Muller on two fresh uniforms; discards the second variate for
  // statelessness (PUF models draw millions of these; simplicity wins).
  const auto [u1, u2] = NextBoxMullerUniforms();
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
}

}  // namespace eric
