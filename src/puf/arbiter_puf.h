// Arbiter PUF model (Sec. II.B, Fig. 1).
//
// An arbiter PUF races a signal down two nominally-identical delay paths
// through N switch stages; each challenge bit selects straight or crossed
// routing in one stage, and a latch at the end arbitrates which path won.
// Manufacturing variation makes the per-stage delays unique per device.
//
// We use the standard additive linear delay model: each stage i carries
// four delays (top/bottom x straight/crossed) drawn once per device from a
// Gaussian (process variation). Evaluation accumulates the top-bottom
// delay difference; the response is its sign. Re-measurement adds Gaussian
// thermal noise, so challenges whose delay difference is near zero are the
// (realistically) unstable bits.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "support/rng.h"

namespace eric::puf {

/// Physical parameters of the modeled silicon.
struct PufProcessModel {
  /// Std-dev of per-stage delay mismatch (arbitrary time units).
  double variation_sigma = 1.0;
  /// Std-dev of per-evaluation thermal noise on the final delay difference.
  double noise_sigma = 0.06;
};

/// One arbiter-PUF instance on one device.
///
/// Two instances built from the same `device_seed` and `instance_index`
/// are the same physical circuit (identical delays); different seeds model
/// different devices.
class ArbiterPuf {
 public:
  /// `challenge_bits` is the number of switch stages (paper: 8).
  ArbiterPuf(int challenge_bits, uint64_t device_seed, uint64_t instance_index,
             const PufProcessModel& model = {});

  int challenge_bits() const { return challenge_bits_; }

  /// Noise-free response: the ideal bit for this (device, challenge).
  bool EvaluateIdeal(uint64_t challenge) const;

  /// One physical measurement: ideal delay difference plus thermal noise
  /// drawn from `rng`. Near-threshold challenges may flip between calls.
  bool EvaluateNoisy(uint64_t challenge, Xoshiro256& rng) const;

  /// Majority vote over `votes` noisy measurements (temporal majority
  /// voting, the standard cheap stabilizer). `votes` must be odd. Equals
  /// a majority over `votes` EvaluateNoisy calls, result and RNG draws
  /// alike (see MajorityVote). Votes that run the noise math count in
  /// `puf_noise_draws`.
  bool EvaluateStabilized(uint64_t challenge, Xoshiro256& rng,
                          int votes = 11) const;

  /// Signed top-minus-bottom delay difference for a challenge (model
  /// internals, exposed for the characterization bench).
  double DelayDifference(uint64_t challenge) const;

 private:
  /// Per stage, the top-minus-bottom delay of the straight [0] and the
  /// crossed [1] routing.
  using StageDelays = std::array<double, 2>;

  int challenge_bits_;
  double noise_sigma_;
  std::vector<StageDelays> stages_;
};

/// True when no noise draw can flip a measurement of the delay difference
/// `diff`: its margin exceeds kMaxAbsGaussian noise sigmas. A NaN or
/// infinite sigma fails the comparison, so nothing is beyond its bound.
inline bool BeyondNoiseBound(double diff, double noise_sigma) {
  return std::abs(diff) > std::abs(noise_sigma) * kMaxAbsGaussian;
}

/// Temporal majority over `votes` (odd) noisy measurements of the delay
/// difference `diff`, each one `diff + NextGaussian() * noise_sigma > 0`.
/// Equals the full loop's result and RNG state: beyond the noise bound
/// every vote is decided, and otherwise measuring stops once one side
/// holds votes/2 + 1; the RNG advances past each vote not measured
/// (Xoshiro256::SkipGaussian). Adds the measured votes to `noise_draws`.
bool MajorityVote(double diff, double noise_sigma, int votes,
                  Xoshiro256& rng, uint64_t& noise_draws);

}  // namespace eric::puf
