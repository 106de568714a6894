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
  /// alike; it skips the noise math when the noise cannot flip a vote.
  bool EvaluateStabilized(uint64_t challenge, Xoshiro256& rng,
                          int votes = 11) const;

  /// Signed top-minus-bottom delay difference for a challenge (model
  /// internals, exposed for the characterization bench).
  double DelayDifference(uint64_t challenge) const;

 private:
  struct StageDelays {
    double top_straight;
    double bottom_straight;
    double top_crossed;
    double bottom_crossed;
  };

  int challenge_bits_;
  double noise_sigma_;
  std::vector<StageDelays> stages_;
};

}  // namespace eric::puf
