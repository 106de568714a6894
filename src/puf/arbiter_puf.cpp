#include "puf/arbiter_puf.h"

#include <cassert>
#include <cmath>

namespace eric::puf {

ArbiterPuf::ArbiterPuf(int challenge_bits, uint64_t device_seed,
                       uint64_t instance_index, const PufProcessModel& model)
    : challenge_bits_(challenge_bits), noise_sigma_(model.noise_sigma) {
  assert(challenge_bits > 0 && challenge_bits <= 64);
  // Mix device and instance so each PUF instance on a device has
  // independent (but reproducible) silicon.
  SplitMix64 mixer(device_seed);
  uint64_t seed = mixer.Next() ^ (instance_index * 0x9E3779B97F4A7C15ull);
  Xoshiro256 rng(seed);
  stages_.reserve(static_cast<size_t>(challenge_bits));
  for (int i = 0; i < challenge_bits; ++i) {
    stages_.push_back(StageDelays{
        .top_straight = rng.NextGaussian() * model.variation_sigma,
        .bottom_straight = rng.NextGaussian() * model.variation_sigma,
        .top_crossed = rng.NextGaussian() * model.variation_sigma,
        .bottom_crossed = rng.NextGaussian() * model.variation_sigma,
    });
  }
}

double ArbiterPuf::DelayDifference(uint64_t challenge) const {
  // Track (top path delay - bottom path delay). A crossed stage swaps the
  // racing signals, so the accumulated difference negates before adding
  // that stage's contribution.
  double diff = 0.0;
  for (int i = 0; i < challenge_bits_; ++i) {
    const bool crossed = (challenge >> i) & 1u;
    const StageDelays& s = stages_[static_cast<size_t>(i)];
    if (crossed) {
      diff = -diff + (s.top_crossed - s.bottom_crossed);
    } else {
      diff = diff + (s.top_straight - s.bottom_straight);
    }
  }
  return diff;
}

bool ArbiterPuf::EvaluateIdeal(uint64_t challenge) const {
  return DelayDifference(challenge) > 0.0;
}

namespace {

// One physical measurement of a known delay difference.
bool MeasureOnce(double diff, double noise_sigma, Xoshiro256& rng) {
  return diff + rng.NextGaussian() * noise_sigma > 0.0;
}

}  // namespace

bool ArbiterPuf::EvaluateNoisy(uint64_t challenge, Xoshiro256& rng) const {
  return MeasureOnce(DelayDifference(challenge), noise_sigma_, rng);
}

bool ArbiterPuf::EvaluateStabilized(uint64_t challenge, Xoshiro256& rng,
                                    int votes) const {
  assert(votes > 0 && votes % 2 == 1 && "temporal majority needs odd votes");
  const double diff = DelayDifference(challenge);
  // No noise draw exceeds kMaxAbsGaussian sigmas, so a margin beyond that
  // decides every vote: advance the RNG as the votes would and skip the
  // noise math. Bit-exact with the loop below. A NaN or infinite sigma
  // fails the comparison and takes the loop.
  const double bound = std::abs(noise_sigma_) * kMaxAbsGaussian;
  if (std::abs(diff) > bound) {
    for (int i = 0; i < votes; ++i) rng.SkipGaussian();
    return diff > 0.0;
  }
  int ones = 0;
  for (int i = 0; i < votes; ++i) {
    ones += MeasureOnce(diff, noise_sigma_, rng) ? 1 : 0;
  }
  return ones * 2 > votes;
}

}  // namespace eric::puf
