#include "puf/arbiter_puf.h"

#include <bit>
#include <cassert>
#include <cmath>

#include "obs/metrics.h"

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
    const double top_straight = rng.NextGaussian() * model.variation_sigma;
    const double bottom_straight = rng.NextGaussian() * model.variation_sigma;
    const double top_crossed = rng.NextGaussian() * model.variation_sigma;
    const double bottom_crossed = rng.NextGaussian() * model.variation_sigma;
    stages_.push_back({top_straight - bottom_straight,
                       top_crossed - bottom_crossed});
  }
}

double ArbiterPuf::DelayDifference(uint64_t challenge) const {
  // Track (top path delay - bottom path delay). A crossed stage swaps the
  // racing signals, so the accumulated difference negates before adding
  // that stage's contribution. Negation flips the sign bit, which is
  // exact and needs no branch: challenge bits are random, so a branch
  // per stage would mispredict half the time.
  double diff = 0.0;
  for (int i = 0; i < challenge_bits_; ++i) {
    const uint64_t crossed = (challenge >> i) & 1u;
    diff = std::bit_cast<double>(std::bit_cast<uint64_t>(diff) ^
                                 (crossed << 63)) +
           stages_[static_cast<size_t>(i)][crossed];
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

bool MajorityVote(double diff, double noise_sigma, int votes,
                  Xoshiro256& rng, uint64_t& noise_draws) {
  assert(votes > 0 && votes % 2 == 1 && "temporal majority needs odd votes");
  int measured = 0;
  bool result = diff > 0.0;
  if (!BeyondNoiseBound(diff, noise_sigma)) {
    const int majority = votes / 2 + 1;
    int ones = 0;
    while (ones < majority && measured - ones < majority) {
      ones += MeasureOnce(diff, noise_sigma, rng) ? 1 : 0;
      ++measured;
    }
    noise_draws += static_cast<uint64_t>(measured);
    result = ones == majority;
  }
  for (int i = measured; i < votes; ++i) rng.SkipGaussian();
  return result;
}

bool ArbiterPuf::EvaluateNoisy(uint64_t challenge, Xoshiro256& rng) const {
  return MeasureOnce(DelayDifference(challenge), noise_sigma_, rng);
}

bool ArbiterPuf::EvaluateStabilized(uint64_t challenge, Xoshiro256& rng,
                                    int votes) const {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("puf_noise_draws");
  uint64_t noise_draws = 0;
  const bool result =
      MajorityVote(DelayDifference(challenge), noise_sigma_, votes, rng,
                   noise_draws);
  if (noise_draws != 0) counter.Add(noise_draws);
  return result;
}

}  // namespace eric::puf
