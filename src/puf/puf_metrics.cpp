#include "puf/puf_metrics.h"

#include <bit>
#include <cassert>
#include <cmath>

namespace eric::puf {

int HammingDistanceBits(const std::vector<uint8_t>& a,
                        const std::vector<uint8_t>& b) {
  assert(a.size() == b.size());
  int distance = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    distance += std::popcount(static_cast<unsigned>(a[i] ^ b[i]));
  }
  return distance;
}

PufQualityReport CharacterizeArbiterPuf(const PufStudyConfig& config) {
  const int n_dev = config.devices;
  const int n_chal = config.challenges;

  // Draw the challenge set once (shared by all devices).
  Xoshiro256 challenge_rng(config.seed ^ 0xC4A11E46E5ull);
  const uint64_t mask = (config.challenge_bits == 64)
                            ? ~0ull
                            : ((1ull << config.challenge_bits) - 1);
  std::vector<uint64_t> challenges(static_cast<size_t>(n_chal));
  for (auto& c : challenges) c = challenge_rng.Next() & mask;

  // responses[d][c] = ideal bit; packed per device for Hamming math.
  std::vector<std::vector<uint8_t>> ideal(
      static_cast<size_t>(n_dev),
      std::vector<uint8_t>(static_cast<size_t>((n_chal + 7) / 8), 0));
  std::vector<ArbiterPuf> devices;
  devices.reserve(static_cast<size_t>(n_dev));
  for (int d = 0; d < n_dev; ++d) {
    devices.emplace_back(config.challenge_bits, config.seed + 1000 + d,
                         /*instance_index=*/0, config.process);
  }

  int total_ones = 0;
  std::vector<int> ones_per_challenge(static_cast<size_t>(n_chal), 0);
  for (int d = 0; d < n_dev; ++d) {
    for (int c = 0; c < n_chal; ++c) {
      const bool bit = devices[static_cast<size_t>(d)].EvaluateIdeal(
          challenges[static_cast<size_t>(c)]);
      if (bit) {
        ideal[static_cast<size_t>(d)][static_cast<size_t>(c / 8)] |=
            static_cast<uint8_t>(1u << (c % 8));
        ++total_ones;
        ++ones_per_challenge[static_cast<size_t>(c)];
      }
    }
  }

  PufQualityReport report;
  report.devices = n_dev;
  report.challenges = n_chal;
  report.remeasurements = config.remeasurements;
  const double responses = static_cast<double>(n_dev) * n_chal;
  report.uniformity_percent =
      responses > 0 ? 100.0 * total_ones / responses : 0.0;

  // Uniqueness: mean pairwise inter-device HD / n_chal.
  double hd_sum = 0.0;
  int pairs = 0;
  for (int i = 0; i < n_dev; ++i) {
    for (int j = i + 1; j < n_dev; ++j) {
      hd_sum += HammingDistanceBits(ideal[static_cast<size_t>(i)],
                                    ideal[static_cast<size_t>(j)]);
      ++pairs;
    }
  }
  report.uniqueness_percent =
      pairs * n_chal > 0 ? 100.0 * hd_sum / (pairs * n_chal) : 0.0;

  // Reliability: re-measure with noise, count intra-device flips vs ideal.
  Xoshiro256 noise_rng(config.seed ^ 0x4E015Eull);
  long flips = 0;
  for (int d = 0; d < n_dev; ++d) {
    for (int c = 0; c < n_chal; ++c) {
      const bool ref = (ideal[static_cast<size_t>(d)]
                             [static_cast<size_t>(c / 8)] >>
                        (c % 8)) &
                       1u;
      for (int m = 0; m < config.remeasurements; ++m) {
        const bool got = devices[static_cast<size_t>(d)].EvaluateNoisy(
            challenges[static_cast<size_t>(c)], noise_rng);
        if (got != ref) ++flips;
      }
    }
  }
  const double remeasured = responses * config.remeasurements;
  report.reliability_percent =
      remeasured > 0
          ? 100.0 * (1.0 - static_cast<double>(flips) / remeasured)
          : 0.0;

  // Bit aliasing: per-challenge bias across devices; report the worst.
  // Without devices there is no bias to measure: 0, like the rest.
  double worst = responses > 0 ? 50.0 : 0.0;
  for (int c = 0; c < n_chal && n_dev > 0; ++c) {
    const double bias =
        100.0 * ones_per_challenge[static_cast<size_t>(c)] / n_dev;
    if (std::abs(bias - 50.0) > std::abs(worst - 50.0)) worst = bias;
  }
  report.bit_aliasing_worst_percent = worst;
  return report;
}

}  // namespace eric::puf
