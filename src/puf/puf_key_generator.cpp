#include "puf/puf_key_generator.h"

#include <cassert>

#include "crypto/kdf.h"
#include "obs/metrics.h"

namespace eric::puf {

PufKeyGenerator::PufKeyGenerator(uint64_t device_seed, const PkgConfig& config)
    : config_(config) {
  assert(config.instances > 0 && config.bits_per_instance > 0);
  assert(config.instances * config.bits_per_instance == 256 &&
         "PKG must produce a 256-bit key");
  pufs_.reserve(static_cast<size_t>(config.instances));
  for (int i = 0; i < config.instances; ++i) {
    pufs_.emplace_back(config.challenge_bits, device_seed,
                       static_cast<uint64_t>(i), config.process);
  }

  const size_t positions = 256 * static_cast<size_t>(config.repetition);
  schedule_.beyond_bound.assign((positions + 7) / 8, 0);
  schedule_.positive.assign((positions + 7) / 8, 0);
  std::vector<double> near_diffs;
  for (int bit = 0; bit < 256; ++bit) {
    const ArbiterPuf& puf = pufs_[static_cast<size_t>(bit % config.instances)];
    for (int rep = 0; rep < config.repetition; ++rep) {
      const double diff = puf.DelayDifference(ExtendedChallenge(bit, rep));
      const int index = bit * config.repetition + rep;
      const auto mask = static_cast<uint8_t>(1u << (index % 8));
      const size_t byte = static_cast<size_t>(index / 8);
      if (diff > 0.0) schedule_.positive[byte] |= mask;
      if (BeyondNoiseBound(diff, config.process.noise_sigma)) {
        schedule_.beyond_bound[byte] |= mask;
      } else {
        near_diffs.push_back(diff);
      }
    }
  }
  // Exact capacity: the table lives as long as the device.
  schedule_.near_diffs.assign(near_diffs.begin(), near_diffs.end());
}

uint64_t PufKeyGenerator::ScheduledChallenge(int instance,
                                             int bit_index) const {
  // Public, device-independent schedule: a SplitMix64 stream keyed only by
  // the (instance, bit) position.
  SplitMix64 sm(0xE51C0DE5ull ^ (static_cast<uint64_t>(instance) << 32) ^
                static_cast<uint64_t>(bit_index));
  const uint64_t mask = (config_.challenge_bits == 64)
                            ? ~0ull
                            : ((1ull << config_.challenge_bits) - 1);
  return sm.Next() & mask;
}

crypto::Key256 PufKeyGenerator::AssembleKey(
    const std::function<bool(const ArbiterPuf&, uint64_t)>& eval) const {
  crypto::Key256 key{};
  int bit = 0;
  for (int i = 0; i < config_.instances; ++i) {
    for (int b = 0; b < config_.bits_per_instance; ++b, ++bit) {
      const uint64_t challenge = ScheduledChallenge(i, b);
      if (eval(pufs_[static_cast<size_t>(i)], challenge)) {
        key[static_cast<size_t>(bit / 8)] |=
            static_cast<uint8_t>(1u << (bit % 8));
      }
    }
  }
  return key;
}

crypto::Key256 PufKeyGenerator::GenerateKey(Xoshiro256& measurement_rng) const {
  return AssembleKey([&](const ArbiterPuf& puf, uint64_t challenge) {
    return puf.EvaluateStabilized(challenge, measurement_rng,
                                  config_.majority_votes);
  });
}

crypto::Key256 PufKeyGenerator::IdealKey() const {
  return AssembleKey([](const ArbiterPuf& puf, uint64_t challenge) {
    return puf.EvaluateIdeal(challenge);
  });
}

bool PufKeyGenerator::Response(int instance, uint64_t challenge,
                               Xoshiro256& rng) const {
  assert(instance >= 0 && instance < config_.instances);
  return pufs_[static_cast<size_t>(instance)].EvaluateNoisy(challenge, rng);
}

uint64_t PufKeyGenerator::ExtendedChallenge(int bit, int rep) const {
  // Like ScheduledChallenge, under its own public constant.
  SplitMix64 sm(0xFE77E57ull ^ (static_cast<uint64_t>(bit) << 20) ^
                static_cast<uint64_t>(rep));
  const uint64_t mask = (config_.challenge_bits == 64)
                            ? ~0ull
                            : ((1ull << config_.challenge_bits) - 1);
  return sm.Next() & mask;
}

std::vector<uint8_t> PufKeyGenerator::MeasureExtendedResponses(
    Xoshiro256& rng) const {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("puf_noise_draws");
  const int votes = config_.majority_votes;
  // Positions are measured in index order, as the schedule table lists
  // them: the RNG order of measuring every copy of every key bit in turn.
  std::vector<uint8_t> w(schedule_.beyond_bound.size(), 0);
  const double* near = schedule_.near_diffs.data();
  uint64_t noise_draws = 0;
  for (int index = 0; index < 256 * config_.repetition; ++index) {
    const size_t byte = static_cast<size_t>(index / 8);
    const auto mask = static_cast<uint8_t>(1u << (index % 8));
    bool r;
    if (schedule_.beyond_bound[byte] & mask) {
      for (int i = 0; i < votes; ++i) rng.SkipGaussian();
      r = schedule_.positive[byte] & mask;
    } else {
      r = MajorityVote(*near++, config_.process.noise_sigma, votes, rng,
                       noise_draws);
    }
    if (r) w[byte] |= mask;
  }
  counter.Add(noise_draws);
  return w;
}

PufKeyGenerator::Enrollment PufKeyGenerator::Enroll(
    Xoshiro256& measurement_rng) const {
  Enrollment out;
  // Key: hash of the device's noise-free extended responses, so the key is
  // silicon-derived (no external randomness to provision).
  crypto::Key256 base = IdealKey();
  out.key = crypto::DeriveKey(base, "eric.pkg.enroll", 0);

  const std::vector<uint8_t> w = MeasureExtendedResponses(measurement_rng);
  // helper = w XOR C(key): repetition code expands key bit i into
  // `repetition` identical bits.
  out.helper.mask.assign(w.begin(), w.end());
  for (int bit = 0; bit < 256; ++bit) {
    const bool key_bit =
        (out.key[static_cast<size_t>(bit / 8)] >> (bit % 8)) & 1u;
    if (!key_bit) continue;
    for (int rep = 0; rep < config_.repetition; ++rep) {
      const int index = bit * config_.repetition + rep;
      out.helper.mask[static_cast<size_t>(index / 8)] ^=
          static_cast<uint8_t>(1u << (index % 8));
    }
  }
  return out;
}

crypto::Key256 PufKeyGenerator::RegenerateKey(
    const PufHelperData& helper, Xoshiro256& measurement_rng) const {
  const std::vector<uint8_t> w = MeasureExtendedResponses(measurement_rng);
  assert(helper.mask.size() == w.size());
  crypto::Key256 key{};
  for (int bit = 0; bit < 256; ++bit) {
    int ones = 0;
    for (int rep = 0; rep < config_.repetition; ++rep) {
      const int index = bit * config_.repetition + rep;
      const uint8_t wi =
          (w[static_cast<size_t>(index / 8)] >> (index % 8)) & 1u;
      const uint8_t hi =
          (helper.mask[static_cast<size_t>(index / 8)] >> (index % 8)) & 1u;
      ones += wi ^ hi;  // codeword bit estimate
    }
    if (ones * 2 > config_.repetition) {
      key[static_cast<size_t>(bit / 8)] |=
          static_cast<uint8_t>(1u << (bit % 8));
    }
  }
  return key;
}

}  // namespace eric::puf
