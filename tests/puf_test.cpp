// Tests for the arbiter-PUF model, PUF key generator, and quality metrics.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "crypto/kdf.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "puf/arbiter_puf.h"
#include "puf/puf_key_generator.h"
#include "puf/puf_metrics.h"
#include "support/hex.h"

namespace eric::puf {
namespace {

TEST(ArbiterPufTest, DeterministicPerDevice) {
  ArbiterPuf a(8, /*device_seed=*/1, /*instance=*/0);
  ArbiterPuf b(8, /*device_seed=*/1, /*instance=*/0);
  for (uint64_t c = 0; c < 256; ++c) {
    EXPECT_EQ(a.EvaluateIdeal(c), b.EvaluateIdeal(c)) << c;
  }
}

TEST(ArbiterPufTest, DevicesDiffer) {
  ArbiterPuf a(8, 1, 0), b(8, 2, 0);
  int differing = 0;
  for (uint64_t c = 0; c < 256; ++c) {
    differing += a.EvaluateIdeal(c) != b.EvaluateIdeal(c);
  }
  // Ideal uniqueness is ~50 % on average, but a single device pair under
  // the linear delay model has high variance (challenge responses are
  // correlated); a broad band still proves device separation.
  EXPECT_GT(differing, 40);
  EXPECT_LT(differing, 216);
}

TEST(ArbiterPufTest, InstancesOnSameDeviceDiffer) {
  ArbiterPuf a(8, 1, 0), b(8, 1, 1);
  int differing = 0;
  for (uint64_t c = 0; c < 256; ++c) {
    differing += a.EvaluateIdeal(c) != b.EvaluateIdeal(c);
  }
  EXPECT_GT(differing, 64);
}

TEST(ArbiterPufTest, ChallengeChangesResponse) {
  ArbiterPuf puf(8, 3, 0);
  int ones = 0;
  for (uint64_t c = 0; c < 256; ++c) ones += puf.EvaluateIdeal(c);
  // Not constant (a stuck PUF would be 0 or 256).
  EXPECT_GT(ones, 32);
  EXPECT_LT(ones, 224);
}

TEST(ArbiterPufTest, NoiseFlipsOnlyNearThreshold) {
  PufProcessModel model;
  model.noise_sigma = 0.05;
  ArbiterPuf puf(8, 7, 0, model);
  Xoshiro256 rng(99);
  for (uint64_t c = 0; c < 64; ++c) {
    const double margin = puf.DelayDifference(c);
    if (std::abs(margin) > 0.5) {
      // Far from threshold: 20 measurements must agree with ideal.
      for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(puf.EvaluateNoisy(c, rng), puf.EvaluateIdeal(c))
            << "challenge " << c << " margin " << margin;
      }
    }
  }
}

TEST(ArbiterPufTest, MajorityVotingStabilizes) {
  PufProcessModel noisy;
  noisy.noise_sigma = 0.3;  // deliberately bad silicon
  ArbiterPuf puf(8, 11, 0, noisy);
  Xoshiro256 rng(5);
  int stable_disagreements = 0;
  for (uint64_t c = 0; c < 128; ++c) {
    const bool ideal = puf.EvaluateIdeal(c);
    if (std::abs(puf.DelayDifference(c)) < 0.2) continue;  // metastable bits
    if (puf.EvaluateStabilized(c, rng, 25) != ideal) ++stable_disagreements;
  }
  EXPECT_LE(stable_disagreements, 2);
}

TEST(ArbiterPufTest, DelayDifferenceIsLinearish) {
  // The additive model must respond to every challenge bit: flipping one
  // challenge bit must change the delay difference for most challenges.
  ArbiterPuf puf(8, 13, 0);
  int changed = 0;
  for (uint64_t c = 0; c < 128; ++c) {
    if (puf.DelayDifference(c) != puf.DelayDifference(c ^ 1)) ++changed;
  }
  EXPECT_EQ(changed, 128);
}

// --- PKG -----------------------------------------------------------------

TEST(PkgTest, RawMajorityKeyIsMostlyStable) {
  PufKeyGenerator pkg(/*device_seed=*/42);
  Xoshiro256 rng1(1), rng2(2);
  const auto k1 = pkg.GenerateKey(rng1);
  const auto k2 = pkg.GenerateKey(rng2);
  // Plain temporal majority leaves the occasional metastable bit — that is
  // precisely why the fuzzy extractor below exists.
  int differing_bits = 0;
  for (size_t i = 0; i < k1.size(); ++i) {
    differing_bits += std::popcount(static_cast<unsigned>(k1[i] ^ k2[i]));
  }
  EXPECT_LE(differing_bits, 8);
}

TEST(PkgTest, FuzzyExtractorRegeneratesExactKey) {
  PufKeyGenerator pkg(/*device_seed=*/42);
  Xoshiro256 enroll_rng(1);
  const auto enrollment = pkg.Enroll(enroll_rng);
  // Many power-ups, each with fresh measurement noise: the helper data
  // must recover the exact enrolled key every time.
  for (uint64_t powerup = 0; powerup < 10; ++powerup) {
    Xoshiro256 rng(1000 + powerup);
    EXPECT_EQ(pkg.RegenerateKey(enrollment.helper, rng), enrollment.key)
        << "power-up " << powerup;
  }
}

TEST(PkgTest, HelperDataIsUselessOnWrongDevice) {
  PufKeyGenerator device_a(42), device_b(43);
  Xoshiro256 rng(1);
  const auto enrollment = device_a.Enroll(rng);
  Xoshiro256 rng2(2);
  const auto stolen = device_b.RegenerateKey(enrollment.helper, rng2);
  // Device B's silicon decodes garbage: a large fraction of bits differ.
  int differing_bits = 0;
  for (size_t i = 0; i < stolen.size(); ++i) {
    differing_bits += std::popcount(
        static_cast<unsigned>(stolen[i] ^ enrollment.key[i]));
  }
  EXPECT_GT(differing_bits, 60);
}

TEST(PkgTest, EnrollmentIsDeterministicPerDevice) {
  PufKeyGenerator pkg(77);
  Xoshiro256 r1(1), r2(9);
  // Key derivation is from noise-free silicon, so two enrollments agree on
  // the key (helper data may differ — it absorbs the measurement noise).
  EXPECT_EQ(pkg.Enroll(r1).key, pkg.Enroll(r2).key);
}

TEST(PkgTest, KeyMatchesEnrollment) {
  PufKeyGenerator pkg(/*device_seed=*/43);
  Xoshiro256 rng(1);
  const auto live = pkg.GenerateKey(rng);
  const auto enrolled = pkg.IdealKey();
  int differing_bits = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    differing_bits +=
        std::popcount(static_cast<unsigned>(live[i] ^ enrolled[i]));
  }
  EXPECT_LE(differing_bits, 1);
}

TEST(PkgTest, DevicesGetDistinctKeys) {
  PufKeyGenerator a(100), b(101);
  const auto ka = a.IdealKey();
  const auto kb = b.IdealKey();
  int differing_bits = 0;
  for (size_t i = 0; i < ka.size(); ++i) {
    differing_bits += std::popcount(static_cast<unsigned>(ka[i] ^ kb[i]));
  }
  // Ideal: ~128 of 256 bits differ.
  EXPECT_GT(differing_bits, 80);
  EXPECT_LT(differing_bits, 176);
}

TEST(PkgTest, KeyIsNotDegenerate) {
  PufKeyGenerator pkg(7);
  const auto key = pkg.IdealKey();
  int ones = 0;
  for (uint8_t byte : key) ones += std::popcount(static_cast<unsigned>(byte));
  EXPECT_GT(ones, 64);
  EXPECT_LT(ones, 192);
}

TEST(PkgTest, ChallengeScheduleIsPublicAndFixed) {
  PufKeyGenerator a(1), b(2);
  for (int i = 0; i < 32; ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      EXPECT_EQ(a.ScheduledChallenge(i, bit), b.ScheduledChallenge(i, bit));
      EXPECT_LT(a.ScheduledChallenge(i, bit), 256u);  // 8-bit challenges
    }
  }
}

TEST(PkgTest, TableIConfiguration) {
  // The default PKG matches Table I: 32 instances x 8-bit challenges.
  PufKeyGenerator pkg(1);
  EXPECT_EQ(pkg.config().instances, 32);
  EXPECT_EQ(pkg.config().challenge_bits, 8);
  EXPECT_EQ(pkg.config().instances * pkg.config().bits_per_instance, 256);
}

// --- Bit-exact measurement ---------------------------------------------------
// Every key bit and every RNG draw of a measurement is part of the model's
// contract: the fleet's recorded enrollments and the seeded benches replay
// them. The goldens below were captured from the plain per-vote loop;
// any speed-up of the measurement path must leave them unchanged.

// SHA-256 over one device's enrollment, three regenerations and a raw
// majority key, each followed by the measurement RNG's next word.
std::string MeasurementDigest(uint64_t device_seed,
                              const PkgConfig& config = {}) {
  const PufKeyGenerator pkg(device_seed, config);
  Xoshiro256 rng(device_seed ^ 0x5EEDF00Dull);
  crypto::Sha256 hash;
  const auto absorb_next_word = [&] {
    const uint64_t word = rng.Next();
    uint8_t bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<uint8_t>(word >> (8 * i));
    }
    hash.Update(bytes);
  };
  const auto enrollment = pkg.Enroll(rng);
  hash.Update(enrollment.key);
  hash.Update(enrollment.helper.mask);
  absorb_next_word();
  for (int powerup = 0; powerup < 3; ++powerup) {
    hash.Update(pkg.RegenerateKey(enrollment.helper, rng));
    absorb_next_word();
  }
  hash.Update(pkg.GenerateKey(rng));
  absorb_next_word();
  const crypto::Sha256Digest digest = hash.Finish();
  return HexEncode(digest);
}

TEST(PufGoldenTest, MeasurementDigestsAreUnchanged) {
  const struct {
    uint64_t device_seed;
    const char* digest;
  } kGoldens[] = {
      {0,
       "251a88a06844256219a8db715b0ab219d2dbfc2896515e5bf7a2380c487f6f26"},
      {1,
       "44f73b109c6018a1787f6921c8b888f256d58c7c5646eb7a1075654962555bdd"},
      {7,
       "a8a22adefa18b04363e2af77db4a1e417254c30079d24afe1818b876f379b99d"},
      {42,
       "11955939897d7b13ab4cd7ff09ffc0cde25ffc189d264b3fb252e0a18bffa0a6"},
      {0xC0FFEE,
       "9dd8911cce29b3376bf4915ae72393e4169162b9b23b9d9910943539b4c67ee8"},
      {0xDEADBEEF,
       "14b6b8bb1ef1c2389177302a547771e323564b4e9a95069175be7bf10594b519"},
      {0x123456789ABCDEF0ull,
       "2185479541028b9169ae56c013190595b0dff7040f28f3831bad7bf59687870e"},
      {~0ull,
       "8df402e0c3733a25054b8ea0e5419744a69ab0bcc17ac7f31234a9115cd591f5"},
  };
  for (const auto& golden : kGoldens) {
    EXPECT_EQ(MeasurementDigest(golden.device_seed), golden.digest)
        << "device seed " << golden.device_seed;
  }
}

TEST(PufGoldenTest, NoisySiliconDigestsAreUnchanged) {
  // Loud silicon sends most votes down the full noise computation.
  PkgConfig loud;
  loud.process.noise_sigma = 0.3;
  EXPECT_EQ(MeasurementDigest(3, loud),
            "4f0548e8e694ef3b87041415be5abfc58fe9258070ce65a47ba6bf2c9e0da056");
  EXPECT_EQ(MeasurementDigest(0xC0FFEE, loud),
            "18e4c310eb143f076f66cabf56f0cbf98b8f8552d14a60324ab4c8c06252dac9");
}

// The reference stabilizer: a majority over the public one-shot
// measurement, which draws exactly one Gaussian per vote.
bool ReferenceStabilized(const ArbiterPuf& puf, uint64_t challenge,
                         Xoshiro256& rng, int votes) {
  int ones = 0;
  for (int i = 0; i < votes; ++i) ones += puf.EvaluateNoisy(challenge, rng);
  return ones * 2 > votes;
}

// Runs EvaluateStabilized and the reference from equal RNG states over
// `challenges`; counts results and post-call RNG words that differ, and
// reference results the noise flipped away from the ideal bit.
struct Mismatches {
  int results = 0;
  int rng_words = 0;
  int reference_flips = 0;
};
void Compare(const ArbiterPuf& puf, const std::vector<uint64_t>& challenges,
             uint64_t rng_seed, int votes, Mismatches& out) {
  Xoshiro256 fast(rng_seed), reference(rng_seed);
  for (uint64_t challenge : challenges) {
    const bool expected =
        ReferenceStabilized(puf, challenge, reference, votes);
    out.results += puf.EvaluateStabilized(challenge, fast, votes) != expected;
    out.rng_words += fast.Next() != reference.Next();
    out.reference_flips += expected != puf.EvaluateIdeal(challenge);
  }
}

TEST(PufDifferentialTest, StabilizedMatchesPerVoteReference) {
  const double kSigmas[] = {0.0,  0.06, 0.3, 2.0, -0.06,
                            std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()};
  std::vector<uint64_t> all_challenges(256);
  for (uint64_t c = 0; c < 256; ++c) all_challenges[c] = c;
  Mismatches mismatches;
  for (double sigma : kSigmas) {
    PufProcessModel model;
    model.noise_sigma = sigma;
    for (uint64_t device = 0; device < 24; ++device) {
      const ArbiterPuf puf(8, device, device % 3, model);
      for (int votes : {1, 3, 5, 7, 11}) {
        Compare(puf, all_challenges, device * 131 + votes, votes, mismatches);
      }
    }
  }
  EXPECT_EQ(mismatches.results, 0);
  EXPECT_EQ(mismatches.rng_words, 0);
}

TEST(PufDifferentialTest, ChallengesAtTheNoiseBoundMatchReference) {
  // Scale the noise so that a challenge's delay difference sits within 1%
  // of the noise bound, once just above it and once just below it.
  Mismatches mismatches;
  for (uint64_t device = 0; device < 16; ++device) {
    const ArbiterPuf silicon(8, device, 0);
    for (uint64_t challenge = 0; challenge < 256; challenge += 17) {
      const double margin = std::abs(silicon.DelayDifference(challenge));
      for (double ratio : {0.991, 0.999, 1.001, 1.009}) {
        PufProcessModel model;
        model.noise_sigma = margin / (kMaxAbsGaussian * ratio);
        const ArbiterPuf puf(8, device, 0, model);
        Compare(puf, {challenge}, device ^ challenge, 11, mismatches);
      }
    }
  }
  EXPECT_EQ(mismatches.results, 0);
  EXPECT_EQ(mismatches.rng_words, 0);
}

TEST(PufDifferentialTest, SingleVotesAcrossTheNoiseTailMatchReference) {
  // Margins from 2 to 9 noise sigmas, one vote each: the reference's
  // rare tail flips must all reappear, so a bound set too tight would
  // show up here as result mismatches.
  const ArbiterPuf silicon(8, 5, 0);
  const uint64_t challenge = 0x3C;
  const double margin = std::abs(silicon.DelayDifference(challenge));
  ASSERT_GT(margin, 0.0);
  const std::vector<uint64_t> repeated(5000, challenge);
  Mismatches mismatches;
  for (int step = 0; step <= 70; ++step) {
    const double sigmas = 2.0 + 0.1 * step;
    PufProcessModel model;
    model.noise_sigma = margin / sigmas;
    const ArbiterPuf puf(8, 5, 0, model);
    Compare(puf, repeated, static_cast<uint64_t>(step), 1, mismatches);
  }
  EXPECT_GT(mismatches.reference_flips, 0);
  EXPECT_EQ(mismatches.results, 0);
  EXPECT_EQ(mismatches.rng_words, 0);
}

// The key generator rebuilt from public pieces: one ArbiterPuf per
// instance (the generator's silicon, by seed), the public schedules and a
// majority over EvaluateNoisy votes, one Gaussian per vote. Next to each
// result it counts the votes the generator must run the noise math for:
// those cast until one side held the majority, at positions whose delay
// difference lies within kMaxAbsGaussian noise sigmas.
class ReferencePkg {
 public:
  ReferencePkg(uint64_t device_seed, const PkgConfig& config)
      : public_schedule_(device_seed, config), config_(config) {
    for (int i = 0; i < config.instances; ++i) {
      pufs_.emplace_back(config.challenge_bits, device_seed,
                         static_cast<uint64_t>(i), config.process);
    }
  }

  PufKeyGenerator::Enrollment Enroll(Xoshiro256& rng) {
    crypto::Key256 ideal{};
    for (int i = 0; i < config_.instances; ++i) {
      for (int b = 0; b < config_.bits_per_instance; ++b) {
        const uint64_t challenge = public_schedule_.ScheduledChallenge(i, b);
        SetBit(ideal, i * config_.bits_per_instance + b,
               pufs_[static_cast<size_t>(i)].EvaluateIdeal(challenge));
      }
    }
    PufKeyGenerator::Enrollment out;
    out.key = crypto::DeriveKey(ideal, "eric.pkg.enroll", 0);
    out.helper.mask = MeasureExtended(rng);
    for (int bit = 0; bit < 256; ++bit) {
      for (int rep = 0; rep < config_.repetition; ++rep) {
        const int index = bit * config_.repetition + rep;
        SetBit(out.helper.mask, index,
               GetBit(out.helper.mask, index) != GetBit(out.key, bit));
      }
    }
    return out;
  }

  crypto::Key256 RegenerateKey(const PufHelperData& helper, Xoshiro256& rng) {
    const std::vector<uint8_t> w = MeasureExtended(rng);
    crypto::Key256 key{};
    for (int bit = 0; bit < 256; ++bit) {
      int ones = 0;
      for (int rep = 0; rep < config_.repetition; ++rep) {
        const int index = bit * config_.repetition + rep;
        ones += GetBit(w, index) != GetBit(helper.mask, index);
      }
      SetBit(key, bit, ones * 2 > config_.repetition);
    }
    return key;
  }

  crypto::Key256 GenerateKey(Xoshiro256& rng) {
    crypto::Key256 key{};
    for (int i = 0; i < config_.instances; ++i) {
      for (int b = 0; b < config_.bits_per_instance; ++b) {
        SetBit(key, i * config_.bits_per_instance + b,
               Majority(pufs_[static_cast<size_t>(i)],
                        public_schedule_.ScheduledChallenge(i, b), rng));
      }
    }
    return key;
  }

  uint64_t noise_draws() const { return noise_draws_; }

 private:
  template <typename Bytes>
  static bool GetBit(const Bytes& bytes, int index) {
    return (bytes[static_cast<size_t>(index / 8)] >> (index % 8)) & 1u;
  }
  template <typename Bytes>
  static void SetBit(Bytes& bytes, int index, bool value) {
    const auto mask = static_cast<uint8_t>(1u << (index % 8));
    auto& byte = bytes[static_cast<size_t>(index / 8)];
    byte = static_cast<uint8_t>(value ? (byte | mask) : (byte & ~mask));
  }

  bool Majority(const ArbiterPuf& puf, uint64_t challenge, Xoshiro256& rng) {
    const int votes = config_.majority_votes;
    const double margin = std::abs(puf.DelayDifference(challenge));
    const bool within_bound =
        !(margin > std::abs(config_.process.noise_sigma) * kMaxAbsGaussian);
    int ones = 0;
    int decided_after = 0;
    for (int i = 0; i < votes; ++i) {
      ones += puf.EvaluateNoisy(challenge, rng);
      const int zeros = i + 1 - ones;
      if (decided_after == 0 && (ones * 2 > votes || zeros * 2 > votes)) {
        decided_after = i + 1;
      }
    }
    if (within_bound) noise_draws_ += static_cast<uint64_t>(decided_after);
    return ones * 2 > votes;
  }

  std::vector<uint8_t> MeasureExtended(Xoshiro256& rng) {
    const size_t positions = 256 * static_cast<size_t>(config_.repetition);
    std::vector<uint8_t> w((positions + 7) / 8, 0);
    for (int bit = 0; bit < 256; ++bit) {
      for (int rep = 0; rep < config_.repetition; ++rep) {
        SetBit(w, bit * config_.repetition + rep,
               Majority(pufs_[static_cast<size_t>(bit % config_.instances)],
                        public_schedule_.ExtendedChallenge(bit, rep), rng));
      }
    }
    return w;
  }

  // Used only for the public, device-independent schedules.
  PufKeyGenerator public_schedule_;
  PkgConfig config_;
  std::vector<ArbiterPuf> pufs_;
  uint64_t noise_draws_ = 0;
};

// Runs enrollment, two regenerations and a raw majority key through the
// generator and the reference from equal RNG states; counts keys, helper
// masks, post-call RNG words and noise-draw totals that differ.
struct PkgMismatches {
  int keys = 0;
  int helpers = 0;
  int rng_words = 0;
  int noise_draws = 0;
  uint64_t reference_draws = 0;
};
void ComparePkg(uint64_t device_seed, const PkgConfig& config,
                PkgMismatches& out) {
  const obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("puf_noise_draws");
  const uint64_t draws_before = counter.value();
  const PufKeyGenerator pkg(device_seed, config);
  ReferencePkg reference(device_seed, config);
  Xoshiro256 fast_rng(device_seed ^ 0x7AB1Eull);
  Xoshiro256 reference_rng(device_seed ^ 0x7AB1Eull);
  const auto check_rng = [&] {
    out.rng_words += fast_rng.Next() != reference_rng.Next();
  };

  const auto enrollment = pkg.Enroll(fast_rng);
  const auto expected = reference.Enroll(reference_rng);
  out.keys += enrollment.key != expected.key;
  out.helpers += enrollment.helper.mask != expected.helper.mask;
  check_rng();
  for (int powerup = 0; powerup < 2; ++powerup) {
    out.keys += pkg.RegenerateKey(enrollment.helper, fast_rng) !=
                reference.RegenerateKey(enrollment.helper, reference_rng);
    check_rng();
  }
  out.keys += pkg.GenerateKey(fast_rng) != reference.GenerateKey(reference_rng);
  check_rng();
  out.noise_draws += counter.value() - draws_before != reference.noise_draws();
  out.reference_draws += reference.noise_draws();
}

TEST(PufDifferentialTest, ExtendedScheduleMatchesPerVoteReference) {
  const double kSigmas[] = {0.0, 0.06, 0.3, -0.06,
                            std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()};
  PkgMismatches mismatches;
  uint64_t device = 0;
  for (int repetition : {1, 3, 5, 7}) {
    for (int votes : {1, 3, 5, 11}) {
      for (int challenge_bits : {8, 16, 64}) {
        for (double sigma : kSigmas) {
          PkgConfig config;
          config.repetition = repetition;
          config.majority_votes = votes;
          config.challenge_bits = challenge_bits;
          config.process.noise_sigma = sigma;
          ComparePkg(++device, config, mismatches);
        }
      }
    }
  }
  EXPECT_GT(mismatches.reference_draws, 0u);

  // Noise scaled so that one scheduled position's delay difference sits
  // just inside the noise bound, just beyond it and exactly on it (the
  // bound itself is within: no noise draw reaches it, but the generator
  // measures it like any position within).
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const PufKeyGenerator schedule(seed);
    const ArbiterPuf silicon(8, seed, seed % 32);
    const double margin = std::abs(silicon.DelayDifference(
        schedule.ExtendedChallenge(static_cast<int>(seed % 32), 2)));
    for (double ratio : {0.999, 1.0, 1.001}) {
      PkgConfig config;
      double& sigma = config.process.noise_sigma;
      sigma = margin / (kMaxAbsGaussian * ratio);
      if (ratio == 1.0) {
        // Nudge sigma until sigma * kMaxAbsGaussian equals the margin.
        const double up = std::numeric_limits<double>::infinity();
        for (int step = 0; step < 8 && sigma * kMaxAbsGaussian != margin;
             ++step) {
          sigma = std::nextafter(sigma,
                                 sigma * kMaxAbsGaussian < margin ? up : 0.0);
        }
        ASSERT_EQ(sigma * kMaxAbsGaussian, margin);
      }
      ComparePkg(seed, config, mismatches);
    }
  }
  EXPECT_EQ(mismatches.keys, 0);
  EXPECT_EQ(mismatches.helpers, 0);
  EXPECT_EQ(mismatches.rng_words, 0);
  EXPECT_EQ(mismatches.noise_draws, 0);
}

// --- Metrics ----------------------------------------------------------------

TEST(MetricsTest, HammingDistance) {
  EXPECT_EQ(HammingDistanceBits({0x00}, {0xFF}), 8);
  EXPECT_EQ(HammingDistanceBits({0xF0, 0x0F}, {0x0F, 0x0F}), 8);
  EXPECT_EQ(HammingDistanceBits({0xAA}, {0xAA}), 0);
}

TEST(MetricsTest, QualityInHealthyBands) {
  PufStudyConfig config;
  config.devices = 40;
  config.challenges = 64;
  config.remeasurements = 15;
  const PufQualityReport report = CharacterizeArbiterPuf(config);

  // Canonical arbiter-PUF quality bands (Maes & Verbauwhede).
  EXPECT_GT(report.uniformity_percent, 35.0);
  EXPECT_LT(report.uniformity_percent, 65.0);
  EXPECT_GT(report.uniqueness_percent, 40.0);
  EXPECT_LT(report.uniqueness_percent, 60.0);
  EXPECT_GT(report.reliability_percent, 90.0);
}

TEST(MetricsTest, MoreNoiseLowersReliability) {
  PufStudyConfig quiet, loud;
  quiet.devices = loud.devices = 20;
  quiet.challenges = loud.challenges = 32;
  quiet.process.noise_sigma = 0.02;
  loud.process.noise_sigma = 0.5;
  const auto q = CharacterizeArbiterPuf(quiet);
  const auto l = CharacterizeArbiterPuf(loud);
  EXPECT_GT(q.reliability_percent, l.reliability_percent);
}

TEST(MetricsTest, ReportEchoesConfig) {
  PufStudyConfig config;
  config.devices = 10;
  config.challenges = 16;
  config.remeasurements = 5;
  const auto report = CharacterizeArbiterPuf(config);
  EXPECT_EQ(report.devices, 10);
  EXPECT_EQ(report.challenges, 16);
  EXPECT_EQ(report.remeasurements, 5);
}

// A degenerate study reports 0 for each metric it cannot define, and the
// metrics it can define as usual.
PufStudyConfig SmallStudy() {
  PufStudyConfig config;
  config.devices = 4;
  config.challenges = 16;
  config.remeasurements = 5;
  return config;
}

TEST(MetricsTest, OneDeviceHasNoUniqueness) {
  PufStudyConfig config = SmallStudy();
  config.devices = 1;
  const auto report = CharacterizeArbiterPuf(config);
  EXPECT_EQ(report.uniqueness_percent, 0.0);
  EXPECT_GT(report.uniformity_percent, 0.0);
  EXPECT_GT(report.reliability_percent, 0.0);
}

TEST(MetricsTest, NoDevicesDefineNoMetric) {
  PufStudyConfig config = SmallStudy();
  config.devices = 0;
  const auto report = CharacterizeArbiterPuf(config);
  EXPECT_EQ(report.uniformity_percent, 0.0);
  EXPECT_EQ(report.uniqueness_percent, 0.0);
  EXPECT_EQ(report.reliability_percent, 0.0);
  EXPECT_EQ(report.bit_aliasing_worst_percent, 0.0);
}

TEST(MetricsTest, NoChallengesDefineNoMetric) {
  PufStudyConfig config = SmallStudy();
  config.challenges = 0;
  const auto report = CharacterizeArbiterPuf(config);
  EXPECT_EQ(report.uniformity_percent, 0.0);
  EXPECT_EQ(report.uniqueness_percent, 0.0);
  EXPECT_EQ(report.reliability_percent, 0.0);
  EXPECT_EQ(report.bit_aliasing_worst_percent, 0.0);
}

TEST(MetricsTest, NoRemeasurementsHaveNoReliability) {
  PufStudyConfig config = SmallStudy();
  config.remeasurements = 0;
  const auto report = CharacterizeArbiterPuf(config);
  EXPECT_EQ(report.reliability_percent, 0.0);
  EXPECT_GT(report.uniformity_percent, 0.0);
  EXPECT_GT(report.uniqueness_percent, 0.0);
}

}  // namespace
}  // namespace eric::puf
