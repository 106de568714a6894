// PUF Key Generator (PKG) — the hardware unit that turns the device's
// arbiter-PUF array into the 256-bit PUF key (Sec. III.2).
//
// Paper configuration (Table I): 32 arbiter PUFs, each with an 8-bit
// challenge and a 1-bit response. The PKG walks a fixed public challenge
// schedule (8 challenges per instance x 32 instances = 256 response bits),
// stabilizing each bit with temporal majority voting, and concatenates the
// responses into the PUF key. The schedule is public; the *responses* are
// the device secret.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "crypto/xor_cipher.h"
#include "puf/arbiter_puf.h"
#include "support/rng.h"

namespace eric::puf {

/// PKG configuration mirroring Table I.
struct PkgConfig {
  int instances = 32;       ///< Number of arbiter PUFs on the device.
  int challenge_bits = 8;   ///< Challenge width per instance.
  int bits_per_instance = 8;///< Schedule length per instance (32*8 = 256).
  int majority_votes = 11;  ///< Temporal-majority votes per bit.
  int repetition = 5;       ///< Repetition-code length of the fuzzy extractor.
  PufProcessModel process;  ///< Silicon model shared by all instances.
};

/// Public helper data of the fuzzy extractor. Reveals nothing about the
/// key on its own (it is the XOR of raw responses with a codeword), so it
/// can be stored in plain flash next to the device.
struct PufHelperData {
  std::vector<uint8_t> mask;  ///< 256 * repetition bits
};

/// The device-side PUF key generator.
class PufKeyGenerator {
 public:
  /// `device_seed` stands in for this device's silicon (its process
  /// variation); equal seeds model the same physical chip.
  PufKeyGenerator(uint64_t device_seed, const PkgConfig& config = {});

  /// Regenerates the 256-bit PUF key from silicon. `measurement_rng`
  /// supplies the thermal noise of this power-up; with the default
  /// majority voting the key is stable across regenerations with
  /// overwhelming probability.
  crypto::Key256 GenerateKey(Xoshiro256& measurement_rng) const;

  /// Noise-free key (the "enrollment" value a fab would record).
  crypto::Key256 IdealKey() const;

  /// One-time enrollment (fuzzy extractor, repetition code).
  ///
  /// Measures an extended response vector w (256 x `repetition` bits,
  /// each temporally majority-voted), derives the key K from a hash of
  /// the stabilized responses, and publishes helper = w XOR C(K) where C
  /// is the bit-repetition code. Regeneration then survives up to
  /// floor((repetition-1)/2) response flips per key bit — which covers
  /// metastable challenges that plain majority voting cannot fix.
  struct Enrollment {
    crypto::Key256 key;
    PufHelperData helper;
  };
  Enrollment Enroll(Xoshiro256& measurement_rng) const;

  /// Power-up key regeneration from silicon + public helper data.
  /// Returns exactly the enrolled key with overwhelming probability.
  crypto::Key256 RegenerateKey(const PufHelperData& helper,
                               Xoshiro256& measurement_rng) const;

  /// Raw single-bit challenge/response access, used by the
  /// characterization bench (Fig. 1) and by authentication protocols.
  bool Response(int instance, uint64_t challenge, Xoshiro256& rng) const;

  const PkgConfig& config() const { return config_; }

  /// The fixed public challenge for (instance, bit_index) — derived from a
  /// public constant, identical on every device.
  uint64_t ScheduledChallenge(int instance, int bit_index) const;

  /// The fuzzy extractor's public extended schedule: the challenge that
  /// measures repetition copy `rep` of key bit `bit` on instance
  /// (bit % instances). Identical on every device.
  uint64_t ExtendedChallenge(int bit, int rep) const;

 private:
  crypto::Key256 AssembleKey(
      const std::function<bool(const ArbiterPuf&, uint64_t)>& eval) const;

  /// Measures the fuzzy extractor's 256 x repetition response bits.
  std::vector<uint8_t> MeasureExtendedResponses(Xoshiro256& rng) const;

  /// The extended schedule's delay facts, read from the silicon once per
  /// device. Position bit * repetition + rep has a bit in `beyond_bound`
  /// (no noise can flip it, see BeyondNoiseBound) and in `positive` (its
  /// delay difference is > 0); only positions within the bound keep their
  /// delay difference, in `near_diffs` in position order. About 1.4 KB at
  /// the default configuration, where ~10% of positions are near.
  struct ScheduleTable {
    std::vector<uint8_t> beyond_bound;
    std::vector<uint8_t> positive;
    std::vector<double> near_diffs;
  };

  PkgConfig config_;
  std::vector<ArbiterPuf> pufs_;
  ScheduleTable schedule_;
};

}  // namespace eric::puf
