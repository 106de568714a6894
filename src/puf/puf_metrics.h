// Standard PUF quality metrics, used by the Fig. 1 characterization bench
// and by property tests.
//
// Definitions follow Maes & Verbauwhede's survey ([34] in the paper):
//  * uniformity   — fraction of 1-responses for one device (ideal 50 %)
//  * uniqueness   — mean pairwise inter-device Hamming distance (ideal 50 %)
//  * reliability  — 100 % minus mean intra-device Hamming distance across
//                   re-measurements (ideal 100 %)
//  * bit aliasing — per-challenge bias across devices (ideal 50 %)
#pragma once

#include <cstdint>
#include <vector>

#include "puf/arbiter_puf.h"
#include "support/rng.h"

namespace eric::puf {

/// Result of a population study over many simulated devices. A metric
/// the study cannot define reads 0, never NaN: uniqueness with fewer than
/// two devices, reliability without remeasurements, and every metric
/// without devices or challenges.
struct PufQualityReport {
  double uniformity_percent = 0.0;
  double uniqueness_percent = 0.0;
  double reliability_percent = 0.0;
  double bit_aliasing_worst_percent = 0.0;  ///< farthest from 50 %
  int devices = 0;
  int challenges = 0;
  int remeasurements = 0;
};

/// Parameters for a characterization run.
struct PufStudyConfig {
  int devices = 50;
  int challenge_bits = 8;
  int challenges = 64;        ///< distinct random challenges evaluated
  int remeasurements = 25;    ///< noisy re-reads per (device, challenge)
  uint64_t seed = 0xF161;     ///< base seed (devices get seed+i)
  PufProcessModel process;
};

/// Runs a full uniformity/uniqueness/reliability/aliasing study.
PufQualityReport CharacterizeArbiterPuf(const PufStudyConfig& config);

/// Hamming distance between two equal-length bit vectors stored as bytes.
int HammingDistanceBits(const std::vector<uint8_t>& a,
                        const std::vector<uint8_t>& b);

}  // namespace eric::puf
