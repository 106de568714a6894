// Set-associative L1 cache timing model (Table I: 16 KiB, 4-way, for both
// I and D sides of the Rocket core).
//
// The cache tracks tags only — data always comes from Memory; the model's
// job is classifying each access as hit or miss so the core can charge the
// right latency. Replacement is LRU. Write policy is write-allocate /
// write-back (Rocket's L1D), which for a tag-only model reduces to
// allocate-on-write.
//
// Each set keeps its line addresses in recency order, most recent first,
// with kInvalid in the ways not filled yet (they always sit at the tail).
// A hit on the set's most recent line is one compare and writes nothing; a
// hit further back rotates that line to the front; a miss shifts the least
// recent line out. Invalid ways therefore fill before any line is evicted.
// tests/sim_reference.h keeps a stamp-LRU cache as this one's oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace eric::sim {

/// Cache geometry and latencies.
struct CacheConfig {
  uint32_t size_bytes = 16 * 1024;
  uint32_t line_bytes = 64;
  uint32_t ways = 4;
  uint32_t hit_cycles = 1;    ///< added on hit (pipelined L1)
  uint32_t miss_cycles = 20;  ///< memory round-trip on miss
};

/// Per-cache counters.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;

  uint64_t accesses() const { return hits + misses; }
  double miss_rate() const {
    return accesses() == 0 ? 0.0
                           : static_cast<double>(misses) / accesses();
  }
};

/// Tag-only LRU set-associative cache.
class Cache {
 public:
  explicit Cache(const CacheConfig& config = {});

  /// Performs one access; returns cycles charged (hit or miss latency) and
  /// updates tag state + stats.
  uint32_t Access(uint64_t addr) {
    const uint64_t line =
        pow2_ ? addr >> line_shift_ : addr / config_.line_bytes;
    const uint64_t set = pow2_ ? line & set_mask_ : line % num_sets_;
    uint64_t* const ways = &lines_[set * config_.ways];
    if (ways[0] == line) {
      ++stats_.hits;
      return config_.hit_cycles;
    }
    return Lookup(ways, line);
  }

  /// Records `n` more hits without touching tag state, as `n` Access
  /// calls would that each find its set's most recent line; the caller
  /// charges their hit cycles. A fetch on the line its set touched last
  /// is such a hit whenever it is counted.
  void RepeatLastHit(uint64_t n) { stats_.hits += n; }

  /// Invalidates all lines (program reload). Counters are kept.
  void Flush();

  /// Zeroes the hit/miss counters (start of a run).
  void ResetStats() { stats_ = {}; }

  const CacheStats& stats() const { return stats_; }
  const CacheConfig& config() const { return config_; }

 private:
  /// An unfilled way; no access maps to this line address.
  static constexpr uint64_t kInvalid = ~uint64_t{0};

  /// Access to a set whose most recent line is not `line`.
  uint32_t Lookup(uint64_t* ways, uint64_t line);

  CacheConfig config_;
  uint64_t num_sets_;
  // Line size and set count both powers of two: index by shift and mask.
  bool pow2_ = false;
  int line_shift_ = 0;
  uint64_t set_mask_ = 0;
  // Line addresses, num_sets * ways, row-major by set, each set most
  // recent first.
  std::vector<uint64_t> lines_;
  CacheStats stats_;
};

}  // namespace eric::sim
