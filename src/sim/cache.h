// Set-associative L1 cache timing model (Table I: 16 KiB, 4-way, for both
// I and D sides of the Rocket core).
//
// The cache tracks tags only — data always comes from Memory; the model's
// job is classifying each access as hit or miss so the core can charge the
// right latency. Replacement is LRU. Write policy is write-allocate /
// write-back (Rocket's L1D), which for a tag-only model reduces to
// allocate-on-write.
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
    const uint64_t line_addr =
        pow2_ ? addr >> line_shift_ : addr / config_.line_bytes;
    ++use_counter_;
    // Same line as the last access: exactly the hit the set search below
    // would find (that line cannot have been evicted since).
    Line& last = lines_[last_line_];
    if (line_addr == last_line_addr_ && last.valid) {
      last.lru = use_counter_;
      ++stats_.hits;
      return config_.hit_cycles;
    }
    return Lookup(line_addr);
  }

  /// Records `n` more hits on the line accessed last, exactly as `n`
  /// Access calls to an address on it would; the caller charges their
  /// hit cycles. Valid only while no other access came in between. That
  /// line already holds the newest LRU stamp, so more hits on it cannot
  /// change the replacement order: only the hit count moves.
  void RepeatLastHit(uint64_t n) { stats_.hits += n; }

  /// Invalidates all lines (program reload). Counters are kept.
  void Flush();

  /// Zeroes the hit/miss counters (start of a run).
  void ResetStats() { stats_ = {}; }

  const CacheStats& stats() const { return stats_; }
  const CacheConfig& config() const { return config_; }

 private:
  struct Line {
    uint64_t tag = 0;
    uint64_t lru = 0;  // last-use stamp
    bool valid = false;
  };

  /// Set search for `line_addr` (use_counter_ already bumped).
  uint32_t Lookup(uint64_t line_addr);

  CacheConfig config_;
  uint32_t num_sets_;
  // Line size and set count both powers of two: index by shift and mask.
  bool pow2_ = false;
  int line_shift_ = 0;
  int set_shift_ = 0;
  std::vector<Line> lines_;  // num_sets * ways, row-major by set
  uint64_t use_counter_ = 0;
  // Line index and line address of the last access.
  size_t last_line_ = 0;
  uint64_t last_line_addr_ = 0;
  CacheStats stats_;
};

}  // namespace eric::sim
