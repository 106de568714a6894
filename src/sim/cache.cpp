#include "sim/cache.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace eric::sim {

Cache::Cache(const CacheConfig& config) : config_(config) {
  assert(config.size_bytes % (config.line_bytes * config.ways) == 0);
  // Lines of 2 bytes or more keep every line address below kInvalid.
  assert(config.line_bytes >= 2);
  num_sets_ = config.size_bytes / (config.line_bytes * config.ways);
  lines_.assign(num_sets_ * config.ways, kInvalid);
  pow2_ = std::has_single_bit(config.line_bytes) &&
          std::has_single_bit(num_sets_);
  if (pow2_) {
    line_shift_ = std::countr_zero(config.line_bytes);
    set_mask_ = num_sets_ - 1;
  }
}

uint32_t Cache::Lookup(uint64_t* ways, uint64_t line) {
  uint32_t w = 1;
  while (w < config_.ways && ways[w] != line) ++w;
  const bool hit = w < config_.ways;
  // A miss evicts the least recent way. Either way `line` moves to the
  // front and the ways before it move back one.
  if (!hit) w = config_.ways - 1;
  std::copy_backward(ways, ways + w, ways + w + 1);
  ways[0] = line;
  if (hit) {
    ++stats_.hits;
    return config_.hit_cycles;
  }
  ++stats_.misses;
  return config_.miss_cycles;
}

void Cache::Flush() { std::fill(lines_.begin(), lines_.end(), kInvalid); }

}  // namespace eric::sim
