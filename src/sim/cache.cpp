#include "sim/cache.h"

#include <bit>
#include <cassert>

namespace eric::sim {

Cache::Cache(const CacheConfig& config) : config_(config) {
  assert(config.size_bytes % (config.line_bytes * config.ways) == 0);
  num_sets_ = config.size_bytes / (config.line_bytes * config.ways);
  lines_.resize(static_cast<size_t>(num_sets_) * config.ways);
  pow2_ = std::has_single_bit(config.line_bytes) &&
          std::has_single_bit(num_sets_);
  if (pow2_) {
    line_shift_ = std::countr_zero(config.line_bytes);
    set_shift_ = std::countr_zero(num_sets_);
  }
}

uint32_t Cache::Lookup(uint64_t line_addr) {
  const uint32_t set =
      pow2_ ? static_cast<uint32_t>(line_addr & (num_sets_ - 1))
            : static_cast<uint32_t>(line_addr % num_sets_);
  const uint64_t tag = pow2_ ? line_addr >> set_shift_ : line_addr / num_sets_;
  const size_t base = static_cast<size_t>(set) * config_.ways;
  Line* set_base = &lines_[base];
  last_line_addr_ = line_addr;

  for (uint32_t w = 0; w < config_.ways; ++w) {
    Line& line = set_base[w];
    if (line.valid && line.tag == tag) {
      line.lru = use_counter_;
      ++stats_.hits;
      last_line_ = base + w;
      return config_.hit_cycles;
    }
  }

  // Miss: fill the LRU way.
  uint32_t victim = 0;
  for (uint32_t w = 1; w < config_.ways; ++w) {
    Line& line = set_base[w];
    if (!line.valid) {
      victim = w;
      break;
    }
    if (line.lru < set_base[victim].lru) victim = w;
  }
  set_base[victim].valid = true;
  set_base[victim].tag = tag;
  set_base[victim].lru = use_counter_;
  ++stats_.misses;
  last_line_ = base + victim;
  return config_.miss_cycles;
}

void Cache::Flush() {
  for (Line& line : lines_) line.valid = false;
}

}  // namespace eric::sim
