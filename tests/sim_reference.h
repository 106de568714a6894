// Reference interpreter for the simulated core: the differential oracle.
//
// ReferenceCpu executes one instruction per step, fetching and decoding
// the word at pc every time and making every cache access through
// ReferenceCache::Access, with the same timing model and counters as
// sim::Cpu.
// It keeps no decoded code and batches nothing, so it is slow and
// obviously right; tests/sim_diff_test.cpp runs the same programs through
// both and requires every ExecStats field, every register, the final pc
// and the resident memory to agree.
//
// ReferenceCache is the L1 model the reference uses instead of sim::Cache:
// a stamp-LRU set-associative tag store (each line keeps its last-use
// stamp; a miss fills an invalid way, else the way with the oldest
// stamp). It shares only CacheConfig and CacheStats with sim::Cache, so
// a fault in sim::Cache's replacement shows up as a diff.
//
// ReferenceSoc mirrors sim::Soc: the same memory map and MMIO devices
// around a ReferenceCpu.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "isa/instruction.h"
#include "isa/isa_backend.h"
#include "sim/cache.h"
#include "sim/cpu.h"
#include "sim/memory.h"
#include "sim/soc.h"

namespace eric::sim {

/// Tag-only stamp-LRU set-associative cache.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& config = {});

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

class ReferenceCpu {
 public:
  ReferenceCpu(Memory& memory, const CpuTiming& timing, isa::IsaId isa);

  void set_mmio(MmioHandlers handlers) { mmio_ = std::move(handlers); }

  /// Resets registers, pc, sp, the LR/SC reservation, the cache tags and
  /// the run's cache counters.
  void Reset(uint64_t entry_pc, uint64_t stack_pointer);

  ExecStats Run(const ExecLimits& limits);

  uint64_t reg(int index) const { return regs_[static_cast<size_t>(index)]; }
  void set_reg(int index, uint64_t value) {
    if (index != 0) regs_[static_cast<size_t>(index)] = value;
  }

  void RequestExit(int64_t code) {
    halt_ = HaltReason::kExit;
    exit_code_ = code;
  }

 private:
  /// Executes one instruction; returns false on halt.
  bool Step(ExecStats& stats);

  Memory& memory_;
  CpuTiming timing_;
  const isa::IsaBackend& backend_;
  const bool rv32_;
  ReferenceCache icache_;
  ReferenceCache dcache_;
  MmioHandlers mmio_;
  std::array<uint64_t, 32> regs_{};
  uint64_t pc_ = 0;
  HaltReason halt_ = HaltReason::kNone;
  int64_t exit_code_ = 0;
  uint64_t reservation_addr_ = 0;
  bool reservation_valid_ = false;
};

class ReferenceSoc {
 public:
  explicit ReferenceSoc(const CpuTiming& timing = {},
                        isa::IsaId isa = isa::IsaId::kRv64Gc);

  void LoadProgram(std::span<const uint8_t> image,
                   uint64_t address = kRamBase);
  ExecStats Run(uint64_t entry = kRamBase, uint64_t arg0 = 0,
                uint64_t arg1 = 0, const ExecLimits& limits = {});

  Memory& memory() { return memory_; }
  ReferenceCpu& cpu() { return cpu_; }
  const std::string& console_output() const { return console_output_; }

 private:
  Memory memory_;
  ReferenceCpu cpu_;
  std::string console_output_;
};

}  // namespace eric::sim
