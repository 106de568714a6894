// Reference interpreter for the simulated core: the differential oracle.
//
// ReferenceCpu executes one instruction per step, fetching and decoding
// the word at pc every time and making every cache access through
// Cache::Access, with the same timing model and counters as sim::Cpu.
// It keeps no decoded code and batches nothing, so it is slow and
// obviously right; tests/sim_diff_test.cpp runs the same programs through
// both and requires every ExecStats field, every register, the final pc
// and the resident memory to agree.
//
// ReferenceSoc mirrors sim::Soc: the same memory map and MMIO devices
// around a ReferenceCpu.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "isa/instruction.h"
#include "isa/isa_backend.h"
#include "sim/cache.h"
#include "sim/cpu.h"
#include "sim/memory.h"
#include "sim/soc.h"

namespace eric::sim {

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
  Cache icache_;
  Cache dcache_;
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
