// In-order RV64IMAC core with a Rocket-like timing model.
//
// Functional semantics are exact for the supported subset; timing is
// approximate but shaped like the paper's 6-stage in-order Rocket pipeline:
// CPI 1 for simple ops, fixed multiplier/divider latencies, a flush penalty
// for taken control flow, and additive L1 miss penalties. Absolute numbers
// need not match a Zedboard build — Fig 7 depends on *relative* change
// when ERIC's load-path decryption is enabled, which this model preserves.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "isa/decoder.h"
#include "isa/instruction.h"
#include "isa/isa_backend.h"
#include "sim/cache.h"
#include "sim/memory.h"
#include "support/status.h"

namespace eric::sim {

/// Why execution stopped.
enum class HaltReason {
  kNone,
  kExit,                ///< ecall exit or exit-device store
  kEbreak,              ///< hit an ebreak
  kInvalidInstruction,  ///< undecodable or unsupported encoding
  kInstructionLimit,    ///< ExecLimits::max_instructions reached
};

/// Core timing parameters (latencies beyond the 1-cycle base).
struct CpuTiming {
  uint32_t mul_extra_cycles = 3;
  uint32_t div_extra_cycles = 19;
  uint32_t taken_branch_penalty = 2;  ///< pipeline flush on redirect
  CacheConfig icache;
  CacheConfig dcache;

  CpuTiming() {
    // Pipelined L1s: hits are folded into the base CPI.
    icache.hit_cycles = 0;
    dcache.hit_cycles = 0;
  }
};

/// Execution budget.
struct ExecLimits {
  uint64_t max_instructions = 200'000'000;
};

/// Result of a run.
struct ExecStats {
  uint64_t instructions = 0;
  uint64_t cycles = 0;
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t branches = 0;
  uint64_t taken_branches = 0;
  CacheStats icache;
  CacheStats dcache;
  HaltReason halt_reason = HaltReason::kNone;
  int64_t exit_code = 0;
  uint64_t final_pc = 0;

  double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) / cycles;
  }
};

/// Memory-mapped I/O hook: the SoC installs a handler for device
/// addresses; returns true if the access was claimed by a device.
struct MmioHandlers {
  std::function<bool(uint64_t addr, uint64_t value, int size)> store;
  std::function<bool(uint64_t addr, uint64_t* value, int size)> load;
  /// Device address range [first, last]: the core calls the handlers only
  /// for addresses inside it. The default covers every address.
  uint64_t first = 0;
  uint64_t last = ~uint64_t{0};

  bool Covers(uint64_t addr) const { return addr >= first && addr <= last; }
};

/// The core.
///
/// The execution mode follows the ISA backend: on `kRv32I` registers keep
/// a sign-extended-32 invariant (every writeback re-canonicalizes),
/// addresses and the pc are truncated to 32 bits, shift amounts are
/// 5-bit, and compressed or RV64-only encodings halt the core with
/// kInvalidInstruction instead of silently executing.
class Cpu {
 public:
  Cpu(Memory& memory, const CpuTiming& timing = {},
      isa::IsaId isa = isa::IsaId::kRv64Gc);

  /// Installs device handlers (optional).
  void set_mmio(MmioHandlers handlers) { mmio_ = std::move(handlers); }

  /// Resets architectural state and the run's cache counters; sets pc
  /// and sp.
  void Reset(uint64_t entry_pc, uint64_t stack_pointer);

  /// Sizes the decode table to cover `bytes` of code at `base` (the loaded
  /// image). Fetches outside it decode every time.
  void CacheDecodes(uint64_t base, uint64_t bytes);

  /// Runs until halt or limit. Registers/pc retain final state.
  ExecStats Run(const ExecLimits& limits = {});

  /// Architectural register access (tests, argument passing).
  uint64_t reg(int index) const { return regs_[static_cast<size_t>(index)]; }
  void set_reg(int index, uint64_t value) {
    if (index != 0) regs_[static_cast<size_t>(index)] = value;
  }
  uint64_t pc() const { return pc_; }

  /// Called by device models (exit device) to stop the core after the
  /// in-flight instruction completes.
  void RequestExit(int64_t code) {
    halt_ = HaltReason::kExit;
    exit_code_ = code;
  }

 private:
  /// Executes one instruction; returns false on halt.
  bool Step(ExecStats& stats);

  /// Decodes the 4 bytes fetched at pc_ (a compressed instruction uses the
  /// low half), through the decode table when pc_ is inside it.
  isa::Instr Decode(uint32_t word);
  isa::Instr DecodeWord(uint32_t word) const;

  // One slot per instruction-alignment unit of the cached image (2 bytes
  // with the C extension, else 4). A slot is used only while its raw word
  // equals the fetched bytes, so self-modifying stores need no
  // invalidation, and a misaligned pc sharing a slot still decodes its
  // own word; zero-initialized slots (kInvalid) never match.
  struct DecodedInstr {
    uint32_t word = 0;
    isa::Instr in;
  };

  Memory& memory_;
  CpuTiming timing_;
  const isa::IsaBackend& backend_;
  const bool rv32_;
  const int decode_shift_;  // log2 of the decode table's slot stride
  Cache icache_;
  Cache dcache_;
  MmioHandlers mmio_;
  uint64_t decode_base_ = 0;
  std::vector<DecodedInstr> decode_table_;

  std::array<uint64_t, 32> regs_{};
  uint64_t pc_ = 0;
  HaltReason halt_ = HaltReason::kNone;
  int64_t exit_code_ = 0;
  // LR/SC reservation (single hart: invalidated only by SC).
  uint64_t reservation_addr_ = 0;
  bool reservation_valid_ = false;
};

}  // namespace eric::sim
