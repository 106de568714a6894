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
///
/// Execution is block-at-a-time. On first entry to a pc inside the loaded
/// image the core decodes the straight-line run from there up to and
/// including the next jal, jalr or branch (or halting instruction) into
/// entries of pre-extracted operands, caches the block under that pc, and
/// runs it in a loop built separately for RV32 and RV64. Code outside the
/// image is decoded every time it executes. Modelled timing is exact:
/// every I-cache and D-cache access and every ExecStats count comes out
/// as if each instruction were fetched and decoded on its own.
///
/// Per-block charges: an instruction on the previous one's I-cache line
/// is a hit on its set's most recent line and needs no lookup. The work
/// that does not depend on data (instruction count, base-CPI cycles,
/// same-line hits and their cycles) is charged once on block entry, for
/// the entries the instruction limit lets run. A CSR cycle/instret read
/// subtracts the charge of the entries after it; an exit part-way (an
/// exit-device store, a write to cached code) takes that charge back.
///
/// Invalidation: a store, AMO or SC that writes into the span of cached
/// code drops every block and ends the running block after itself, so the
/// next instruction is decoded from the bytes as written. Reset and
/// SetImage drop every block too.
class Cpu {
 public:
  Cpu(Memory& memory, const CpuTiming& timing = {},
      isa::IsaId isa = isa::IsaId::kRv64Gc);

  /// Installs device handlers (optional).
  void set_mmio(MmioHandlers handlers) { mmio_ = std::move(handlers); }

  /// Resets architectural state (registers, pc, sp, the LR/SC
  /// reservation), the cache tags and the run's cache counters, and drops
  /// every cached block.
  void Reset(uint64_t entry_pc, uint64_t stack_pointer);

  /// Declares `bytes` of code at `base` (the loaded image) as cacheable
  /// in blocks. Code fetched outside it decodes every time.
  void SetImage(uint64_t base, uint64_t bytes);

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
  /// One pre-decoded instruction. `imm` is pre-extracted per operation:
  /// the value written for lui/auipc, the target for jal and branches,
  /// else the decoded immediate.
  struct Entry {
    isa::Op op = isa::Op::kInvalid;
    uint8_t rd = 0;
    uint8_t rs1 = 0;
    uint8_t rs2 = 0;
    uint8_t size = 4;    ///< bytes in the instruction stream (2 or 4)
    bool fetch = true;   ///< I-cache Access; false: a same-line hit
    /// Same-line hits (entries with `fetch` false) in its block up to and
    /// including this entry.
    uint8_t line_hits = 0;
    uint64_t imm = 0;
  };
  static_assert(sizeof(Entry) == 16);
  /// A run of `count` entries from entries_[first]; count 0: not decoded.
  struct Block {
    uint32_t first = 0;
    uint32_t count = 0;
  };

  template <bool kRv32>
  void Execute(uint64_t max_instructions, ExecStats& stats);

  /// The block starting at `pc`, decoding it on first entry. Outside the
  /// image it is a fresh one-entry block in entries_[0].
  Block BlockAt(uint64_t pc);
  /// Appends the block at `pc` to entries_; its count is 0 if not even
  /// the first instruction lies wholly inside the image.
  Block DecodeBlock(uint64_t pc);
  /// Fetches and decodes the instruction at `pc`.
  Entry DecodeAt(uint64_t pc, bool fetch) const;
  /// True if [addr, addr + size) overlaps cached code.
  bool WritesCode(uint64_t addr, uint64_t size) const {
    return addr < code_end_ && addr + size > code_begin_;
  }
  void DropBlocks();

  Memory& memory_;
  CpuTiming timing_;
  const isa::IsaBackend& backend_;
  const bool rv32_;
  const int slot_shift_;  // log2 of the block table's slot stride
  Cache icache_;
  Cache dcache_;
  MmioHandlers mmio_;

  // Block cache. blocks_ has one slot per instruction-alignment unit of
  // the image (2 bytes with the C extension, else 4); entries_[0] is the
  // scratch entry for code outside it. [code_begin_, code_end_) spans
  // every byte of cached code.
  uint64_t image_base_ = 0;
  uint64_t image_end_ = 0;
  std::vector<Block> blocks_;
  std::vector<Entry> entries_;
  uint64_t code_begin_ = ~uint64_t{0};
  uint64_t code_end_ = 0;

  std::array<uint64_t, 32> regs_{};
  uint64_t pc_ = 0;
  HaltReason halt_ = HaltReason::kNone;
  int64_t exit_code_ = 0;
  // LR/SC reservation (single hart: invalidated only by SC and Reset).
  uint64_t reservation_addr_ = 0;
  bool reservation_valid_ = false;
};

}  // namespace eric::sim
