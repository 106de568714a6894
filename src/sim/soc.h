// SoC wrapper: memory map, devices, and program execution.
//
// Mirrors the evaluation platform's role (Table I): a Rocket-style core
// with 16 KiB 4-way L1 I/D caches running bare-metal programs at 25 MHz.
// Two MMIO devices are provided:
//   * console at kConsoleAddr — byte stores append to `console_output`
//   * exit    at kExitAddr    — a store halts the core with that code
// The core consults the device handlers only inside
// [kConsoleAddr, kExitAddr + 8); every other address is plain RAM.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "sim/cpu.h"
#include "sim/memory.h"

namespace eric::sim {

/// Platform memory map.
inline constexpr uint64_t kRamBase = 0x8000'0000;
inline constexpr uint64_t kStackTop = 0x8800'0000;  // 128 MiB of RAM
inline constexpr uint64_t kConsoleAddr = 0x1000'0000;
inline constexpr uint64_t kExitAddr = 0x1000'0008;

/// Clock frequency of the modeled FPGA build (Table I).
inline constexpr double kClockHz = 25e6;

/// A Rocket-like SoC instance.
class Soc {
 public:
  explicit Soc(const CpuTiming& timing = {},
               isa::IsaId isa = isa::IsaId::kRv64Gc);

  /// Copies a program image into RAM at `address` (default kRamBase).
  void LoadProgram(std::span<const uint8_t> image, uint64_t address = kRamBase);

  /// Runs from `entry` until halt; arguments a0/a1 land in x10/x11.
  ExecStats Run(uint64_t entry = kRamBase, uint64_t arg0 = 0,
                uint64_t arg1 = 0, const ExecLimits& limits = {});

  Memory& memory() { return memory_; }
  Cpu& cpu() { return cpu_; }
  const std::string& console_output() const { return console_output_; }
  void clear_console() { console_output_.clear(); }

  /// Seconds of wall-clock the modeled 25 MHz silicon would take.
  static double CyclesToSeconds(uint64_t cycles) {
    return static_cast<double>(cycles) / kClockHz;
  }

 private:
  Memory memory_;
  Cpu cpu_;
  std::string console_output_;
};

}  // namespace eric::sim
