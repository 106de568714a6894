#include "sim_reference.h"

#include <bit>
#include <cassert>

#include "isa/decoder.h"

namespace eric::sim {

using isa::Instr;
using isa::Op;

namespace {

uint64_t SignExtend32(uint64_t value) {
  return static_cast<uint64_t>(static_cast<int64_t>(
      static_cast<int32_t>(static_cast<uint32_t>(value))));
}

Instr DecodeWord(const isa::IsaBackend& backend, uint32_t word) {
  const auto half = static_cast<uint16_t>(word);
  return isa::IsWide(half) ? backend.Decode(word)
                           : backend.DecodeCompressed(half);
}

int LoadSize(Op op) {
  switch (op) {
    case Op::kLb: case Op::kLbu: return 1;
    case Op::kLh: case Op::kLhu: return 2;
    case Op::kLw: case Op::kLwu: return 4;
    default: return 8;  // ld
  }
}

int StoreSize(Op op) {
  switch (op) {
    case Op::kSb: return 1;
    case Op::kSh: return 2;
    case Op::kSw: return 4;
    default: return 8;  // sd
  }
}

uint64_t SignExtendLoad(uint64_t value, Op op) {
  switch (op) {
    case Op::kLb: return static_cast<uint64_t>(static_cast<int8_t>(value));
    case Op::kLh: return static_cast<uint64_t>(static_cast<int16_t>(value));
    case Op::kLw: return static_cast<uint64_t>(static_cast<int32_t>(value));
    default: return value;  // lbu/lhu/lwu/ld already zero-extended
  }
}

int64_t SignedMulHigh(int64_t a, int64_t b) {
  return static_cast<int64_t>(
      (static_cast<__int128>(a) * static_cast<__int128>(b)) >> 64);
}

uint64_t UnsignedMulHigh(uint64_t a, uint64_t b) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b)) >>
      64);
}

int64_t SignedUnsignedMulHigh(int64_t a, uint64_t b) {
  return static_cast<int64_t>(
      (static_cast<__int128>(a) * static_cast<__int128>(
                                      static_cast<unsigned __int128>(b))) >>
      64);
}

}  // namespace

ReferenceCache::ReferenceCache(const CacheConfig& config) : config_(config) {
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

uint32_t ReferenceCache::Lookup(uint64_t line_addr) {
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

void ReferenceCache::Flush() {
  for (Line& line : lines_) line.valid = false;
}

ReferenceCpu::ReferenceCpu(Memory& memory, const CpuTiming& timing,
                           isa::IsaId isa)
    : memory_(memory),
      timing_(timing),
      backend_(isa::BackendFor(isa)),
      rv32_(backend_.xlen() == 32),
      icache_(timing.icache),
      dcache_(timing.dcache) {}

void ReferenceCpu::Reset(uint64_t entry_pc, uint64_t stack_pointer) {
  regs_.fill(0);
  regs_[2] = rv32_ ? SignExtend32(stack_pointer) : stack_pointer;
  pc_ = rv32_ ? (entry_pc & 0xFFFFFFFF) : entry_pc;
  halt_ = HaltReason::kNone;
  exit_code_ = 0;
  reservation_addr_ = 0;
  reservation_valid_ = false;
  icache_.Flush();
  dcache_.Flush();
  icache_.ResetStats();
  dcache_.ResetStats();
}

bool ReferenceCpu::Step(ExecStats& stats) {
  // Fetch (I-cache), then decode the word at pc afresh.
  stats.cycles += icache_.Access(pc_);
  const Instr in = DecodeWord(backend_, static_cast<uint32_t>(memory_.Read(pc_, 4)));

  if (in.op == Op::kInvalid) {
    halt_ = HaltReason::kInvalidInstruction;
    return false;
  }

  ++stats.instructions;
  stats.cycles += 1;  // base CPI

  const uint64_t next_pc = pc_ + static_cast<uint64_t>(in.SizeBytes());
  uint64_t redirect = 0;
  bool redirected = false;

  auto rs1 = [&] { return regs_[in.rs1]; };
  auto rs2 = [&] { return regs_[in.rs2]; };
  // RV32 writebacks re-canonicalize to the sign-extended-32 invariant:
  // 64-bit arithmetic then truncation is exactly arithmetic mod 2^32, and
  // sign-extended operands preserve both signed and unsigned ordering, so
  // the comparison ops need no special casing.
  auto wb = [&](uint64_t value) {
    if (rv32_) value = SignExtend32(value);
    if (in.rd != 0) regs_[in.rd] = value;
  };
  // Effective data address (RV32: 32-bit address space).
  auto ea = [&](uint64_t addr) {
    return rv32_ ? (addr & 0xFFFFFFFF) : addr;
  };

  switch (in.op) {
    case Op::kLui: wb(static_cast<uint64_t>(in.imm << 12)); break;
    case Op::kAuipc: wb(pc_ + static_cast<uint64_t>(in.imm << 12)); break;
    case Op::kJal:
      wb(next_pc);
      redirect = pc_ + static_cast<uint64_t>(in.imm);
      redirected = true;
      break;
    case Op::kJalr: {
      const uint64_t target =
          (rs1() + static_cast<uint64_t>(in.imm)) & ~uint64_t{1};
      wb(next_pc);
      redirect = target;
      redirected = true;
      break;
    }
    case Op::kBeq: case Op::kBne: case Op::kBlt: case Op::kBge:
    case Op::kBltu: case Op::kBgeu: {
      ++stats.branches;
      bool taken = false;
      switch (in.op) {
        case Op::kBeq: taken = rs1() == rs2(); break;
        case Op::kBne: taken = rs1() != rs2(); break;
        case Op::kBlt:
          taken = static_cast<int64_t>(rs1()) < static_cast<int64_t>(rs2());
          break;
        case Op::kBge:
          taken = static_cast<int64_t>(rs1()) >= static_cast<int64_t>(rs2());
          break;
        case Op::kBltu: taken = rs1() < rs2(); break;
        default: taken = rs1() >= rs2(); break;
      }
      if (taken) {
        ++stats.taken_branches;
        redirect = pc_ + static_cast<uint64_t>(in.imm);
        redirected = true;
      }
      break;
    }

    case Op::kLb: case Op::kLh: case Op::kLw: case Op::kLd:
    case Op::kLbu: case Op::kLhu: case Op::kLwu: {
      ++stats.loads;
      const uint64_t addr = ea(rs1() + static_cast<uint64_t>(in.imm));
      const int size = LoadSize(in.op);
      uint64_t value = 0;
      if (mmio_.Covers(addr) && mmio_.load &&
          mmio_.load(addr, &value, size)) {
        // Device access: uncached, constant latency.
        stats.cycles += timing_.dcache.miss_cycles;
      } else {
        stats.cycles += dcache_.Access(addr);
        value = memory_.Read(addr, size);
      }
      wb(SignExtendLoad(value, in.op));
      break;
    }
    case Op::kSb: case Op::kSh: case Op::kSw: case Op::kSd: {
      ++stats.stores;
      const uint64_t addr = ea(rs1() + static_cast<uint64_t>(in.imm));
      const int size = StoreSize(in.op);
      if (mmio_.Covers(addr) && mmio_.store &&
          mmio_.store(addr, rs2(), size)) {
        stats.cycles += timing_.dcache.miss_cycles;
        if (halt_ != HaltReason::kNone) return false;  // exit device
      } else {
        stats.cycles += dcache_.Access(addr);
        memory_.Write(addr, rs2(), size);
      }
      break;
    }

    case Op::kAddi: wb(rs1() + static_cast<uint64_t>(in.imm)); break;
    case Op::kSlti:
      wb(static_cast<int64_t>(rs1()) < in.imm ? 1 : 0);
      break;
    case Op::kSltiu: wb(rs1() < static_cast<uint64_t>(in.imm) ? 1 : 0); break;
    case Op::kXori: wb(rs1() ^ static_cast<uint64_t>(in.imm)); break;
    case Op::kOri: wb(rs1() | static_cast<uint64_t>(in.imm)); break;
    case Op::kAndi: wb(rs1() & static_cast<uint64_t>(in.imm)); break;
    // Shifts are the one ALU family where 64-bit arithmetic plus
    // truncation is NOT mod-2^32 correct (bits shift in from above), so
    // RV32 takes explicit 32-bit paths with 5-bit shift amounts.
    case Op::kSlli:
      if (rv32_) {
        wb(static_cast<uint64_t>(static_cast<uint32_t>(rs1())
                                 << (in.imm & 31)));
      } else {
        wb(rs1() << (in.imm & 63));
      }
      break;
    case Op::kSrli:
      if (rv32_) {
        wb(static_cast<uint64_t>(static_cast<uint32_t>(rs1()) >>
                                 (in.imm & 31)));
      } else {
        wb(rs1() >> (in.imm & 63));
      }
      break;
    case Op::kSrai:
      if (rv32_) {
        wb(static_cast<uint64_t>(
            static_cast<int32_t>(static_cast<uint32_t>(rs1())) >>
            (in.imm & 31)));
      } else {
        wb(static_cast<uint64_t>(static_cast<int64_t>(rs1()) >>
                                 (in.imm & 63)));
      }
      break;

    case Op::kAdd: wb(rs1() + rs2()); break;
    case Op::kSub: wb(rs1() - rs2()); break;
    case Op::kSll:
      if (rv32_) {
        wb(static_cast<uint64_t>(static_cast<uint32_t>(rs1())
                                 << (rs2() & 31)));
      } else {
        wb(rs1() << (rs2() & 63));
      }
      break;
    case Op::kSlt:
      wb(static_cast<int64_t>(rs1()) < static_cast<int64_t>(rs2()) ? 1 : 0);
      break;
    case Op::kSltu: wb(rs1() < rs2() ? 1 : 0); break;
    case Op::kXor: wb(rs1() ^ rs2()); break;
    case Op::kSrl:
      if (rv32_) {
        wb(static_cast<uint64_t>(static_cast<uint32_t>(rs1()) >>
                                 (rs2() & 31)));
      } else {
        wb(rs1() >> (rs2() & 63));
      }
      break;
    case Op::kSra:
      if (rv32_) {
        wb(static_cast<uint64_t>(
            static_cast<int32_t>(static_cast<uint32_t>(rs1())) >>
            (rs2() & 31)));
      } else {
        wb(static_cast<uint64_t>(static_cast<int64_t>(rs1()) >>
                                 (rs2() & 63)));
      }
      break;
    case Op::kOr: wb(rs1() | rs2()); break;
    case Op::kAnd: wb(rs1() & rs2()); break;

    case Op::kAddiw:
      wb(static_cast<uint64_t>(static_cast<int32_t>(
          static_cast<uint32_t>(rs1()) + static_cast<uint32_t>(in.imm))));
      break;
    case Op::kSlliw:
      wb(static_cast<uint64_t>(static_cast<int32_t>(
          static_cast<uint32_t>(rs1()) << (in.imm & 31))));
      break;
    case Op::kSrliw:
      wb(static_cast<uint64_t>(static_cast<int32_t>(
          static_cast<uint32_t>(rs1()) >> (in.imm & 31))));
      break;
    case Op::kSraiw:
      wb(static_cast<uint64_t>(
          static_cast<int32_t>(rs1()) >> (in.imm & 31)));
      break;
    case Op::kAddw:
      wb(static_cast<uint64_t>(static_cast<int32_t>(
          static_cast<uint32_t>(rs1()) + static_cast<uint32_t>(rs2()))));
      break;
    case Op::kSubw:
      wb(static_cast<uint64_t>(static_cast<int32_t>(
          static_cast<uint32_t>(rs1()) - static_cast<uint32_t>(rs2()))));
      break;
    case Op::kSllw:
      wb(static_cast<uint64_t>(static_cast<int32_t>(
          static_cast<uint32_t>(rs1()) << (rs2() & 31))));
      break;
    case Op::kSrlw:
      wb(static_cast<uint64_t>(static_cast<int32_t>(
          static_cast<uint32_t>(rs1()) >> (rs2() & 31))));
      break;
    case Op::kSraw:
      wb(static_cast<uint64_t>(
          static_cast<int32_t>(rs1()) >> (rs2() & 31)));
      break;

    case Op::kMul:
      stats.cycles += timing_.mul_extra_cycles;
      wb(rs1() * rs2());
      break;
    case Op::kMulh:
      stats.cycles += timing_.mul_extra_cycles;
      wb(static_cast<uint64_t>(SignedMulHigh(static_cast<int64_t>(rs1()),
                                             static_cast<int64_t>(rs2()))));
      break;
    case Op::kMulhsu:
      stats.cycles += timing_.mul_extra_cycles;
      wb(static_cast<uint64_t>(
          SignedUnsignedMulHigh(static_cast<int64_t>(rs1()), rs2())));
      break;
    case Op::kMulhu:
      stats.cycles += timing_.mul_extra_cycles;
      wb(UnsignedMulHigh(rs1(), rs2()));
      break;
    case Op::kDiv: {
      stats.cycles += timing_.div_extra_cycles;
      const int64_t a = static_cast<int64_t>(rs1());
      const int64_t b = static_cast<int64_t>(rs2());
      if (b == 0) {
        wb(~uint64_t{0});
      } else if (a == INT64_MIN && b == -1) {
        wb(static_cast<uint64_t>(a));
      } else {
        wb(static_cast<uint64_t>(a / b));
      }
      break;
    }
    case Op::kDivu:
      stats.cycles += timing_.div_extra_cycles;
      wb(rs2() == 0 ? ~uint64_t{0} : rs1() / rs2());
      break;
    case Op::kRem: {
      stats.cycles += timing_.div_extra_cycles;
      const int64_t a = static_cast<int64_t>(rs1());
      const int64_t b = static_cast<int64_t>(rs2());
      if (b == 0) {
        wb(static_cast<uint64_t>(a));
      } else if (a == INT64_MIN && b == -1) {
        wb(0);
      } else {
        wb(static_cast<uint64_t>(a % b));
      }
      break;
    }
    case Op::kRemu:
      stats.cycles += timing_.div_extra_cycles;
      wb(rs2() == 0 ? rs1() : rs1() % rs2());
      break;
    case Op::kMulw:
      stats.cycles += timing_.mul_extra_cycles;
      wb(static_cast<uint64_t>(static_cast<int32_t>(
          static_cast<uint32_t>(rs1()) * static_cast<uint32_t>(rs2()))));
      break;
    case Op::kDivw: {
      stats.cycles += timing_.div_extra_cycles;
      const int32_t a = static_cast<int32_t>(rs1());
      const int32_t b = static_cast<int32_t>(rs2());
      int32_t r;
      if (b == 0) {
        r = -1;
      } else if (a == INT32_MIN && b == -1) {
        r = a;
      } else {
        r = a / b;
      }
      wb(static_cast<uint64_t>(static_cast<int64_t>(r)));
      break;
    }
    case Op::kDivuw: {
      stats.cycles += timing_.div_extra_cycles;
      const uint32_t a = static_cast<uint32_t>(rs1());
      const uint32_t b = static_cast<uint32_t>(rs2());
      const uint32_t r = (b == 0) ? ~uint32_t{0} : a / b;
      wb(static_cast<uint64_t>(static_cast<int64_t>(static_cast<int32_t>(r))));
      break;
    }
    case Op::kRemw: {
      stats.cycles += timing_.div_extra_cycles;
      const int32_t a = static_cast<int32_t>(rs1());
      const int32_t b = static_cast<int32_t>(rs2());
      int32_t r;
      if (b == 0) {
        r = a;
      } else if (a == INT32_MIN && b == -1) {
        r = 0;
      } else {
        r = a % b;
      }
      wb(static_cast<uint64_t>(static_cast<int64_t>(r)));
      break;
    }
    case Op::kRemuw: {
      stats.cycles += timing_.div_extra_cycles;
      const uint32_t a = static_cast<uint32_t>(rs1());
      const uint32_t b = static_cast<uint32_t>(rs2());
      const uint32_t r = (b == 0) ? a : a % b;
      wb(static_cast<uint64_t>(static_cast<int64_t>(static_cast<int32_t>(r))));
      break;
    }

    case Op::kLrW:
    case Op::kLrD: {
      ++stats.loads;
      const uint64_t addr = rs1();
      stats.cycles += dcache_.Access(addr);
      const int size = (in.op == Op::kLrW) ? 4 : 8;
      uint64_t value = memory_.Read(addr, size);
      if (in.op == Op::kLrW) {
        value = static_cast<uint64_t>(static_cast<int32_t>(value));
      }
      wb(value);
      reservation_addr_ = addr;
      reservation_valid_ = true;
      break;
    }
    case Op::kScW:
    case Op::kScD: {
      ++stats.stores;
      const uint64_t addr = rs1();
      stats.cycles += dcache_.Access(addr);
      if (reservation_valid_ && reservation_addr_ == addr) {
        memory_.Write(addr, rs2(), in.op == Op::kScW ? 4 : 8);
        wb(0);  // success
      } else {
        wb(1);  // failure
      }
      reservation_valid_ = false;
      break;
    }
    case Op::kAmoSwapW: case Op::kAmoAddW: case Op::kAmoXorW:
    case Op::kAmoAndW: case Op::kAmoOrW: case Op::kAmoMinW:
    case Op::kAmoMaxW: case Op::kAmoMinuW: case Op::kAmoMaxuW:
    case Op::kAmoSwapD: case Op::kAmoAddD: case Op::kAmoXorD:
    case Op::kAmoAndD: case Op::kAmoOrD: case Op::kAmoMinD:
    case Op::kAmoMaxD: case Op::kAmoMinuD: case Op::kAmoMaxuD: {
      ++stats.loads;
      ++stats.stores;
      const uint64_t addr = rs1();
      stats.cycles += dcache_.Access(addr) + 1;  // read-modify-write beat
      const bool is_w =
          in.op >= Op::kAmoSwapW && in.op <= Op::kAmoMaxuW;
      const int size = is_w ? 4 : 8;
      uint64_t old_raw = memory_.Read(addr, size);
      if (is_w) {
        old_raw = static_cast<uint64_t>(static_cast<int32_t>(old_raw));
      }
      const uint64_t src = rs2();
      const int64_t old_s = static_cast<int64_t>(old_raw);
      const int64_t src_s = static_cast<int64_t>(
          is_w ? static_cast<uint64_t>(static_cast<int32_t>(src)) : src);
      uint64_t result = 0;
      switch (in.op) {
        case Op::kAmoSwapW: case Op::kAmoSwapD: result = src; break;
        case Op::kAmoAddW: case Op::kAmoAddD: result = old_raw + src; break;
        case Op::kAmoXorW: case Op::kAmoXorD: result = old_raw ^ src; break;
        case Op::kAmoAndW: case Op::kAmoAndD: result = old_raw & src; break;
        case Op::kAmoOrW: case Op::kAmoOrD: result = old_raw | src; break;
        case Op::kAmoMinW: case Op::kAmoMinD:
          result = old_s < src_s ? old_raw : src;
          break;
        case Op::kAmoMaxW: case Op::kAmoMaxD:
          result = old_s > src_s ? old_raw : src;
          break;
        case Op::kAmoMinuW:
          result = static_cast<uint32_t>(old_raw) <
                           static_cast<uint32_t>(src)
                       ? old_raw
                       : src;
          break;
        case Op::kAmoMinuD: result = old_raw < src ? old_raw : src; break;
        case Op::kAmoMaxuW:
          result = static_cast<uint32_t>(old_raw) >
                           static_cast<uint32_t>(src)
                       ? old_raw
                       : src;
          break;
        case Op::kAmoMaxuD: result = old_raw > src ? old_raw : src; break;
        default: break;
      }
      memory_.Write(addr, result, size);
      wb(old_raw);
      break;
    }

    case Op::kFence: break;  // single hart: no-op
    case Op::kEcall:
      // Convention: a7=93 is exit(a0) (Linux-like); any other ecall also
      // halts — the bare-metal workloads only use exit.
      halt_ = HaltReason::kExit;
      exit_code_ = static_cast<int64_t>(regs_[10]);
      return false;
    case Op::kEbreak:
      halt_ = HaltReason::kEbreak;
      return false;

    case Op::kCsrrw: case Op::kCsrrs: case Op::kCsrrc:
    case Op::kCsrrwi: case Op::kCsrrsi: case Op::kCsrrci: {
      // Minimal CSR file: cycle (0xC00) and instret (0xC02) reads; writes
      // are ignored (machine-mode configuration is out of scope). instret
      // counts *retired* instructions, which excludes the reader itself.
      uint64_t value = 0;
      if (in.imm == 0xC00) value = stats.cycles;
      if (in.imm == 0xC02) value = stats.instructions - 1;
      wb(value);
      break;
    }

    case Op::kInvalid:
      halt_ = HaltReason::kInvalidInstruction;
      return false;
  }

  if (redirected) {
    stats.cycles += timing_.taken_branch_penalty;
    // RV32: jalr targets come from sign-extended registers; masking
    // recovers the true 32-bit address.
    pc_ = rv32_ ? (redirect & 0xFFFFFFFF) : redirect;
  } else {
    pc_ = next_pc;
  }
  return true;
}

ExecStats ReferenceCpu::Run(const ExecLimits& limits) {
  ExecStats stats;
  while (stats.instructions < limits.max_instructions) {
    if (!Step(stats)) break;
  }
  if (halt_ == HaltReason::kNone) halt_ = HaltReason::kInstructionLimit;
  stats.halt_reason = halt_;
  stats.exit_code = exit_code_;
  stats.final_pc = pc_;
  stats.icache = icache_.stats();
  stats.dcache = dcache_.stats();
  return stats;
}

ReferenceSoc::ReferenceSoc(const CpuTiming& timing, isa::IsaId isa)
    : cpu_(memory_, timing, isa) {
  MmioHandlers handlers;
  handlers.store = [this](uint64_t addr, uint64_t value, int) {
    if (addr == kConsoleAddr) {
      console_output_.push_back(static_cast<char>(value & 0xFF));
      return true;
    }
    if (addr == kExitAddr) {
      cpu_.RequestExit(static_cast<int64_t>(value));
      return true;
    }
    return false;
  };
  handlers.load = [](uint64_t addr, uint64_t* value, int) {
    if (addr == kConsoleAddr || addr == kExitAddr) {
      *value = 0;
      return true;
    }
    return false;
  };
  handlers.first = kConsoleAddr;
  handlers.last = kExitAddr + 7;
  cpu_.set_mmio(std::move(handlers));
}

void ReferenceSoc::LoadProgram(std::span<const uint8_t> image,
                               uint64_t address) {
  memory_.WriteBlock(address, image);
}

ExecStats ReferenceSoc::Run(uint64_t entry, uint64_t arg0, uint64_t arg1,
                            const ExecLimits& limits) {
  cpu_.Reset(entry, kStackTop);
  cpu_.set_reg(10, arg0);
  cpu_.set_reg(11, arg1);
  return cpu_.Run(limits);
}

}  // namespace eric::sim
