#include "sim/cpu.h"

#include <algorithm>

namespace eric::sim {

using isa::Instr;
using isa::Op;

namespace {

/// Canonical RV32 register value: the low 32 bits sign-extended to 64.
inline uint64_t SignExtend32(uint64_t value) {
  return static_cast<uint64_t>(static_cast<int64_t>(
      static_cast<int32_t>(static_cast<uint32_t>(value))));
}

/// The instruction ends its block: control transfers and halts.
bool EndsBlock(Op op) {
  switch (op) {
    case Op::kJal: case Op::kJalr:
    case Op::kBeq: case Op::kBne: case Op::kBlt: case Op::kBge:
    case Op::kBltu: case Op::kBgeu:
    case Op::kEcall: case Op::kEbreak: case Op::kInvalid:
      return true;
    default:
      return false;
  }
}

/// Longest block decoded at once; a longer straight-line run continues
/// in the next block.
constexpr uint32_t kMaxBlockEntries = 64;

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

Cpu::Cpu(Memory& memory, const CpuTiming& timing, isa::IsaId isa)
    : memory_(memory),
      timing_(timing),
      backend_(isa::BackendFor(isa)),
      rv32_(backend_.xlen() == 32),
      slot_shift_(backend_.supports_compressed() ? 1 : 2),
      icache_(timing.icache),
      dcache_(timing.dcache),
      entries_(1) {}

void Cpu::Reset(uint64_t entry_pc, uint64_t stack_pointer) {
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
  DropBlocks();
}

void Cpu::SetImage(uint64_t base, uint64_t bytes) {
  image_base_ = base;
  image_end_ = base + bytes;
  const uint64_t stride = uint64_t{1} << slot_shift_;
  blocks_.assign((bytes + stride - 1) >> slot_shift_, Block{});
  DropBlocks();
}

void Cpu::DropBlocks() {
  std::fill(blocks_.begin(), blocks_.end(), Block{});
  entries_.resize(1);
  code_begin_ = ~uint64_t{0};
  code_end_ = 0;
}

Cpu::Entry Cpu::DecodeAt(uint64_t pc, bool fetch) const {
  const auto word = static_cast<uint32_t>(memory_.Read(pc, 4));
  const auto half = static_cast<uint16_t>(word);
  // On ISAs without the C extension DecodeCompressed yields kInvalid: a
  // compressed encoding halts the core instead of executing as something
  // else.
  const Instr in = isa::IsWide(half) ? backend_.Decode(word)
                                     : backend_.DecodeCompressed(half);
  Entry e;
  e.op = in.op;
  e.rd = in.rd;
  e.rs1 = in.rs1;
  e.rs2 = in.rs2;
  e.size = static_cast<uint8_t>(in.SizeBytes());
  e.fetch = fetch;
  e.imm = static_cast<uint64_t>(in.imm);
  // RV32: redirect targets are 32-bit addresses.
  const uint64_t pc_mask = rv32_ ? 0xFFFFFFFF : ~uint64_t{0};
  switch (in.op) {
    case Op::kLui: case Op::kAuipc:
      e.imm = (in.op == Op::kAuipc ? pc : 0) +
              static_cast<uint64_t>(in.imm << 12);
      break;
    case Op::kJal:
    case Op::kBeq: case Op::kBne: case Op::kBlt: case Op::kBge:
    case Op::kBltu: case Op::kBgeu:
      e.imm = (pc + static_cast<uint64_t>(in.imm)) & pc_mask;
      break;
    default:
      break;
  }
  return e;
}

Cpu::Block Cpu::DecodeBlock(uint64_t pc) {
  const auto first = static_cast<uint32_t>(entries_.size());
  const uint64_t line_bytes = icache_.config().line_bytes;
  uint64_t at = pc;
  uint64_t prev_line = ~uint64_t{0};
  uint32_t count = 0;
  uint8_t line_hits = 0;
  while (count < kMaxBlockEntries) {
    // An instruction on the previous one's I-cache line is a same-line
    // hit: nothing can touch the I-cache between the two fetches.
    const uint64_t line = at / line_bytes;
    Entry e = DecodeAt(at, /*fetch=*/count == 0 || line != prev_line);
    prev_line = line;
    line_hits += e.fetch ? 0 : 1;
    e.line_hits = line_hits;
    // Only instructions wholly inside the image are cached: a store
    // outside it never changes a cached block.
    if (at + e.size > image_end_) break;
    entries_.push_back(e);
    ++count;
    at += e.size;
    if (EndsBlock(e.op)) break;
  }
  if (count != 0) {
    code_begin_ = std::min(code_begin_, pc);
    code_end_ = std::max(code_end_, at);
  }
  return Block{first, count};
}

inline Cpu::Block Cpu::BlockAt(uint64_t pc) {
  const uint64_t offset = pc - image_base_;
  const uint64_t slot = offset >> slot_shift_;
  const uint64_t misaligned = offset & ((uint64_t{1} << slot_shift_) - 1);
  if (slot < blocks_.size() && misaligned == 0) {
    Block& block = blocks_[slot];
    if (block.count == 0) block = DecodeBlock(pc);
    if (block.count != 0) return block;
  }
  entries_[0] = DecodeAt(pc, /*fetch=*/true);
  return Block{0, 1};
}

template <bool kRv32>
void Cpu::Execute(uint64_t max_instructions, ExecStats& stats) {
  uint64_t* const x = regs_.data();
  const uint64_t fetch_hit_cycles = icache_.config().hit_cycles;
  const uint64_t device_cycles = timing_.dcache.miss_cycles;
  const uint64_t mul_cycles = timing_.mul_extra_cycles;
  const uint64_t div_cycles = timing_.div_extra_cycles;
  const uint64_t redirect_cycles = timing_.taken_branch_penalty;
  uint64_t instructions = 0, cycles = 0, loads = 0, stores = 0;
  uint64_t branches = 0, taken_branches = 0;
  // Same-line I-cache hits charged so far; they join icache_'s count when
  // the run stops.
  uint64_t line_hits = 0;
  // Set when a store to the exit device halted the core.
  bool device_halt = false;
  uint64_t pc = pc_;

  while (instructions < max_instructions) {
    const Block block = BlockAt(pc);
    const Entry* e = entries_.data() + block.first;
    const Entry* const last =
        e + std::min<uint64_t>(block.count, max_instructions - instructions) -
        1;
    // The static work of every entry through `last` (its count, its base
    // CPI cycle and, for a same-line fetch, the hit) is charged up front.
    // Whatever reads the counters mid-block subtracts the charge of the
    // entries after `e`: later() of them, later_hits() of them same-line.
    const auto later = [&] { return static_cast<uint64_t>(last - e); };
    const auto later_hits = [&] {
      return static_cast<uint64_t>(last->line_hits - e->line_hits);
    };
    const auto later_cycles = [&] {
      return later() + later_hits() * fetch_hit_cycles;
    };
    instructions += later() + 1;
    cycles += later_cycles() + 1;
    line_hits += later_hits();
    for (; e <= last; ++e) {
      if (e->fetch) cycles += icache_.Access(pc);
      uint64_t next = pc + e->size;

      const uint64_t rs1 = x[e->rs1];
      const uint64_t rs2 = x[e->rs2];
      // RV32 writebacks re-canonicalize to the sign-extended-32
      // invariant: 64-bit arithmetic then truncation is exactly
      // arithmetic mod 2^32, and sign-extended operands preserve both
      // signed and unsigned ordering, so the comparison ops need no
      // special casing. x0 is re-zeroed instead of tested.
      const auto set = [&](uint64_t value) {
        x[e->rd] = kRv32 ? SignExtend32(value) : value;
        x[0] = 0;
      };
      // Effective data address (RV32: 32-bit address space).
      const auto ea = [&](uint64_t addr) {
        return kRv32 ? (addr & 0xFFFFFFFF) : addr;
      };
      // The helpers that update counters are forced inline: an
      // out-of-line call would pin the counters to memory.
      const auto load = [&](int size) __attribute__((always_inline)) {
        ++loads;
        const uint64_t addr = ea(rs1 + e->imm);
        uint64_t value = 0;
        if (mmio_.Covers(addr) && mmio_.load &&
            mmio_.load(addr, &value, size)) {
          cycles += device_cycles;  // device access: uncached
        } else {
          cycles += dcache_.Access(addr);
          value = memory_.Read(addr, size);
        }
        return value;
      };
      // Returns true when the block must end after this store: the exit
      // device halted the core, or the store rewrote cached code.
      const auto store = [&](int size) __attribute__((always_inline)) {
        ++stores;
        const uint64_t addr = ea(rs1 + e->imm);
        if (mmio_.Covers(addr) && mmio_.store &&
            mmio_.store(addr, rs2, size)) {
          cycles += device_cycles;
          device_halt = halt_ != HaltReason::kNone;
          return device_halt;
        }
        cycles += dcache_.Access(addr);
        memory_.Write(addr, rs2, size);
        return WritesCode(addr, static_cast<uint64_t>(size));
      };
      const auto branch = [&](bool taken) __attribute__((always_inline)) {
        ++branches;
        if (taken) {
          ++taken_branches;
          cycles += redirect_cycles;
          next = e->imm;
        }
      };
      // Read-modify-write of `size` bytes at rs1: writes back the low
      // bytes of `op(old, src)` and returns `old` in rd. For words both
      // operands are sign-extended 32-bit values, which keeps signed and
      // unsigned ordering, so one `op` serves both widths. Returns true
      // if it rewrote cached code.
      const auto amo = [&](int size, auto op) __attribute__((always_inline)) {
        ++loads;
        ++stores;
        const uint64_t addr = rs1;
        cycles += dcache_.Access(addr) + 1;  // read-modify-write beat
        uint64_t old = memory_.Read(addr, size);
        uint64_t src = rs2;
        if (size == 4) {
          old = static_cast<uint64_t>(static_cast<int32_t>(old));
          src = static_cast<uint64_t>(static_cast<int32_t>(src));
        }
        memory_.Write(addr, op(old, src), size);
        set(old);
        return WritesCode(addr, static_cast<uint64_t>(size));
      };
      const auto swap = [](uint64_t, uint64_t src) { return src; };
      const auto add = [](uint64_t a, uint64_t b) { return a + b; };
      const auto bit_xor = [](uint64_t a, uint64_t b) { return a ^ b; };
      const auto bit_and = [](uint64_t a, uint64_t b) { return a & b; };
      const auto bit_or = [](uint64_t a, uint64_t b) { return a | b; };
      const auto min = [](uint64_t a, uint64_t b) {
        return static_cast<int64_t>(a) < static_cast<int64_t>(b) ? a : b;
      };
      const auto max = [](uint64_t a, uint64_t b) {
        return static_cast<int64_t>(a) > static_cast<int64_t>(b) ? a : b;
      };
      const auto minu = [](uint64_t a, uint64_t b) { return a < b ? a : b; };
      const auto maxu = [](uint64_t a, uint64_t b) { return a > b ? a : b; };
      const auto sc = [&](int size) __attribute__((always_inline)) {
        ++stores;
        const uint64_t addr = rs1;
        cycles += dcache_.Access(addr);
        const bool success = reservation_valid_ && reservation_addr_ == addr;
        reservation_valid_ = false;
        set(success ? 0 : 1);
        if (!success) return false;
        memory_.Write(addr, rs2, size);
        return WritesCode(addr, static_cast<uint64_t>(size));
      };
      const auto lr = [&](int size) __attribute__((always_inline)) {
        ++loads;
        const uint64_t addr = rs1;
        cycles += dcache_.Access(addr);
        uint64_t value = memory_.Read(addr, size);
        if (size == 4) value = static_cast<uint64_t>(static_cast<int32_t>(value));
        set(value);
        reservation_addr_ = addr;
        reservation_valid_ = true;
      };
      // 32-bit shifts: the one ALU family where 64-bit arithmetic plus
      // truncation is NOT mod-2^32 correct (bits shift in from above).
      const auto sll32 = [](uint64_t a, uint64_t n) {
        return static_cast<uint64_t>(static_cast<int32_t>(
            static_cast<uint32_t>(a) << (n & 31)));
      };
      const auto srl32 = [](uint64_t a, uint64_t n) {
        return static_cast<uint64_t>(static_cast<int32_t>(
            static_cast<uint32_t>(a) >> (n & 31)));
      };
      const auto sra32 = [](uint64_t a, uint64_t n) {
        return static_cast<uint64_t>(static_cast<int32_t>(a) >> (n & 31));
      };
      const auto sll = [&](uint64_t a, uint64_t n) {
        return kRv32 ? sll32(a, n) : a << (n & 63);
      };
      const auto srl = [&](uint64_t a, uint64_t n) {
        return kRv32 ? srl32(a, n) : a >> (n & 63);
      };
      const auto sra = [&](uint64_t a, uint64_t n) {
        return kRv32 ? sra32(a, n)
                     : static_cast<uint64_t>(static_cast<int64_t>(a) >>
                                             (n & 63));
      };
      // Sign-extends the low 32 bits (RV64 W-form results).
      const auto w = [](uint64_t value) {
        return static_cast<uint64_t>(static_cast<int32_t>(value));
      };
      const int64_t srs1 = static_cast<int64_t>(rs1);
      const int64_t srs2 = static_cast<int64_t>(rs2);

      switch (e->op) {
        case Op::kLui: case Op::kAuipc: set(e->imm); break;
        case Op::kJal:
          set(next);
          next = e->imm;
          cycles += redirect_cycles;
          break;
        case Op::kJalr: {
          // RV32: jalr targets come from sign-extended registers; masking
          // recovers the true 32-bit address.
          const uint64_t target = ea((rs1 + e->imm) & ~uint64_t{1});
          set(next);
          next = target;
          cycles += redirect_cycles;
          break;
        }
        case Op::kBeq: branch(rs1 == rs2); break;
        case Op::kBne: branch(rs1 != rs2); break;
        case Op::kBlt: branch(srs1 < srs2); break;
        case Op::kBge: branch(srs1 >= srs2); break;
        case Op::kBltu: branch(rs1 < rs2); break;
        case Op::kBgeu: branch(rs1 >= rs2); break;

        case Op::kLb: set(static_cast<uint64_t>(static_cast<int8_t>(load(1)))); break;
        case Op::kLh: set(static_cast<uint64_t>(static_cast<int16_t>(load(2)))); break;
        case Op::kLw: set(w(load(4))); break;
        case Op::kLd: set(load(8)); break;
        case Op::kLbu: set(load(1)); break;
        case Op::kLhu: set(load(2)); break;
        case Op::kLwu: set(load(4)); break;
        case Op::kSb: if (store(1)) goto leave; break;
        case Op::kSh: if (store(2)) goto leave; break;
        case Op::kSw: if (store(4)) goto leave; break;
        case Op::kSd: if (store(8)) goto leave; break;

        case Op::kAddi: set(rs1 + e->imm); break;
        case Op::kSlti: set(srs1 < static_cast<int64_t>(e->imm) ? 1 : 0); break;
        case Op::kSltiu: set(rs1 < e->imm ? 1 : 0); break;
        case Op::kXori: set(rs1 ^ e->imm); break;
        case Op::kOri: set(rs1 | e->imm); break;
        case Op::kAndi: set(rs1 & e->imm); break;
        case Op::kSlli: set(sll(rs1, e->imm)); break;
        case Op::kSrli: set(srl(rs1, e->imm)); break;
        case Op::kSrai: set(sra(rs1, e->imm)); break;

        case Op::kAdd: set(rs1 + rs2); break;
        case Op::kSub: set(rs1 - rs2); break;
        case Op::kSll: set(sll(rs1, rs2)); break;
        case Op::kSlt: set(srs1 < srs2 ? 1 : 0); break;
        case Op::kSltu: set(rs1 < rs2 ? 1 : 0); break;
        case Op::kXor: set(rs1 ^ rs2); break;
        case Op::kSrl: set(srl(rs1, rs2)); break;
        case Op::kSra: set(sra(rs1, rs2)); break;
        case Op::kOr: set(rs1 | rs2); break;
        case Op::kAnd: set(rs1 & rs2); break;

        case Op::kAddiw: set(w(rs1 + e->imm)); break;
        case Op::kSlliw: set(sll32(rs1, e->imm)); break;
        case Op::kSrliw: set(srl32(rs1, e->imm)); break;
        case Op::kSraiw: set(sra32(rs1, e->imm)); break;
        case Op::kAddw: set(w(rs1 + rs2)); break;
        case Op::kSubw: set(w(rs1 - rs2)); break;
        case Op::kSllw: set(sll32(rs1, rs2)); break;
        case Op::kSrlw: set(srl32(rs1, rs2)); break;
        case Op::kSraw: set(sra32(rs1, rs2)); break;

        case Op::kMul: cycles += mul_cycles; set(rs1 * rs2); break;
        case Op::kMulh:
          cycles += mul_cycles;
          set(static_cast<uint64_t>(SignedMulHigh(srs1, srs2)));
          break;
        case Op::kMulhsu:
          cycles += mul_cycles;
          set(static_cast<uint64_t>(SignedUnsignedMulHigh(srs1, rs2)));
          break;
        case Op::kMulhu: cycles += mul_cycles; set(UnsignedMulHigh(rs1, rs2)); break;
        case Op::kDiv:
          cycles += div_cycles;
          set(srs2 == 0 ? ~uint64_t{0}
              : (srs1 == INT64_MIN && srs2 == -1)
                  ? rs1
                  : static_cast<uint64_t>(srs1 / srs2));
          break;
        case Op::kDivu:
          cycles += div_cycles;
          set(rs2 == 0 ? ~uint64_t{0} : rs1 / rs2);
          break;
        case Op::kRem:
          cycles += div_cycles;
          set(srs2 == 0 ? rs1
              : (srs1 == INT64_MIN && srs2 == -1)
                  ? 0
                  : static_cast<uint64_t>(srs1 % srs2));
          break;
        case Op::kRemu:
          cycles += div_cycles;
          set(rs2 == 0 ? rs1 : rs1 % rs2);
          break;
        case Op::kMulw: cycles += mul_cycles; set(w(rs1 * rs2)); break;
        case Op::kDivw: {
          cycles += div_cycles;
          const auto a = static_cast<int32_t>(rs1);
          const auto b = static_cast<int32_t>(rs2);
          set(w(static_cast<uint64_t>(
              b == 0 ? -1 : (a == INT32_MIN && b == -1) ? a : a / b)));
          break;
        }
        case Op::kDivuw: {
          cycles += div_cycles;
          const auto a = static_cast<uint32_t>(rs1);
          const auto b = static_cast<uint32_t>(rs2);
          set(w(b == 0 ? ~uint32_t{0} : a / b));
          break;
        }
        case Op::kRemw: {
          cycles += div_cycles;
          const auto a = static_cast<int32_t>(rs1);
          const auto b = static_cast<int32_t>(rs2);
          set(w(static_cast<uint64_t>(
              b == 0 ? a : (a == INT32_MIN && b == -1) ? 0 : a % b)));
          break;
        }
        case Op::kRemuw: {
          cycles += div_cycles;
          const auto a = static_cast<uint32_t>(rs1);
          const auto b = static_cast<uint32_t>(rs2);
          set(w(b == 0 ? a : a % b));
          break;
        }

        case Op::kLrW: lr(4); break;
        case Op::kLrD: lr(8); break;
        case Op::kScW: if (sc(4)) goto leave; break;
        case Op::kScD: if (sc(8)) goto leave; break;
        case Op::kAmoSwapW: if (amo(4, swap)) goto leave; break;
        case Op::kAmoSwapD: if (amo(8, swap)) goto leave; break;
        case Op::kAmoAddW: if (amo(4, add)) goto leave; break;
        case Op::kAmoAddD: if (amo(8, add)) goto leave; break;
        case Op::kAmoXorW: if (amo(4, bit_xor)) goto leave; break;
        case Op::kAmoXorD: if (amo(8, bit_xor)) goto leave; break;
        case Op::kAmoAndW: if (amo(4, bit_and)) goto leave; break;
        case Op::kAmoAndD: if (amo(8, bit_and)) goto leave; break;
        case Op::kAmoOrW: if (amo(4, bit_or)) goto leave; break;
        case Op::kAmoOrD: if (amo(8, bit_or)) goto leave; break;
        case Op::kAmoMinW: if (amo(4, min)) goto leave; break;
        case Op::kAmoMinD: if (amo(8, min)) goto leave; break;
        case Op::kAmoMaxW: if (amo(4, max)) goto leave; break;
        case Op::kAmoMaxD: if (amo(8, max)) goto leave; break;
        case Op::kAmoMinuW: if (amo(4, minu)) goto leave; break;
        case Op::kAmoMinuD: if (amo(8, minu)) goto leave; break;
        case Op::kAmoMaxuW: if (amo(4, maxu)) goto leave; break;
        case Op::kAmoMaxuD: if (amo(8, maxu)) goto leave; break;

        case Op::kFence: break;  // single hart: no-op
        case Op::kCsrrw: case Op::kCsrrs: case Op::kCsrrc:
        case Op::kCsrrwi: case Op::kCsrrsi: case Op::kCsrrci:
          // Minimal CSR file: cycle (0xC00) and instret (0xC02) reads;
          // writes are ignored (machine-mode configuration is out of
          // scope). instret counts *retired* instructions, which excludes
          // the reader itself.
          set(e->imm == 0xC00   ? cycles - later_cycles()
              : e->imm == 0xC02 ? instructions - later() - 1
                                : 0);
          break;
        case Op::kEcall:
          // Convention: a7=93 is exit(a0) (Linux-like); any other ecall
          // also halts — the bare-metal workloads only use exit.
          halt_ = HaltReason::kExit;
          exit_code_ = static_cast<int64_t>(x[10]);
          goto stop;
        case Op::kEbreak:
          halt_ = HaltReason::kEbreak;
          goto stop;
        case Op::kInvalid:
          // An undecodable word retires nothing: take back its count and
          // base cycle (its fetch stays charged). It ends its block, so no
          // entry after it was charged.
          --instructions;
          --cycles;
          halt_ = HaltReason::kInvalidInstruction;
          goto stop;
      }
      pc = next;
      continue;
    leave:
      // Halted by the exit device (pc stays at the store), or the store
      // rewrote cached code: the entries after this one do not run now,
      // so their charge is taken back. After a code write, resume at the
      // next instruction, decoded from the bytes as they are now.
      instructions -= later();
      cycles -= later_cycles();
      line_hits -= later_hits();
      if (device_halt) goto stop;
      DropBlocks();
      pc = next;
      break;
    }
  }
stop:
  icache_.RepeatLastHit(line_hits);
  pc_ = pc;
  stats.instructions = instructions;
  stats.cycles = cycles;
  stats.loads = loads;
  stats.stores = stores;
  stats.branches = branches;
  stats.taken_branches = taken_branches;
}

ExecStats Cpu::Run(const ExecLimits& limits) {
  ExecStats stats;
  if (rv32_) {
    Execute<true>(limits.max_instructions, stats);
  } else {
    Execute<false>(limits.max_instructions, stats);
  }
  if (halt_ == HaltReason::kNone) halt_ = HaltReason::kInstructionLimit;
  stats.halt_reason = halt_;
  stats.exit_code = exit_code_;
  stats.final_pc = pc_;
  stats.icache = icache_.stats();
  stats.dcache = dcache_.stats();
  return stats;
}

}  // namespace eric::sim
