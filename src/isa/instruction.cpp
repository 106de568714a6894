#include "isa/instruction.h"

#include <array>

#include "isa/forms.h"

namespace eric::isa {

namespace {

// Major opcodes (bits 6..0).
constexpr uint32_t kOpcodeLoad = 0x03;
constexpr uint32_t kOpcodeMiscMem = 0x0F;
constexpr uint32_t kOpcodeOpImm = 0x13;
constexpr uint32_t kOpcodeAuipc = 0x17;
constexpr uint32_t kOpcodeOpImm32 = 0x1B;
constexpr uint32_t kOpcodeStore = 0x23;
constexpr uint32_t kOpcodeAmo = 0x2F;
constexpr uint32_t kOpcodeOp = 0x33;
constexpr uint32_t kOpcodeLui = 0x37;
constexpr uint32_t kOpcodeOp32 = 0x3B;
constexpr uint32_t kOpcodeBranch = 0x63;
constexpr uint32_t kOpcodeJalr = 0x67;
constexpr uint32_t kOpcodeJal = 0x6F;
constexpr uint32_t kOpcodeSystem = 0x73;

// Which bits identify an operation: the opcode alone, plus funct3, plus
// funct7 (or the 6 bits above a 64-bit shamt, or the funct5 above aq/rl),
// plus rs2 for lr, or the whole word.
constexpr uint32_t kOpcodeMask = 0x0000007F;
constexpr uint32_t kFunct3Mask = 0x0000707F;
constexpr uint32_t kFunct7Mask = 0xFE00707F;
constexpr uint32_t kShamt6Mask = 0xFC00707F;
constexpr uint32_t kFunct5Mask = 0xF800707F;
constexpr uint32_t kLrMask = 0xF9F0707F;
constexpr uint32_t kWordMask = 0xFFFFFFFF;

constexpr uint32_t Match(uint32_t opcode, uint32_t funct3 = 0,
                         uint32_t funct7 = 0) {
  return (funct7 << 25) | (funct3 << 12) | opcode;
}

// A-extension op: funct5 over aq/rl = 0; funct3 is 010 (.w) or 011 (.d).
constexpr uint32_t Amo(uint32_t funct5, uint32_t funct3) {
  return Match(kOpcodeAmo, funct3, funct5 << 2);
}

using C = OpClass;
using F = Form;

// Adding an operation is one row here plus its execute case in the
// simulator.
constexpr OpInfo kTable[] = {
    // op, mnemonic, class, form, match, mask, rv32
    {Op::kInvalid, "<invalid>", C::kInvalid, F::kFixed, 0, 0, false},
    {Op::kLui, "lui", C::kAlu, F::kUpper, Match(kOpcodeLui), kOpcodeMask, true},
    {Op::kAuipc, "auipc", C::kAlu, F::kUpper, Match(kOpcodeAuipc), kOpcodeMask,
     true},
    {Op::kJal, "jal", C::kJump, F::kJal, Match(kOpcodeJal), kOpcodeMask, true},
    {Op::kJalr, "jalr", C::kJump, F::kJalr, Match(kOpcodeJalr, 0), kFunct3Mask,
     true},
    {Op::kBeq, "beq", C::kBranch, F::kBranch, Match(kOpcodeBranch, 0b000),
     kFunct3Mask, true},
    {Op::kBne, "bne", C::kBranch, F::kBranch, Match(kOpcodeBranch, 0b001),
     kFunct3Mask, true},
    {Op::kBlt, "blt", C::kBranch, F::kBranch, Match(kOpcodeBranch, 0b100),
     kFunct3Mask, true},
    {Op::kBge, "bge", C::kBranch, F::kBranch, Match(kOpcodeBranch, 0b101),
     kFunct3Mask, true},
    {Op::kBltu, "bltu", C::kBranch, F::kBranch, Match(kOpcodeBranch, 0b110),
     kFunct3Mask, true},
    {Op::kBgeu, "bgeu", C::kBranch, F::kBranch, Match(kOpcodeBranch, 0b111),
     kFunct3Mask, true},
    {Op::kLb, "lb", C::kLoad, F::kLoad, Match(kOpcodeLoad, 0b000), kFunct3Mask,
     true},
    {Op::kLh, "lh", C::kLoad, F::kLoad, Match(kOpcodeLoad, 0b001), kFunct3Mask,
     true},
    {Op::kLw, "lw", C::kLoad, F::kLoad, Match(kOpcodeLoad, 0b010), kFunct3Mask,
     true},
    {Op::kLd, "ld", C::kLoad, F::kLoad, Match(kOpcodeLoad, 0b011), kFunct3Mask,
     false},
    {Op::kLbu, "lbu", C::kLoad, F::kLoad, Match(kOpcodeLoad, 0b100),
     kFunct3Mask, true},
    {Op::kLhu, "lhu", C::kLoad, F::kLoad, Match(kOpcodeLoad, 0b101),
     kFunct3Mask, true},
    {Op::kLwu, "lwu", C::kLoad, F::kLoad, Match(kOpcodeLoad, 0b110),
     kFunct3Mask, false},
    {Op::kSb, "sb", C::kStore, F::kStore, Match(kOpcodeStore, 0b000),
     kFunct3Mask, true},
    {Op::kSh, "sh", C::kStore, F::kStore, Match(kOpcodeStore, 0b001),
     kFunct3Mask, true},
    {Op::kSw, "sw", C::kStore, F::kStore, Match(kOpcodeStore, 0b010),
     kFunct3Mask, true},
    {Op::kSd, "sd", C::kStore, F::kStore, Match(kOpcodeStore, 0b011),
     kFunct3Mask, false},
    {Op::kAddi, "addi", C::kAlu, F::kRegImm, Match(kOpcodeOpImm, 0b000),
     kFunct3Mask, true},
    {Op::kSlti, "slti", C::kAlu, F::kRegImm, Match(kOpcodeOpImm, 0b010),
     kFunct3Mask, true},
    {Op::kSltiu, "sltiu", C::kAlu, F::kRegImm, Match(kOpcodeOpImm, 0b011),
     kFunct3Mask, true},
    {Op::kXori, "xori", C::kAlu, F::kRegImm, Match(kOpcodeOpImm, 0b100),
     kFunct3Mask, true},
    {Op::kOri, "ori", C::kAlu, F::kRegImm, Match(kOpcodeOpImm, 0b110),
     kFunct3Mask, true},
    {Op::kAndi, "andi", C::kAlu, F::kRegImm, Match(kOpcodeOpImm, 0b111),
     kFunct3Mask, true},
    {Op::kSlli, "slli", C::kAlu, F::kShift64, Match(kOpcodeOpImm, 0b001),
     kShamt6Mask, true},
    {Op::kSrli, "srli", C::kAlu, F::kShift64, Match(kOpcodeOpImm, 0b101),
     kShamt6Mask, true},
    {Op::kSrai, "srai", C::kAlu, F::kShift64,
     Match(kOpcodeOpImm, 0b101, 0b0100000), kShamt6Mask, true},
    {Op::kAdd, "add", C::kAlu, F::kRegReg, Match(kOpcodeOp, 0b000),
     kFunct7Mask, true},
    {Op::kSub, "sub", C::kAlu, F::kRegReg, Match(kOpcodeOp, 0b000, 0b0100000),
     kFunct7Mask, true},
    {Op::kSll, "sll", C::kAlu, F::kRegReg, Match(kOpcodeOp, 0b001),
     kFunct7Mask, true},
    {Op::kSlt, "slt", C::kAlu, F::kRegReg, Match(kOpcodeOp, 0b010),
     kFunct7Mask, true},
    {Op::kSltu, "sltu", C::kAlu, F::kRegReg, Match(kOpcodeOp, 0b011),
     kFunct7Mask, true},
    {Op::kXor, "xor", C::kAlu, F::kRegReg, Match(kOpcodeOp, 0b100),
     kFunct7Mask, true},
    {Op::kSrl, "srl", C::kAlu, F::kRegReg, Match(kOpcodeOp, 0b101),
     kFunct7Mask, true},
    {Op::kSra, "sra", C::kAlu, F::kRegReg, Match(kOpcodeOp, 0b101, 0b0100000),
     kFunct7Mask, true},
    {Op::kOr, "or", C::kAlu, F::kRegReg, Match(kOpcodeOp, 0b110), kFunct7Mask,
     true},
    {Op::kAnd, "and", C::kAlu, F::kRegReg, Match(kOpcodeOp, 0b111),
     kFunct7Mask, true},
    {Op::kAddiw, "addiw", C::kAlu, F::kRegImm, Match(kOpcodeOpImm32, 0b000),
     kFunct3Mask, false},
    {Op::kSlliw, "slliw", C::kAlu, F::kShiftW, Match(kOpcodeOpImm32, 0b001),
     kFunct7Mask, false},
    {Op::kSrliw, "srliw", C::kAlu, F::kShiftW, Match(kOpcodeOpImm32, 0b101),
     kFunct7Mask, false},
    {Op::kSraiw, "sraiw", C::kAlu, F::kShiftW,
     Match(kOpcodeOpImm32, 0b101, 0b0100000), kFunct7Mask, false},
    {Op::kAddw, "addw", C::kAlu, F::kRegReg, Match(kOpcodeOp32, 0b000),
     kFunct7Mask, false},
    {Op::kSubw, "subw", C::kAlu, F::kRegReg,
     Match(kOpcodeOp32, 0b000, 0b0100000), kFunct7Mask, false},
    {Op::kSllw, "sllw", C::kAlu, F::kRegReg, Match(kOpcodeOp32, 0b001),
     kFunct7Mask, false},
    {Op::kSrlw, "srlw", C::kAlu, F::kRegReg, Match(kOpcodeOp32, 0b101),
     kFunct7Mask, false},
    {Op::kSraw, "sraw", C::kAlu, F::kRegReg,
     Match(kOpcodeOp32, 0b101, 0b0100000), kFunct7Mask, false},
    // fence decodes on its opcode alone and encodes pred = succ = iorw.
    {Op::kFence, "fence", C::kSystem, F::kFixed,
     0x0FF00000 | Match(kOpcodeMiscMem), kOpcodeMask, true},
    {Op::kEcall, "ecall", C::kSystem, F::kFixed, 0x00000073, kWordMask, true},
    {Op::kEbreak, "ebreak", C::kSystem, F::kFixed, 0x00100073, kWordMask, true},
    {Op::kCsrrw, "csrrw", C::kSystem, F::kCsr, Match(kOpcodeSystem, 0b001),
     kFunct3Mask, true},
    {Op::kCsrrs, "csrrs", C::kSystem, F::kCsr, Match(kOpcodeSystem, 0b010),
     kFunct3Mask, true},
    {Op::kCsrrc, "csrrc", C::kSystem, F::kCsr, Match(kOpcodeSystem, 0b011),
     kFunct3Mask, true},
    {Op::kCsrrwi, "csrrwi", C::kSystem, F::kCsr, Match(kOpcodeSystem, 0b101),
     kFunct3Mask, true},
    {Op::kCsrrsi, "csrrsi", C::kSystem, F::kCsr, Match(kOpcodeSystem, 0b110),
     kFunct3Mask, true},
    {Op::kCsrrci, "csrrci", C::kSystem, F::kCsr, Match(kOpcodeSystem, 0b111),
     kFunct3Mask, true},
    {Op::kMul, "mul", C::kMul, F::kRegReg, Match(kOpcodeOp, 0b000, 1),
     kFunct7Mask, false},
    {Op::kMulh, "mulh", C::kMul, F::kRegReg, Match(kOpcodeOp, 0b001, 1),
     kFunct7Mask, false},
    {Op::kMulhsu, "mulhsu", C::kMul, F::kRegReg, Match(kOpcodeOp, 0b010, 1),
     kFunct7Mask, false},
    {Op::kMulhu, "mulhu", C::kMul, F::kRegReg, Match(kOpcodeOp, 0b011, 1),
     kFunct7Mask, false},
    {Op::kDiv, "div", C::kDiv, F::kRegReg, Match(kOpcodeOp, 0b100, 1),
     kFunct7Mask, false},
    {Op::kDivu, "divu", C::kDiv, F::kRegReg, Match(kOpcodeOp, 0b101, 1),
     kFunct7Mask, false},
    {Op::kRem, "rem", C::kDiv, F::kRegReg, Match(kOpcodeOp, 0b110, 1),
     kFunct7Mask, false},
    {Op::kRemu, "remu", C::kDiv, F::kRegReg, Match(kOpcodeOp, 0b111, 1),
     kFunct7Mask, false},
    {Op::kMulw, "mulw", C::kMul, F::kRegReg, Match(kOpcodeOp32, 0b000, 1),
     kFunct7Mask, false},
    {Op::kDivw, "divw", C::kDiv, F::kRegReg, Match(kOpcodeOp32, 0b100, 1),
     kFunct7Mask, false},
    {Op::kDivuw, "divuw", C::kDiv, F::kRegReg, Match(kOpcodeOp32, 0b101, 1),
     kFunct7Mask, false},
    {Op::kRemw, "remw", C::kDiv, F::kRegReg, Match(kOpcodeOp32, 0b110, 1),
     kFunct7Mask, false},
    {Op::kRemuw, "remuw", C::kDiv, F::kRegReg, Match(kOpcodeOp32, 0b111, 1),
     kFunct7Mask, false},
    {Op::kLrW, "lr.w", C::kAtomic, F::kLr, Amo(0b00010, 0b010), kLrMask, false},
    {Op::kLrD, "lr.d", C::kAtomic, F::kLr, Amo(0b00010, 0b011), kLrMask, false},
    {Op::kScW, "sc.w", C::kAtomic, F::kAmo, Amo(0b00011, 0b010), kFunct5Mask,
     false},
    {Op::kScD, "sc.d", C::kAtomic, F::kAmo, Amo(0b00011, 0b011), kFunct5Mask,
     false},
    {Op::kAmoSwapW, "amoswap.w", C::kAtomic, F::kAmo, Amo(0b00001, 0b010),
     kFunct5Mask, false},
    {Op::kAmoAddW, "amoadd.w", C::kAtomic, F::kAmo, Amo(0b00000, 0b010),
     kFunct5Mask, false},
    {Op::kAmoXorW, "amoxor.w", C::kAtomic, F::kAmo, Amo(0b00100, 0b010),
     kFunct5Mask, false},
    {Op::kAmoAndW, "amoand.w", C::kAtomic, F::kAmo, Amo(0b01100, 0b010),
     kFunct5Mask, false},
    {Op::kAmoOrW, "amoor.w", C::kAtomic, F::kAmo, Amo(0b01000, 0b010),
     kFunct5Mask, false},
    {Op::kAmoMinW, "amomin.w", C::kAtomic, F::kAmo, Amo(0b10000, 0b010),
     kFunct5Mask, false},
    {Op::kAmoMaxW, "amomax.w", C::kAtomic, F::kAmo, Amo(0b10100, 0b010),
     kFunct5Mask, false},
    {Op::kAmoMinuW, "amominu.w", C::kAtomic, F::kAmo, Amo(0b11000, 0b010),
     kFunct5Mask, false},
    {Op::kAmoMaxuW, "amomaxu.w", C::kAtomic, F::kAmo, Amo(0b11100, 0b010),
     kFunct5Mask, false},
    {Op::kAmoSwapD, "amoswap.d", C::kAtomic, F::kAmo, Amo(0b00001, 0b011),
     kFunct5Mask, false},
    {Op::kAmoAddD, "amoadd.d", C::kAtomic, F::kAmo, Amo(0b00000, 0b011),
     kFunct5Mask, false},
    {Op::kAmoXorD, "amoxor.d", C::kAtomic, F::kAmo, Amo(0b00100, 0b011),
     kFunct5Mask, false},
    {Op::kAmoAndD, "amoand.d", C::kAtomic, F::kAmo, Amo(0b01100, 0b011),
     kFunct5Mask, false},
    {Op::kAmoOrD, "amoor.d", C::kAtomic, F::kAmo, Amo(0b01000, 0b011),
     kFunct5Mask, false},
    {Op::kAmoMinD, "amomin.d", C::kAtomic, F::kAmo, Amo(0b10000, 0b011),
     kFunct5Mask, false},
    {Op::kAmoMaxD, "amomax.d", C::kAtomic, F::kAmo, Amo(0b10100, 0b011),
     kFunct5Mask, false},
    {Op::kAmoMinuD, "amominu.d", C::kAtomic, F::kAmo, Amo(0b11000, 0b011),
     kFunct5Mask, false},
    {Op::kAmoMaxuD, "amomaxu.d", C::kAtomic, F::kAmo, Amo(0b11100, 0b011),
     kFunct5Mask, false},
};

// Row i describes Op(i), and every real row's mask covers its opcode (the
// decoder's index below relies on both).
constexpr bool TableIsWellFormed() {
  for (size_t i = 0; i < kNumOps; ++i) {
    if (kTable[i].op != static_cast<Op>(i)) return false;
    if (i != 0 && (kTable[i].mask & kOpcodeMask) != kOpcodeMask) return false;
  }
  return true;
}
static_assert(std::size(kTable) == kNumOps, "one table row per Op");
static_assert(TableIsWellFormed(),
              "row i must describe Op(i), and its mask cover the opcode");

// The real rows regrouped by major opcode, so decoding a word scans only
// the rows of its opcode (the kInvalid row gets no opcode).
constexpr auto kByOpcode = BuildRowIndex<128>(kTable, [](const OpInfo& row) {
  return row.op == Op::kInvalid ? 128 : row.match & kOpcodeMask;
});

constexpr std::array<std::string_view, 32> kAbiNames = {
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0",
    "a1",   "a2", "a3", "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5",
    "s6",   "s7", "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6"};

}  // namespace

const OpInfo& InfoOf(Op op) {
  const auto i = static_cast<size_t>(op);
  return kTable[i < kNumOps ? i : 0];
}

Op OpFromName(std::string_view mnemonic) {
  for (size_t i = 1; i < kNumOps; ++i) {
    if (kTable[i].mnemonic == mnemonic) return kTable[i].op;
  }
  return Op::kInvalid;
}

std::span<const OpInfo> RowsWithOpcode(uint32_t opcode) {
  return kByOpcode.at(opcode & kOpcodeMask);
}

std::string_view AbiRegName(uint8_t reg) {
  return kAbiNames[reg & 31u];
}

int ParseRegName(std::string_view name) {
  for (int i = 0; i < 32; ++i) {
    if (name == kAbiNames[static_cast<size_t>(i)]) return i;
  }
  if (name == "fp") return 8;  // frame-pointer alias for s0
  if (name.size() >= 2 && name[0] == 'x') {
    int value = 0;
    for (size_t i = 1; i < name.size(); ++i) {
      if (name[i] < '0' || name[i] > '9') return -1;
      value = value * 10 + (name[i] - '0');
    }
    return (value >= 0 && value < 32) ? value : -1;
  }
  return -1;
}

}  // namespace eric::isa
