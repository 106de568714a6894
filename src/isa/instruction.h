// RISC-V instruction model: operations, decoded form, and classification.
//
// Scope: RV64I + M + A + Zicsr subset + the C (compressed) extension,
// i.e. the working set of RV64GC that integer MiBench-class workloads and
// ERIC's own units exercise (Table I targets RV64GC on a Rocket in-order
// core; our workloads are integer-only, so F/D are rejected as
// unsupported rather than silently mis-simulated).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace eric::isa {

/// Architectural operation after decoding (compressed forms decode to
/// their base-ISA operation; `compressed` records the original width).
enum class Op : uint16_t {
  kInvalid = 0,
  // RV64I: upper immediates and jumps
  kLui, kAuipc, kJal, kJalr,
  // Branches
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
  // Loads
  kLb, kLh, kLw, kLd, kLbu, kLhu, kLwu,
  // Stores
  kSb, kSh, kSw, kSd,
  // ALU immediate
  kAddi, kSlti, kSltiu, kXori, kOri, kAndi, kSlli, kSrli, kSrai,
  // ALU register
  kAdd, kSub, kSll, kSlt, kSltu, kXor, kSrl, kSra, kOr, kAnd,
  // RV64 32-bit ("W") forms
  kAddiw, kSlliw, kSrliw, kSraiw,
  kAddw, kSubw, kSllw, kSrlw, kSraw,
  // System
  kFence, kEcall, kEbreak,
  // Zicsr (simulator uses a small CSR file for cycle/instret)
  kCsrrw, kCsrrs, kCsrrc, kCsrrwi, kCsrrsi, kCsrrci,
  // M extension
  kMul, kMulh, kMulhsu, kMulhu, kDiv, kDivu, kRem, kRemu,
  kMulw, kDivw, kDivuw, kRemw, kRemuw,
  // A extension (load-reserved / store-conditional / AMOs)
  kLrW, kLrD, kScW, kScD,
  kAmoSwapW, kAmoAddW, kAmoXorW, kAmoAndW, kAmoOrW,
  kAmoMinW, kAmoMaxW, kAmoMinuW, kAmoMaxuW,
  kAmoSwapD, kAmoAddD, kAmoXorD, kAmoAndD, kAmoOrD,
  kAmoMinD, kAmoMaxD, kAmoMinuD, kAmoMaxuD,  // keep kAmoMaxuD last (kNumOps)
};

/// Broad functional class, used by the timing model and by partial
/// encryption policies ("encrypt only memory accesses", Sec. III.1).
enum class OpClass : uint8_t {
  kInvalid,
  kAlu,
  kMul,
  kDiv,
  kLoad,
  kStore,
  kBranch,
  kJump,
  kSystem,
  kAtomic,
};

/// Number of OpClass values (histogram sizing).
inline constexpr size_t kNumOpClasses = 10;

/// Decoded instruction. `raw` keeps the original encoding so ERIC's
/// field-level encryption can address exact bit ranges.
struct Instr {
  Op op = Op::kInvalid;
  uint8_t rd = 0;
  uint8_t rs1 = 0;
  uint8_t rs2 = 0;
  int64_t imm = 0;       ///< sign-extended immediate (or CSR number / shamt)
  uint32_t raw = 0;      ///< original encoding (low 16 bits if compressed)
  bool compressed = false;

  /// Byte width in the instruction stream (2 or 4).
  int SizeBytes() const { return compressed ? 2 : 4; }
};

/// Bit layout of an operation's 32-bit encoding, which also fixes its
/// assembly syntax.
enum class Form : uint8_t {
  kRegReg,   ///< R-type: "op rd, rs1, rs2"
  kRegImm,   ///< I-type, signed 12-bit: "op rd, rs1, imm"
  kShift64,  ///< I-type, 6-bit shamt: "op rd, rs1, shamt"
  kShiftW,   ///< I-type, 5-bit shamt: "op rd, rs1, shamt"
  kLoad,     ///< I-type: "op rd, imm(rs1)"
  kStore,    ///< S-type: "op rs2, imm(rs1)"
  kBranch,   ///< B-type, even 13-bit offset: "op rs1, rs2, offset"
  kUpper,    ///< U-type, signed 20-bit: "op rd, imm"
  kJal,      ///< J-type, even 21-bit offset: "jal rd, offset"
  kJalr,     ///< I-type: "jalr rd, imm(rs1)"
  kCsr,      ///< I-type, CSR number in [0, 4095]: "op rd, csr, rs1"
  kAmo,      ///< R-type, aq/rl ignored: "op rd, rs2, (rs1)"
  kLr,       ///< R-type with rs2 = x0: "op rd, (rs1)"
  kFixed,    ///< no operands: the encoding is `match` (keep last)
};

/// One row of the instruction table: everything the encoder, decoder,
/// assembler, disassembler and ISA backends know about an operation.
/// A 32-bit word is this operation iff `(raw & mask) == (match & mask)`;
/// `match` is also the word Encode32 starts from (fence keeps its
/// don't-care bits there).
struct OpInfo {
  Op op;
  std::string_view mnemonic;
  OpClass op_class;
  Form form;
  uint32_t match;
  uint32_t mask;
  bool rv32;  ///< exists in RV32I+Zicsr
};

/// Number of Op values; the table has one row per value, in enum order.
inline constexpr size_t kNumOps = static_cast<size_t>(Op::kAmoMaxuD) + 1;

/// The table row of `op` (the kInvalid row for values outside the enum).
const OpInfo& InfoOf(Op op);

/// The operation named `mnemonic`; Op::kInvalid if none.
Op OpFromName(std::string_view mnemonic);

/// The rows whose encodings have the 7-bit major opcode in the low bits
/// of `opcode` (higher bits are ignored): the decoder's only candidates
/// for a word.
std::span<const OpInfo> RowsWithOpcode(uint32_t opcode);

/// Functional class of an operation.
inline OpClass ClassOf(Op op) { return InfoOf(op).op_class; }

/// Mnemonic ("addi"). No c-prefix is added: compression is a width
/// property, not an operation.
inline std::string_view OpName(Op op) { return InfoOf(op).mnemonic; }

/// True for loads and stores — the instructions whose immediate fields the
/// paper's field-level encryption example targets ("only the pointer
/// values of the instructions that make memory accesses").
inline bool IsMemoryAccess(Op op) {
  const OpClass c = ClassOf(op);
  return c == OpClass::kLoad || c == OpClass::kStore;
}

/// True if the instruction transfers control.
inline bool IsControlFlow(Op op) {
  const OpClass c = ClassOf(op);
  return c == OpClass::kBranch || c == OpClass::kJump;
}

/// ABI register names x0..x31 ("zero", "ra", "sp", ...).
std::string_view AbiRegName(uint8_t reg);

/// Parses an ABI or numeric register name ("a0", "x10"); returns -1 on
/// failure.
int ParseRegName(std::string_view name);

}  // namespace eric::isa
