#include "isa/encoder.h"

#include <string>

namespace eric::isa {
namespace {

// Operand placement for the base formats (the RV_ISA_*_TYPE layouts);
// opcode and funct bits come from the table row's `match`.
constexpr uint32_t RType(uint8_t rs2, uint8_t rs1, uint8_t rd) {
  return (uint32_t(rs2 & 31) << 20) | (uint32_t(rs1 & 31) << 15) |
         (uint32_t(rd & 31) << 7);
}

constexpr uint32_t IType(int64_t imm, uint8_t rs1, uint8_t rd) {
  return (uint32_t(imm & 0xFFF) << 20) | (uint32_t(rs1 & 31) << 15) |
         (uint32_t(rd & 31) << 7);
}

constexpr uint32_t SType(int64_t imm, uint8_t rs2, uint8_t rs1) {
  const uint32_t i = uint32_t(imm & 0xFFF);
  return ((i >> 5) << 25) | (uint32_t(rs2 & 31) << 20) |
         (uint32_t(rs1 & 31) << 15) | ((i & 31u) << 7);
}

constexpr uint32_t BType(int64_t imm, uint8_t rs2, uint8_t rs1) {
  const uint32_t i = uint32_t(imm & 0x1FFF);
  return (((i >> 12) & 1u) << 31) | (((i >> 5) & 0x3Fu) << 25) |
         (uint32_t(rs2 & 31) << 20) | (uint32_t(rs1 & 31) << 15) |
         (((i >> 1) & 0xFu) << 8) | (((i >> 11) & 1u) << 7);
}

constexpr uint32_t UType(int64_t imm20, uint8_t rd) {
  return (uint32_t(imm20 & 0xFFFFF) << 12) | (uint32_t(rd & 31) << 7);
}

constexpr uint32_t JType(int64_t imm, uint8_t rd) {
  const uint32_t i = uint32_t(imm & 0x1FFFFF);
  return (((i >> 20) & 1u) << 31) | (((i >> 1) & 0x3FFu) << 21) |
         (((i >> 11) & 1u) << 20) | (((i >> 12) & 0xFFu) << 12) |
         (uint32_t(rd & 31) << 7);
}

bool FitsSigned(int64_t value, int bits) {
  const int64_t lo = -(int64_t{1} << (bits - 1));
  const int64_t hi = (int64_t{1} << (bits - 1)) - 1;
  return value >= lo && value <= hi;
}

// A form's immediate field: its width (0 when the form has none and the
// immediate is ignored), and whether it is unsigned (shift amounts, CSR
// numbers) or an even offset (branches, jal).
struct ImmField {
  int bits = 0;
  bool is_unsigned = false;
  bool even = false;
};

ImmField ImmFieldOf(Form form) {
  switch (form) {
    case Form::kShiftW: return {5, true};
    case Form::kShift64: return {6, true};
    case Form::kCsr: return {12, true};
    case Form::kRegImm: case Form::kLoad: case Form::kStore: case Form::kJalr:
      return {12};
    case Form::kBranch: return {13, false, true};
    case Form::kUpper: return {20};
    case Form::kJal: return {21, false, true};
    case Form::kRegReg: case Form::kAmo: case Form::kLr: case Form::kFixed:
      break;
  }
  return {};
}

bool Fits(ImmField field, int64_t imm) {
  if (field.bits == 0) return true;
  if (field.is_unsigned) return imm >= 0 && imm < (int64_t{1} << field.bits);
  return FitsSigned(imm, field.bits) && !(field.even && (imm & 1));
}

}  // namespace

Result<uint32_t> Encode32(const Instr& in) {
  const OpInfo& row = InfoOf(in.op);
  if (row.op == Op::kInvalid) {
    return Status(ErrorCode::kInvalidArgument, "cannot encode kInvalid");
  }
  if (const ImmField field = ImmFieldOf(row.form); !Fits(field, in.imm)) {
    return Status(ErrorCode::kInvalidArgument,
                  std::string(row.mnemonic) + " immediate " +
                      std::to_string(in.imm) + " does not fit in " +
                      std::to_string(field.bits) + " bits");
  }
  const uint8_t rd = in.rd, rs1 = in.rs1, rs2 = in.rs2;
  const int64_t imm = in.imm;
  switch (row.form) {
    case Form::kLr:
      if (rs2 != 0) {
        return Status(ErrorCode::kInvalidArgument, "lr requires rs2 == x0");
      }
      [[fallthrough]];
    case Form::kRegReg:
    case Form::kAmo:
      return row.match | RType(rs2, rs1, rd);
    case Form::kRegImm:
    case Form::kShift64:
    case Form::kShiftW:
    case Form::kLoad:
    case Form::kJalr:
    case Form::kCsr:
      return row.match | IType(imm, rs1, rd);
    case Form::kStore: return row.match | SType(imm, rs2, rs1);
    case Form::kBranch: return row.match | BType(imm, rs2, rs1);
    case Form::kUpper: return row.match | UType(imm, rd);
    case Form::kJal: return row.match | JType(imm, rd);
    case Form::kFixed: return row.match;
  }
  return Status(ErrorCode::kInvalidArgument, "unknown form");
}

namespace {

// rd'/rs' compressed register set: x8..x15 encode as 0..7.
bool IsCompressedReg(uint8_t reg) { return reg >= 8 && reg <= 15; }
uint32_t CReg(uint8_t reg) { return uint32_t(reg - 8); }

uint16_t CiType(uint32_t funct3, uint32_t imm_bit5, uint32_t rd,
                uint32_t imm_4_0, uint32_t quadrant) {
  return static_cast<uint16_t>((funct3 << 13) | (imm_bit5 << 12) | (rd << 7) |
                               (imm_4_0 << 2) | quadrant);
}

}  // namespace

std::optional<uint16_t> TryEncodeCompressed(const Instr& in) {
  const uint8_t rd = in.rd, rs1 = in.rs1, rs2 = in.rs2;
  const int64_t imm = in.imm;
  switch (in.op) {
    case Op::kAddi: {
      // c.addi rd, imm (rd != 0, rd == rs1, imm in [-32,31], imm != 0)
      if (rd != 0 && rd == rs1 && imm != 0 && FitsSigned(imm, 6)) {
        return CiType(0b000, (imm >> 5) & 1, rd, imm & 31, 0b01);
      }
      // c.li rd, imm (rs1 == x0)
      if (rd != 0 && rs1 == 0 && FitsSigned(imm, 6)) {
        return CiType(0b010, (imm >> 5) & 1, rd, imm & 31, 0b01);
      }
      // c.addi16sp (rd == rs1 == sp, imm multiple of 16 in [-512,496])
      if (rd == 2 && rs1 == 2 && imm != 0 && imm % 16 == 0 &&
          FitsSigned(imm, 10)) {
        const uint32_t i = uint32_t(imm);
        const uint32_t low = (((i >> 4) & 1) << 4) | (((i >> 6) & 1) << 3) |
                             (((i >> 7) & 3) << 1) | ((i >> 5) & 1);
        return CiType(0b011, (i >> 9) & 1, 2, low, 0b01);
      }
      // c.addi4spn rd', sp, nzuimm (multiple of 4, 0 < imm < 1024)
      if (IsCompressedReg(rd) && rs1 == 2 && imm > 0 && imm < 1024 &&
          imm % 4 == 0) {
        const uint32_t i = uint32_t(imm);
        const uint32_t field = (((i >> 4) & 3) << 11) |
                               (((i >> 6) & 0xF) << 7) |
                               (((i >> 2) & 1) << 6) | (((i >> 3) & 1) << 5);
        return static_cast<uint16_t>((0b000 << 13) | field | (CReg(rd) << 2) |
                                     0b00);
      }
      // c.mv is add; c.nop:
      if (rd == 0 && rs1 == 0 && imm == 0) {
        return CiType(0b000, 0, 0, 0, 0b01);  // c.nop
      }
      return std::nullopt;
    }
    case Op::kAddiw:
      if (rd != 0 && rd == rs1 && FitsSigned(imm, 6)) {
        return CiType(0b001, (imm >> 5) & 1, rd, imm & 31, 0b01);
      }
      return std::nullopt;
    case Op::kLui:
      // c.lui rd, imm (rd != 0, rd != 2, imm != 0, imm in [-32,31] of the
      // 20-bit field, i.e. bits 17..12 of the final value)
      if (rd != 0 && rd != 2 && imm != 0 && FitsSigned(imm, 6)) {
        return CiType(0b011, (imm >> 5) & 1, rd, imm & 31, 0b01);
      }
      return std::nullopt;
    case Op::kSlli:
      if (rd != 0 && rd == rs1 && imm > 0 && imm <= 63) {
        return CiType(0b000, (imm >> 5) & 1, rd, imm & 31, 0b10);
      }
      return std::nullopt;
    case Op::kSrli:
    case Op::kSrai:
      if (IsCompressedReg(rd) && rd == rs1 && imm > 0 && imm <= 63) {
        const uint32_t funct2 = (in.op == Op::kSrli) ? 0b00 : 0b01;
        return static_cast<uint16_t>(
            (0b100 << 13) | (uint32_t((imm >> 5) & 1) << 12) | (funct2 << 10) |
            (CReg(rd) << 7) | (uint32_t(imm & 31) << 2) | 0b01);
      }
      return std::nullopt;
    case Op::kAndi:
      if (IsCompressedReg(rd) && rd == rs1 && FitsSigned(imm, 6)) {
        return static_cast<uint16_t>(
            (0b100 << 13) | (uint32_t((imm >> 5) & 1) << 12) | (0b10 << 10) |
            (CReg(rd) << 7) | (uint32_t(imm & 31) << 2) | 0b01);
      }
      return std::nullopt;
    case Op::kSub: case Op::kXor: case Op::kOr: case Op::kAnd:
    case Op::kSubw: case Op::kAddw: {
      if (IsCompressedReg(rd) && rd == rs1 && IsCompressedReg(rs2)) {
        uint32_t bit12 = 0, funct2 = 0;
        switch (in.op) {
          case Op::kSub: funct2 = 0b00; break;
          case Op::kXor: funct2 = 0b01; break;
          case Op::kOr: funct2 = 0b10; break;
          case Op::kAnd: funct2 = 0b11; break;
          case Op::kSubw: bit12 = 1; funct2 = 0b00; break;
          default: bit12 = 1; funct2 = 0b01; break;  // addw
        }
        return static_cast<uint16_t>((0b100 << 13) | (bit12 << 12) |
                                     (0b11 << 10) | (CReg(rd) << 7) |
                                     (funct2 << 5) | (CReg(rs2) << 2) | 0b01);
      }
      // c.mv / c.add handled under kAdd.
      return std::nullopt;
    }
    case Op::kAdd:
      if (rd != 0 && rs1 == 0 && rs2 != 0) {  // c.mv rd, rs2
        return static_cast<uint16_t>((0b100 << 13) | (0u << 12) |
                                     (uint32_t(rd) << 7) |
                                     (uint32_t(rs2) << 2) | 0b10);
      }
      if (rd != 0 && rd == rs1 && rs2 != 0) {  // c.add rd, rs2
        return static_cast<uint16_t>((0b100 << 13) | (1u << 12) |
                                     (uint32_t(rd) << 7) |
                                     (uint32_t(rs2) << 2) | 0b10);
      }
      return std::nullopt;
    case Op::kLw:
      if (IsCompressedReg(rd) && IsCompressedReg(rs1) && imm >= 0 &&
          imm < 128 && imm % 4 == 0) {
        const uint32_t i = uint32_t(imm);
        return static_cast<uint16_t>(
            (0b010 << 13) | (((i >> 3) & 7) << 10) | (CReg(rs1) << 7) |
            (((i >> 2) & 1) << 6) | (((i >> 6) & 1) << 5) | (CReg(rd) << 2) |
            0b00);
      }
      if (rd != 0 && rs1 == 2 && imm >= 0 && imm < 256 && imm % 4 == 0) {
        const uint32_t i = uint32_t(imm);  // c.lwsp
        return static_cast<uint16_t>(
            (0b010 << 13) | (((i >> 5) & 1) << 12) | (uint32_t(rd) << 7) |
            (((i >> 2) & 7) << 4) | (((i >> 6) & 3) << 2) | 0b10);
      }
      return std::nullopt;
    case Op::kLd:
      if (IsCompressedReg(rd) && IsCompressedReg(rs1) && imm >= 0 &&
          imm < 256 && imm % 8 == 0) {
        const uint32_t i = uint32_t(imm);
        return static_cast<uint16_t>(
            (0b011 << 13) | (((i >> 3) & 7) << 10) | (CReg(rs1) << 7) |
            (((i >> 6) & 3) << 5) | (CReg(rd) << 2) | 0b00);
      }
      if (rd != 0 && rs1 == 2 && imm >= 0 && imm < 512 && imm % 8 == 0) {
        const uint32_t i = uint32_t(imm);  // c.ldsp
        return static_cast<uint16_t>(
            (0b011 << 13) | (((i >> 5) & 1) << 12) | (uint32_t(rd) << 7) |
            (((i >> 3) & 3) << 5) | (((i >> 6) & 7) << 2) | 0b10);
      }
      return std::nullopt;
    case Op::kSw:
      if (IsCompressedReg(rs2) && IsCompressedReg(rs1) && imm >= 0 &&
          imm < 128 && imm % 4 == 0) {
        const uint32_t i = uint32_t(imm);
        return static_cast<uint16_t>(
            (0b110 << 13) | (((i >> 3) & 7) << 10) | (CReg(rs1) << 7) |
            (((i >> 2) & 1) << 6) | (((i >> 6) & 1) << 5) | (CReg(rs2) << 2) |
            0b00);
      }
      if (rs1 == 2 && imm >= 0 && imm < 256 && imm % 4 == 0) {
        const uint32_t i = uint32_t(imm);  // c.swsp
        return static_cast<uint16_t>((0b110 << 13) | (((i >> 2) & 0xF) << 9) |
                                     (((i >> 6) & 3) << 7) |
                                     (uint32_t(rs2) << 2) | 0b10);
      }
      return std::nullopt;
    case Op::kSd:
      if (IsCompressedReg(rs2) && IsCompressedReg(rs1) && imm >= 0 &&
          imm < 256 && imm % 8 == 0) {
        const uint32_t i = uint32_t(imm);
        return static_cast<uint16_t>(
            (0b111 << 13) | (((i >> 3) & 7) << 10) | (CReg(rs1) << 7) |
            (((i >> 6) & 3) << 5) | (CReg(rs2) << 2) | 0b00);
      }
      if (rs1 == 2 && imm >= 0 && imm < 512 && imm % 8 == 0) {
        const uint32_t i = uint32_t(imm);  // c.sdsp
        return static_cast<uint16_t>((0b111 << 13) | (((i >> 3) & 7) << 10) |
                                     (((i >> 6) & 7) << 7) |
                                     (uint32_t(rs2) << 2) | 0b10);
      }
      return std::nullopt;
    case Op::kJal:
      if (rd == 0 && FitsSigned(imm, 12) && (imm & 1) == 0) {  // c.j
        const uint32_t i = uint32_t(imm);
        const uint32_t field =
            (((i >> 11) & 1) << 12) | (((i >> 4) & 1) << 11) |
            (((i >> 8) & 3) << 9) | (((i >> 10) & 1) << 8) |
            (((i >> 6) & 1) << 7) | (((i >> 7) & 1) << 6) |
            (((i >> 1) & 7) << 3) | (((i >> 5) & 1) << 2);
        return static_cast<uint16_t>((0b101 << 13) | field | 0b01);
      }
      return std::nullopt;
    case Op::kJalr:
      if (imm == 0 && rs1 != 0) {
        if (rd == 0) {  // c.jr
          return static_cast<uint16_t>((0b100 << 13) | (0u << 12) |
                                       (uint32_t(rs1) << 7) | 0b10);
        }
        if (rd == 1) {  // c.jalr
          return static_cast<uint16_t>((0b100 << 13) | (1u << 12) |
                                       (uint32_t(rs1) << 7) | 0b10);
        }
      }
      return std::nullopt;
    case Op::kBeq:
    case Op::kBne:
      if (IsCompressedReg(rs1) && rs2 == 0 && FitsSigned(imm, 9) &&
          (imm & 1) == 0) {
        const uint32_t i = uint32_t(imm);
        const uint32_t funct3 = (in.op == Op::kBeq) ? 0b110 : 0b111;
        const uint32_t field =
            (((i >> 8) & 1) << 12) | (((i >> 3) & 3) << 10) |
            (CReg(rs1) << 7) | (((i >> 6) & 3) << 5) | (((i >> 1) & 3) << 3) |
            (((i >> 5) & 1) << 2);
        return static_cast<uint16_t>((funct3 << 13) | field | 0b01);
      }
      return std::nullopt;
    case Op::kEbreak:
      return static_cast<uint16_t>(0x9002);  // c.ebreak
    default:
      return std::nullopt;
  }
}

Result<std::vector<uint32_t>> EncodeProgram(const std::vector<Instr>& program,
                                            bool compress,
                                            std::vector<uint8_t>& out) {
  std::vector<uint32_t> offsets;
  offsets.reserve(program.size());
  for (const Instr& instr : program) {
    offsets.push_back(static_cast<uint32_t>(out.size()));
    if (compress) {
      if (const auto c16 = TryEncodeCompressed(instr)) {
        out.push_back(static_cast<uint8_t>(*c16 & 0xFF));
        out.push_back(static_cast<uint8_t>(*c16 >> 8));
        continue;
      }
    }
    Result<uint32_t> word = Encode32(instr);
    if (!word.ok()) return word.status();
    for (int b = 0; b < 4; ++b) {
      out.push_back(static_cast<uint8_t>(*word >> (8 * b)));
    }
  }
  return offsets;
}

Instr MakeR(Op op, uint8_t rd, uint8_t rs1, uint8_t rs2) {
  Instr i;
  i.op = op;
  i.rd = rd;
  i.rs1 = rs1;
  i.rs2 = rs2;
  return i;
}

Instr MakeI(Op op, uint8_t rd, uint8_t rs1, int64_t imm) {
  Instr i;
  i.op = op;
  i.rd = rd;
  i.rs1 = rs1;
  i.imm = imm;
  return i;
}

Instr MakeLoad(Op op, uint8_t rd, uint8_t base, int64_t offset) {
  return MakeI(op, rd, base, offset);
}

Instr MakeStore(Op op, uint8_t rs2, uint8_t base, int64_t offset) {
  Instr i;
  i.op = op;
  i.rs1 = base;
  i.rs2 = rs2;
  i.imm = offset;
  return i;
}

Instr MakeBranch(Op op, uint8_t rs1, uint8_t rs2, int64_t offset) {
  Instr i;
  i.op = op;
  i.rs1 = rs1;
  i.rs2 = rs2;
  i.imm = offset;
  return i;
}

Instr MakeLui(uint8_t rd, int64_t imm20) { return MakeI(Op::kLui, rd, 0, imm20); }
Instr MakeAuipc(uint8_t rd, int64_t imm20) {
  return MakeI(Op::kAuipc, rd, 0, imm20);
}
Instr MakeJal(uint8_t rd, int64_t offset) {
  return MakeI(Op::kJal, rd, 0, offset);
}
Instr MakeJalr(uint8_t rd, uint8_t rs1, int64_t offset) {
  return MakeI(Op::kJalr, rd, rs1, offset);
}
Instr MakeEcall() { return MakeI(Op::kEcall, 0, 0, 0); }
Instr MakeEbreak() { return MakeI(Op::kEbreak, 0, 0, 0); }
Instr MakeNop() { return MakeI(Op::kAddi, 0, 0, 0); }

}  // namespace eric::isa
