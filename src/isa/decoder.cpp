#include "isa/decoder.h"

namespace eric::isa {
namespace {

int64_t SignExtend(uint64_t value, int bits) {
  const uint64_t sign = uint64_t{1} << (bits - 1);
  return static_cast<int64_t>((value ^ sign) - sign);
}

int64_t ImmI(uint32_t raw) { return SignExtend(raw >> 20, 12); }
int64_t ImmS(uint32_t raw) {
  return SignExtend(((raw >> 25) << 5) | ((raw >> 7) & 31), 12);
}
int64_t ImmB(uint32_t raw) {
  const uint64_t imm = (((raw >> 31) & 1) << 12) | (((raw >> 7) & 1) << 11) |
                       (((raw >> 25) & 0x3F) << 5) | (((raw >> 8) & 0xF) << 1);
  return SignExtend(imm, 13);
}
int64_t ImmU(uint32_t raw) { return SignExtend(raw >> 12, 20); }
int64_t ImmJ(uint32_t raw) {
  const uint64_t imm = (((raw >> 31) & 1) << 20) |
                       (((raw >> 12) & 0xFF) << 12) |
                       (((raw >> 20) & 1) << 11) | (((raw >> 21) & 0x3FF) << 1);
  return SignExtend(imm, 21);
}

Instr Make(Op op, uint8_t rd, uint8_t rs1, uint8_t rs2, int64_t imm,
           uint32_t raw, bool compressed = false) {
  Instr i;
  i.op = op;
  i.rd = rd;
  i.rs1 = rs1;
  i.rs2 = rs2;
  i.imm = imm;
  i.raw = raw;
  i.compressed = compressed;
  return i;
}

}  // namespace

Instr Decode32(uint32_t raw) {
  const auto rd = static_cast<uint8_t>((raw >> 7) & 31);
  const auto rs1 = static_cast<uint8_t>((raw >> 15) & 31);
  const auto rs2 = static_cast<uint8_t>((raw >> 20) & 31);
  for (const OpInfo& row : RowsWithOpcode(raw)) {
    if ((raw & row.mask) != (row.match & row.mask)) continue;
    const Op op = row.op;
    switch (row.form) {
      case Form::kRegReg:
      case Form::kAmo:
      case Form::kLr:
        return Make(op, rd, rs1, rs2, 0, raw);
      case Form::kRegImm:
      case Form::kLoad:
      case Form::kJalr:
        return Make(op, rd, rs1, 0, ImmI(raw), raw);
      case Form::kShift64: return Make(op, rd, rs1, 0, (raw >> 20) & 63, raw);
      case Form::kShiftW: return Make(op, rd, rs1, 0, (raw >> 20) & 31, raw);
      case Form::kCsr: return Make(op, rd, rs1, 0, raw >> 20, raw);
      case Form::kStore: return Make(op, 0, rs1, rs2, ImmS(raw), raw);
      case Form::kBranch: return Make(op, 0, rs1, rs2, ImmB(raw), raw);
      case Form::kUpper: return Make(op, rd, 0, 0, ImmU(raw), raw);
      case Form::kJal: return Make(op, rd, 0, 0, ImmJ(raw), raw);
      case Form::kFixed: return Make(op, 0, 0, 0, 0, raw);
    }
  }
  return Make(Op::kInvalid, 0, 0, 0, 0, raw);
}

Instr DecodeCompressed(uint16_t raw) {
  const uint32_t quadrant = raw & 0b11;
  const uint32_t f3 = (raw >> 13) & 0b111;
  auto creg = [](uint32_t bits) { return static_cast<uint8_t>(8 + (bits & 7)); };
  const uint8_t full_rd = static_cast<uint8_t>((raw >> 7) & 31);
  const uint8_t full_rs2 = static_cast<uint8_t>((raw >> 2) & 31);

  auto invalid = [&] {
    return Make(Op::kInvalid, 0, 0, 0, 0, raw, /*compressed=*/true);
  };
  auto make = [&](Op op, uint8_t rd, uint8_t rs1, uint8_t rs2, int64_t imm) {
    return Make(op, rd, rs1, rs2, imm, raw, /*compressed=*/true);
  };

  if (raw == 0) return invalid();  // defined illegal instruction

  switch (quadrant) {
    case 0b00: {
      const uint8_t rdp = creg(raw >> 2);
      const uint8_t rs1p = creg(raw >> 7);
      switch (f3) {
        case 0b000: {  // c.addi4spn
          const uint32_t imm = (((raw >> 11) & 3) << 4) |
                               (((raw >> 7) & 0xF) << 6) |
                               (((raw >> 6) & 1) << 2) | (((raw >> 5) & 1) << 3);
          if (imm == 0) return invalid();
          return make(Op::kAddi, rdp, 2, 0, imm);
        }
        case 0b010: {  // c.lw
          const uint32_t imm = (((raw >> 10) & 7) << 3) |
                               (((raw >> 6) & 1) << 2) | (((raw >> 5) & 1) << 6);
          return make(Op::kLw, rdp, rs1p, 0, imm);
        }
        case 0b011: {  // c.ld
          const uint32_t imm =
              (((raw >> 10) & 7) << 3) | (((raw >> 5) & 3) << 6);
          return make(Op::kLd, rdp, rs1p, 0, imm);
        }
        case 0b110: {  // c.sw
          const uint32_t imm = (((raw >> 10) & 7) << 3) |
                               (((raw >> 6) & 1) << 2) | (((raw >> 5) & 1) << 6);
          return make(Op::kSw, 0, rs1p, rdp, imm);
        }
        case 0b111: {  // c.sd
          const uint32_t imm =
              (((raw >> 10) & 7) << 3) | (((raw >> 5) & 3) << 6);
          return make(Op::kSd, 0, rs1p, rdp, imm);
        }
        default: return invalid();
      }
    }
    case 0b01: {
      switch (f3) {
        case 0b000: {  // c.addi / c.nop
          const int64_t imm =
              SignExtend((((raw >> 12) & 1) << 5) | ((raw >> 2) & 31), 6);
          return make(Op::kAddi, full_rd, full_rd, 0, imm);
        }
        case 0b001: {  // c.addiw
          if (full_rd == 0) return invalid();
          const int64_t imm =
              SignExtend((((raw >> 12) & 1) << 5) | ((raw >> 2) & 31), 6);
          return make(Op::kAddiw, full_rd, full_rd, 0, imm);
        }
        case 0b010: {  // c.li
          const int64_t imm =
              SignExtend((((raw >> 12) & 1) << 5) | ((raw >> 2) & 31), 6);
          return make(Op::kAddi, full_rd, 0, 0, imm);
        }
        case 0b011: {
          if (full_rd == 2) {  // c.addi16sp
            const int64_t imm = SignExtend(
                (((raw >> 12) & 1) << 9) | (((raw >> 6) & 1) << 4) |
                    (((raw >> 5) & 1) << 6) | (((raw >> 3) & 3) << 7) |
                    (((raw >> 2) & 1) << 5),
                10);
            if (imm == 0) return invalid();
            return make(Op::kAddi, 2, 2, 0, imm);
          }
          if (full_rd != 0) {  // c.lui
            const int64_t imm =
                SignExtend((((raw >> 12) & 1) << 5) | ((raw >> 2) & 31), 6);
            if (imm == 0) return invalid();
            return make(Op::kLui, full_rd, 0, 0, imm);
          }
          return invalid();
        }
        case 0b100: {
          const uint8_t rdp = creg(raw >> 7);
          const uint32_t sub = (raw >> 10) & 3;
          if (sub == 0b00 || sub == 0b01) {  // c.srli / c.srai
            const int64_t shamt = (((raw >> 12) & 1) << 5) | ((raw >> 2) & 31);
            if (shamt == 0) return invalid();
            return make(sub == 0b00 ? Op::kSrli : Op::kSrai, rdp, rdp, 0,
                        shamt);
          }
          if (sub == 0b10) {  // c.andi
            const int64_t imm =
                SignExtend((((raw >> 12) & 1) << 5) | ((raw >> 2) & 31), 6);
            return make(Op::kAndi, rdp, rdp, 0, imm);
          }
          // sub == 0b11: register-register
          const uint8_t rs2p = creg(raw >> 2);
          const uint32_t funct2 = (raw >> 5) & 3;
          if (((raw >> 12) & 1) == 0) {
            switch (funct2) {
              case 0b00: return make(Op::kSub, rdp, rdp, rs2p, 0);
              case 0b01: return make(Op::kXor, rdp, rdp, rs2p, 0);
              case 0b10: return make(Op::kOr, rdp, rdp, rs2p, 0);
              default: return make(Op::kAnd, rdp, rdp, rs2p, 0);
            }
          }
          switch (funct2) {
            case 0b00: return make(Op::kSubw, rdp, rdp, rs2p, 0);
            case 0b01: return make(Op::kAddw, rdp, rdp, rs2p, 0);
            default: return invalid();
          }
        }
        case 0b101: {  // c.j
          const int64_t imm = SignExtend(
              (((raw >> 12) & 1) << 11) | (((raw >> 11) & 1) << 4) |
                  (((raw >> 9) & 3) << 8) | (((raw >> 8) & 1) << 10) |
                  (((raw >> 7) & 1) << 6) | (((raw >> 6) & 1) << 7) |
                  (((raw >> 3) & 7) << 1) | (((raw >> 2) & 1) << 5),
              12);
          return make(Op::kJal, 0, 0, 0, imm);
        }
        case 0b110:
        case 0b111: {  // c.beqz / c.bnez
          const uint8_t rs1p = creg(raw >> 7);
          const int64_t imm = SignExtend(
              (((raw >> 12) & 1) << 8) | (((raw >> 10) & 3) << 3) |
                  (((raw >> 5) & 3) << 6) | (((raw >> 3) & 3) << 1) |
                  (((raw >> 2) & 1) << 5),
              9);
          return make(f3 == 0b110 ? Op::kBeq : Op::kBne, 0, rs1p, 0, imm);
        }
        default: return invalid();
      }
    }
    case 0b10: {
      switch (f3) {
        case 0b000: {  // c.slli
          const int64_t shamt = (((raw >> 12) & 1) << 5) | ((raw >> 2) & 31);
          if (full_rd == 0 || shamt == 0) return invalid();
          return make(Op::kSlli, full_rd, full_rd, 0, shamt);
        }
        case 0b010: {  // c.lwsp
          if (full_rd == 0) return invalid();
          const uint32_t imm = (((raw >> 12) & 1) << 5) |
                               (((raw >> 4) & 7) << 2) | (((raw >> 2) & 3) << 6);
          return make(Op::kLw, full_rd, 2, 0, imm);
        }
        case 0b011: {  // c.ldsp
          if (full_rd == 0) return invalid();
          const uint32_t imm = (((raw >> 12) & 1) << 5) |
                               (((raw >> 5) & 3) << 3) | (((raw >> 2) & 7) << 6);
          return make(Op::kLd, full_rd, 2, 0, imm);
        }
        case 0b100: {
          const bool bit12 = ((raw >> 12) & 1) != 0;
          if (!bit12) {
            if (full_rs2 == 0) {  // c.jr
              if (full_rd == 0) return invalid();
              return make(Op::kJalr, 0, full_rd, 0, 0);
            }
            return make(Op::kAdd, full_rd, 0, full_rs2, 0);  // c.mv
          }
          if (full_rd == 0 && full_rs2 == 0) {
            return make(Op::kEbreak, 0, 0, 0, 0);
          }
          if (full_rs2 == 0) {  // c.jalr
            return make(Op::kJalr, 1, full_rd, 0, 0);
          }
          return make(Op::kAdd, full_rd, full_rd, full_rs2, 0);  // c.add
        }
        case 0b110: {  // c.swsp
          const uint32_t imm =
              (((raw >> 9) & 0xF) << 2) | (((raw >> 7) & 3) << 6);
          return make(Op::kSw, 0, 2, full_rs2, imm);
        }
        case 0b111: {  // c.sdsp
          const uint32_t imm =
              (((raw >> 10) & 7) << 3) | (((raw >> 7) & 7) << 6);
          return make(Op::kSd, 0, 2, full_rs2, imm);
        }
        default: return invalid();
      }
    }
    default: return invalid();
  }
}

Result<Instr> DecodeAt(std::span<const uint8_t> bytes, size_t offset) {
  if (offset + 2 > bytes.size()) {
    return Status(ErrorCode::kParseError, "instruction overruns buffer");
  }
  const uint16_t half =
      static_cast<uint16_t>(bytes[offset] | (bytes[offset + 1] << 8));
  if (!IsWide(half)) return DecodeCompressed(half);
  if (offset + 4 > bytes.size()) {
    return Status(ErrorCode::kParseError, "32-bit instruction overruns buffer");
  }
  const uint32_t word = uint32_t(half) | (uint32_t(bytes[offset + 2]) << 16) |
                        (uint32_t(bytes[offset + 3]) << 24);
  return Decode32(word);
}

Result<std::vector<Instr>> DecodeStream(std::span<const uint8_t> bytes) {
  std::vector<Instr> out;
  size_t offset = 0;
  while (offset < bytes.size()) {
    Result<Instr> instr = DecodeAt(bytes, offset);
    if (!instr.ok()) return instr.status();
    offset += static_cast<size_t>(instr->SizeBytes());
    out.push_back(*std::move(instr));
  }
  return out;
}

}  // namespace eric::isa
