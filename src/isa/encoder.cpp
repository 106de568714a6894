#include "isa/encoder.h"

#include <string>

#include "isa/decoder.h"
#include "isa/forms.h"

namespace eric::isa {

Result<uint32_t> Encode32(const Instr& in) {
  const OpInfo& row = InfoOf(in.op);
  if (row.op == Op::kInvalid) {
    return Status(ErrorCode::kInvalidArgument, "cannot encode kInvalid");
  }
  const Operands& ops = OperandsOf(row.form);
  // Forms without an immediate ignore it.
  if (ops.imm.bits != 0 && !Fits(ops.imm, in.imm)) {
    return Status(ErrorCode::kInvalidArgument,
                  std::string(row.mnemonic) + " immediate " +
                      std::to_string(in.imm) + " does not fit in " +
                      std::to_string(ops.imm.bits) + " bits");
  }
  const uint32_t word = row.match | Pack(ops, in);
  // lr is the one row whose mask fixes an operand field (rs2 = x0).
  if ((word & row.mask) != (row.match & row.mask)) {
    return Status(ErrorCode::kInvalidArgument,
                  std::string(row.mnemonic) + " requires rs2 == x0");
  }
  return word;
}

std::optional<uint16_t> TryEncodeCompressed(const Instr& in) {
  // The operands the op has: a compressed form must give back exactly
  // these and, like Encode32, ignores the rest.
  const Operands& has = OperandsOf(InfoOf(in.op).form);
  for (const CompressedForm& form : CompressedFormsOf(in.op)) {
    if (((form.flags & kHintZeroRd) && in.rd == 0) ||
        ((form.flags & kHintZeroImm) && in.imm == 0)) {
      continue;
    }
    const auto half =
        static_cast<uint16_t>(form.match | Pack(form.operands, in));
    // Decoding the candidate is the whole eligibility check: a register
    // outside the form's class, an immediate out of range or misaligned,
    // a reserved word, or one an earlier row claims, all decode to
    // something else.
    const Instr back = DecodeCompressed(half);
    if (back.op == in.op && (has.rd.width == 0 || back.rd == in.rd) &&
        (has.rs1.width == 0 || back.rs1 == in.rs1) &&
        (has.rs2.width == 0 || back.rs2 == in.rs2) &&
        (has.imm.bits == 0 || back.imm == in.imm)) {
      return half;
    }
  }
  return std::nullopt;
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
