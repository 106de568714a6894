#include "isa/disassembler.h"

#include "isa/decoder.h"
#include "support/hex.h"

namespace eric::isa {
namespace {

std::string Reg(uint8_t r) { return std::string(AbiRegName(r)); }

}  // namespace

std::string Disassemble(const Instr& in) {
  const OpInfo& row = InfoOf(in.op);
  if (row.op == Op::kInvalid) {
    return ".insn " + (in.compressed ? Hex32(in.raw & 0xFFFF) : Hex32(in.raw));
  }
  const std::string name(row.mnemonic);
  const std::string imm = std::to_string(in.imm);
  switch (row.form) {
    case Form::kRegReg:
      return name + " " + Reg(in.rd) + ", " + Reg(in.rs1) + ", " + Reg(in.rs2);
    case Form::kRegImm:
    case Form::kShift64:
    case Form::kShiftW:
      return name + " " + Reg(in.rd) + ", " + Reg(in.rs1) + ", " + imm;
    case Form::kLoad:
    case Form::kJalr:
      return name + " " + Reg(in.rd) + ", " + imm + "(" + Reg(in.rs1) + ")";
    case Form::kStore:
      return name + " " + Reg(in.rs2) + ", " + imm + "(" + Reg(in.rs1) + ")";
    case Form::kBranch:
      return name + " " + Reg(in.rs1) + ", " + Reg(in.rs2) + ", " + imm;
    case Form::kUpper:
    case Form::kJal:
      return name + " " + Reg(in.rd) + ", " + imm;
    case Form::kCsr:
      return name + " " + Reg(in.rd) + ", " + imm + ", " + Reg(in.rs1);
    case Form::kAmo:
      return name + " " + Reg(in.rd) + ", " + Reg(in.rs2) + ", (" +
             Reg(in.rs1) + ")";
    case Form::kLr:
      return name + " " + Reg(in.rd) + ", (" + Reg(in.rs1) + ")";
    case Form::kFixed:
      break;
  }
  return name;
}

std::string DisassembleStream(std::span<const uint8_t> bytes,
                              uint64_t base_address) {
  std::string out;
  size_t offset = 0;
  while (offset < bytes.size()) {
    Result<Instr> instr = DecodeAt(bytes, offset);
    out += Hex64(base_address + offset);
    out += ":  ";
    if (!instr.ok()) {
      out += ".byte ...trailing...\n";
      break;
    }
    out += Disassemble(*instr);
    out += '\n';
    offset += static_cast<size_t>(instr->SizeBytes());
  }
  return out;
}

}  // namespace eric::isa
