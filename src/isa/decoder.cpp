#include "isa/decoder.h"

#include "isa/forms.h"

namespace eric::isa {

Instr Decode32(uint32_t raw) {
  for (const OpInfo& row : RowsWithOpcode(raw)) {
    if ((raw & row.mask) == (row.match & row.mask)) {
      return Unpack(row.op, OperandsOf(row.form), raw, /*compressed=*/false);
    }
  }
  return Unpack(Op::kInvalid, {}, raw, /*compressed=*/false);
}

Instr DecodeCompressed(uint16_t raw) {
  for (const CompressedForm& form : CompressedFormsFor(raw)) {
    if ((raw & form.mask) != form.match) continue;
    const Instr in = Unpack(form.op, form.operands, raw, /*compressed=*/true);
    const bool reserved =
        ((form.flags & kReservedZeroReg) && ((raw >> 7) & 31) == 0) ||
        ((form.flags & kReservedZeroImm) && in.imm == 0);
    return reserved ? Unpack(Op::kInvalid, {}, raw, /*compressed=*/true) : in;
  }
  return Unpack(Op::kInvalid, {}, raw, /*compressed=*/true);
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
