#include "isa/forms.h"

namespace eric::isa {
namespace {

constexpr Operands BuildOperands(Form form) {
  constexpr RegSlot rd = Field(7), rs1 = Field(15), rs2 = Field(20);
  switch (form) {
    case Form::kRegReg:
    case Form::kAmo:
    case Form::kLr:
      return {rd, rs1, rs2, {}};
    case Form::kRegImm:
    case Form::kLoad:
    case Form::kJalr:
      return {rd, rs1, kX0, Signed({{0, 12, 20}})};
    case Form::kShift64: return {rd, rs1, kX0, Unsigned({{0, 6, 20}})};
    case Form::kShiftW: return {rd, rs1, kX0, Unsigned({{0, 5, 20}})};
    case Form::kCsr: return {rd, rs1, kX0, Unsigned({{0, 12, 20}})};
    case Form::kStore:
      return {kX0, rs1, rs2, Signed({{0, 5, 7}, {5, 7, 25}})};
    case Form::kBranch:
      return {kX0, rs1, rs2,
              Signed({{11, 1, 7}, {1, 4, 8}, {5, 6, 25}, {12, 1, 31}})};
    case Form::kUpper: return {rd, kX0, kX0, Signed({{0, 20, 12}})};
    case Form::kJal:
      return {rd, kX0, kX0,
              Signed({{12, 8, 12}, {11, 1, 20}, {1, 10, 21}, {20, 1, 31}})};
    case Form::kFixed: break;
  }
  return {};
}

constexpr size_t kNumForms = static_cast<size_t>(Form::kFixed) + 1;

constexpr std::array<Operands, kNumForms> BuildFormOperands() {
  std::array<Operands, kNumForms> table{};
  for (size_t f = 0; f < kNumForms; ++f) {
    table[f] = BuildOperands(static_cast<Form>(f));
  }
  return table;
}

constexpr std::array<Operands, kNumForms> kFormOperands = BuildFormOperands();

// --- RVC ---------------------------------------------------------------------

// Bits that select a compressed form: quadrant and funct3 always, then
// bit 12, the funct2 pairs at 11..10 and 6..5, or register fields.
constexpr uint16_t kCBase = 0xE003;
constexpr uint16_t kCBit12 = 0x1000;
constexpr uint16_t kCFunct2Hi = 0x0C00;
constexpr uint16_t kCFunct2Lo = 0x0060;
constexpr uint16_t kCRdField = 0x0F80;
constexpr uint16_t kCRs2Field = 0x007C;

constexpr uint16_t CMatch(uint16_t quadrant, uint16_t funct3,
                          uint16_t other_bits = 0) {
  return static_cast<uint16_t>((funct3 << 13) | other_bits | quadrant);
}

constexpr ImmLayout kCImm6 = Signed({{0, 5, 2}, {5, 1, 12}});
constexpr ImmLayout kCShamt = Unsigned({{0, 5, 2}, {5, 1, 12}});
constexpr ImmLayout kCLwOffset = Unsigned({{3, 3, 10}, {2, 1, 6}, {6, 1, 5}});
constexpr ImmLayout kCLdOffset = Unsigned({{3, 3, 10}, {6, 2, 5}});
constexpr ImmLayout kCBranchOffset =
    Signed({{8, 1, 12}, {3, 2, 10}, {6, 2, 5}, {1, 2, 3}, {5, 1, 2}});

// c.sub, c.xor, c.or, c.and, c.subw, c.addw: x8..x15 operands, rd = rs1.
constexpr CompressedForm CArith(Op op, uint16_t bit12, uint16_t funct2) {
  return {op,
          CMatch(0b01, 0b100, (bit12 << 12) | (0b11 << 10) | (funct2 << 5)),
          kCBase | kCBit12 | kCFunct2Hi | kCFunct2Lo,
          {Prime(7), Prime(7), Prime(2), {}}};
}

// Adding a compressed form is one row. Row order is the encoder's
// preference among one op's forms (c.addi before c.addi16sp), and, within
// a (quadrant, funct3) bucket, the decoder's: an exact or narrower row
// precedes the wider row it overlaps (c.addi16sp before c.lui, c.jr before
// c.mv, c.ebreak before c.jalr and c.add).
constexpr CompressedForm kCompressedForms[] = {
    // op, match, mask, {rd, rs1, rs2, imm}, flags
    // Quadrant 0.
    {Op::kAddi, CMatch(0b00, 0b000), kCBase,  // c.addi4spn
     {Prime(2), kSp, kX0,
      Unsigned({{4, 2, 11}, {6, 4, 7}, {2, 1, 6}, {3, 1, 5}})},
     kReservedZeroImm},
    {Op::kLw, CMatch(0b00, 0b010), kCBase,  // c.lw
     {Prime(2), Prime(7), kX0, kCLwOffset}},
    {Op::kLd, CMatch(0b00, 0b011), kCBase,  // c.ld
     {Prime(2), Prime(7), kX0, kCLdOffset}},
    {Op::kSw, CMatch(0b00, 0b110), kCBase,  // c.sw
     {kX0, Prime(7), Prime(2), kCLwOffset}},
    {Op::kSd, CMatch(0b00, 0b111), kCBase,  // c.sd
     {kX0, Prime(7), Prime(2), kCLdOffset}},
    // Quadrant 1.
    {Op::kAddi, CMatch(0b01, 0b000), 0xFFFF, {}},  // c.nop
    {Op::kAddi, CMatch(0b01, 0b000), kCBase,       // c.addi
     {Field(7), Field(7), kX0, kCImm6}, kHintZeroRd | kHintZeroImm},
    {Op::kAddiw, CMatch(0b01, 0b001), kCBase,  // c.addiw
     {Field(7), Field(7), kX0, kCImm6}, kReservedZeroReg},
    {Op::kAddi, CMatch(0b01, 0b010), kCBase,  // c.li
     {Field(7), kX0, kX0, kCImm6}, kHintZeroRd},
    {Op::kAddi, CMatch(0b01, 0b011, 2 << 7), kCBase | kCRdField,  // c.addi16sp
     {kSp, kSp, kX0,
      Signed({{4, 1, 6}, {6, 1, 5}, {7, 2, 3}, {5, 1, 2}, {9, 1, 12}})},
     kReservedZeroImm},
    {Op::kLui, CMatch(0b01, 0b011), kCBase,  // c.lui
     {Field(7), kX0, kX0, kCImm6}, kReservedZeroReg | kReservedZeroImm},
    {Op::kSrli, CMatch(0b01, 0b100, 0b00 << 10), kCBase | kCFunct2Hi,
     {Prime(7), Prime(7), kX0, kCShamt}, kReservedZeroImm},  // c.srli
    {Op::kSrai, CMatch(0b01, 0b100, 0b01 << 10), kCBase | kCFunct2Hi,
     {Prime(7), Prime(7), kX0, kCShamt}, kReservedZeroImm},  // c.srai
    {Op::kAndi, CMatch(0b01, 0b100, 0b10 << 10), kCBase | kCFunct2Hi,
     {Prime(7), Prime(7), kX0, kCImm6}},  // c.andi
    CArith(Op::kSub, 0, 0b00),
    CArith(Op::kXor, 0, 0b01),
    CArith(Op::kOr, 0, 0b10),
    CArith(Op::kAnd, 0, 0b11),
    CArith(Op::kSubw, 1, 0b00),
    CArith(Op::kAddw, 1, 0b01),
    {Op::kJal, CMatch(0b01, 0b101), kCBase,  // c.j
     {kX0, kX0, kX0,
      Signed({{11, 1, 12}, {4, 1, 11}, {8, 2, 9}, {10, 1, 8}, {6, 1, 7},
              {7, 1, 6}, {1, 3, 3}, {5, 1, 2}})}},
    {Op::kBeq, CMatch(0b01, 0b110), kCBase,  // c.beqz
     {kX0, Prime(7), kX0, kCBranchOffset}},
    {Op::kBne, CMatch(0b01, 0b111), kCBase,  // c.bnez
     {kX0, Prime(7), kX0, kCBranchOffset}},
    // Quadrant 2.
    {Op::kSlli, CMatch(0b10, 0b000), kCBase,  // c.slli
     {Field(7), Field(7), kX0, kCShamt}, kReservedZeroReg | kReservedZeroImm},
    {Op::kLw, CMatch(0b10, 0b010), kCBase,  // c.lwsp
     {Field(7), kSp, kX0, Unsigned({{5, 1, 12}, {2, 3, 4}, {6, 2, 2}})},
     kReservedZeroReg},
    {Op::kLd, CMatch(0b10, 0b011), kCBase,  // c.ldsp
     {Field(7), kSp, kX0, Unsigned({{5, 1, 12}, {3, 2, 5}, {6, 3, 2}})},
     kReservedZeroReg},
    {Op::kJalr, CMatch(0b10, 0b100), kCBase | kCBit12 | kCRs2Field,  // c.jr
     {kX0, Field(7), kX0, {}}, kReservedZeroReg},
    {Op::kAdd, CMatch(0b10, 0b100), kCBase | kCBit12,  // c.mv
     {Field(7), kX0, Field(2), {}}, kHintZeroRd},
    {Op::kEbreak, CMatch(0b10, 0b100, kCBit12), 0xFFFF, {}},  // c.ebreak
    {Op::kJalr, CMatch(0b10, 0b100, kCBit12),  // c.jalr
     kCBase | kCBit12 | kCRs2Field, {kRa, Field(7), kX0, {}}},
    {Op::kAdd, CMatch(0b10, 0b100, kCBit12), kCBase | kCBit12,  // c.add
     {Field(7), Field(7), Field(2), {}}, kHintZeroRd},
    {Op::kSw, CMatch(0b10, 0b110), kCBase,  // c.swsp
     {kX0, kSp, Field(2), Unsigned({{2, 4, 9}, {6, 2, 7}})}},
    {Op::kSd, CMatch(0b10, 0b111), kCBase,  // c.sdsp
     {kX0, kSp, Field(2), Unsigned({{3, 3, 10}, {6, 3, 7}})}},
};

// Bucket of a halfword: funct3 above the quadrant (quadrant 3 holds no
// compressed forms, so its buckets stay empty).
constexpr size_t CBucket(uint32_t raw) {
  return ((raw >> 11) & 0x1C) | (raw & 3);
}

constexpr auto kCompressedByBucket = BuildRowIndex<32>(
    kCompressedForms,
    [](const CompressedForm& form) { return CBucket(form.match); });

constexpr auto kCompressedByOp = BuildRowIndex<kNumOps>(
    kCompressedForms,
    [](const CompressedForm& form) { return static_cast<size_t>(form.op); });

}  // namespace

const Operands& OperandsOf(Form form) {
  return kFormOperands[static_cast<size_t>(form)];
}

std::span<const CompressedForm> CompressedFormsOf(Op op) {
  const auto i = static_cast<size_t>(op);
  if (i >= kNumOps) return {};
  return kCompressedByOp.at(i);
}

std::span<const CompressedForm> CompressedFormsFor(uint16_t half) {
  return kCompressedByBucket.at(CBucket(half));
}

}  // namespace eric::isa
