// Operand placement for both encoding widths: where a 32-bit form or a
// 16-bit compressed (RVC) form keeps each register operand and each
// immediate bit. Private to src/isa: Encode32 and TryEncodeCompressed pack
// operands with these layouts and Decode32 and DecodeCompressed unpack
// them, so every layout is written once.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>

#include "isa/instruction.h"

namespace eric::isa {

/// Bits [imm_lo, imm_lo + width) of an immediate sit at bits
/// [inst_lo, inst_lo + width) of the encoding.
struct BitRun {
  uint8_t imm_lo;
  uint8_t width;
  uint8_t inst_lo;
};

/// Where an immediate's bits sit in an encoding, and whether the highest
/// placed bit is its sign. Immediate bits no run covers are zero, which is
/// how scaled offsets (even jump targets, aligned load offsets) are read.
struct ImmLayout {
  std::array<BitRun, 8> runs{};
  uint8_t count = 0;
  uint8_t bits = 0;  ///< one past the highest placed bit; 0 = no immediate
  bool is_signed = false;

  constexpr ImmLayout() = default;
  constexpr ImmLayout(bool sign, std::initializer_list<BitRun> list)
      : is_signed(sign) {
    for (const BitRun& run : list) {
      runs[count++] = run;
      if (run.imm_lo + run.width > bits) bits = run.imm_lo + run.width;
    }
  }
};

constexpr ImmLayout Signed(std::initializer_list<BitRun> runs) {
  return {true, runs};
}
constexpr ImmLayout Unsigned(std::initializer_list<BitRun> runs) {
  return {false, runs};
}

/// The encoding bits that hold `imm` under `layout` (bits of `imm` the
/// layout does not place are dropped).
constexpr uint32_t Scatter(const ImmLayout& layout, int64_t imm) {
  uint32_t raw = 0;
  for (uint8_t i = 0; i < layout.count; ++i) {
    const BitRun run = layout.runs[i];
    const uint64_t field =
        (static_cast<uint64_t>(imm) >> run.imm_lo) & ((1u << run.width) - 1);
    raw |= static_cast<uint32_t>(field) << run.inst_lo;
  }
  return raw;
}

/// The immediate `raw` holds under `layout`, sign-extended if signed.
constexpr int64_t Gather(const ImmLayout& layout, uint32_t raw) {
  uint64_t imm = 0;
  for (uint8_t i = 0; i < layout.count; ++i) {
    const BitRun run = layout.runs[i];
    imm |= uint64_t{(raw >> run.inst_lo) & ((1u << run.width) - 1)}
           << run.imm_lo;
  }
  if (!layout.is_signed) return static_cast<int64_t>(imm);
  const uint64_t sign = uint64_t{1} << (layout.bits - 1);
  return static_cast<int64_t>((imm ^ sign) - sign);
}

/// True when `imm` survives placement, which covers the layout's width,
/// its signedness and its alignment at once. An empty layout holds 0.
constexpr bool Fits(const ImmLayout& layout, int64_t imm) {
  return Gather(layout, Scatter(layout, imm)) == imm;
}

/// Where an encoding keeps one register operand: `width` bits at `lo`
/// holding the register number minus `base`. Width 5 is a full register
/// field, width 3 with base 8 an RVC x8..x15 field, and width 0 the
/// register `base` that the form implies. Two-address RVC forms give rs1
/// the same slot as rd.
struct RegSlot {
  uint8_t lo = 0;
  uint8_t width = 0;
  uint8_t base = 0;
};

inline constexpr RegSlot kX0{};
inline constexpr RegSlot kRa{0, 0, 1};
inline constexpr RegSlot kSp{0, 0, 2};
constexpr RegSlot Field(uint8_t lo) { return {lo, 5, 0}; }
constexpr RegSlot Prime(uint8_t lo) { return {lo, 3, 8}; }

/// How one encoding places its operands.
struct Operands {
  RegSlot rd, rs1, rs2;
  ImmLayout imm;
};

constexpr uint32_t Pack(const Operands& ops, const Instr& in) {
  auto put = [](RegSlot slot, uint8_t reg) {
    return static_cast<uint32_t>((reg - slot.base) & ((1u << slot.width) - 1))
           << slot.lo;
  };
  return put(ops.rd, in.rd) | put(ops.rs1, in.rs1) | put(ops.rs2, in.rs2) |
         Scatter(ops.imm, in.imm);
}

constexpr Instr Unpack(Op op, const Operands& ops, uint32_t raw,
                       bool compressed) {
  auto get = [raw](RegSlot slot) {
    return static_cast<uint8_t>(slot.base +
                                ((raw >> slot.lo) & ((1u << slot.width) - 1)));
  };
  Instr in;
  in.op = op;
  in.rd = get(ops.rd);
  in.rs1 = get(ops.rs1);
  in.rs2 = get(ops.rs2);
  in.imm = Gather(ops.imm, raw);
  in.raw = raw;
  in.compressed = compressed;
  return in;
}

/// The operand placement of a 32-bit form (the RV_ISA_*_TYPE layouts).
/// An op of that form has exactly the operands placed there: registers
/// with a non-zero slot width, and an immediate if `imm.bits` is non-zero.
const Operands& OperandsOf(Form form);

/// Compressed-form flags: reserved encodings decode as Op::kInvalid;
/// hints decode normally but the encoder never emits them.
enum CompressedFlag : uint8_t {
  kReservedZeroReg = 1,  ///< register field 11..7 = x0 is reserved
  kReservedZeroImm = 2,  ///< a zero immediate is reserved
  kHintZeroRd = 4,       ///< rd = x0 is a hint
  kHintZeroImm = 8,      ///< imm = 0 is a hint
};

/// One RVC form: halfwords with `(raw & mask) == match` are `op` with
/// operands placed by `operands`.
struct CompressedForm {
  Op op;
  uint16_t match;
  uint16_t mask;
  Operands operands;
  uint8_t flags = 0;
};

/// The RVC forms of `op`, in table order: the encoder's preference.
std::span<const CompressedForm> CompressedFormsOf(Op op);

/// The forms sharing `half`'s quadrant and funct3, in table order: the
/// decoder's only candidates, the first match wins.
std::span<const CompressedForm> CompressedFormsFor(uint16_t half);

/// `table` regrouped by `key(row)`, table order kept within a key; rows
/// whose key is kKeys or more are left out. A decoder then scans only the
/// rows that share its word's key.
template <typename Row, size_t kRows, size_t kKeys>
struct RowIndex {
  Row rows[kRows];
  uint8_t begin[kKeys + 1];

  constexpr std::span<const Row> at(size_t key) const {
    return {rows + begin[key], rows + begin[key + 1]};
  }
};

template <size_t kKeys, typename Row, size_t kRows, typename Key>
constexpr RowIndex<Row, kRows, kKeys> BuildRowIndex(const Row (&table)[kRows],
                                                    Key key) {
  static_assert(kRows < 256, "RowIndex::begin holds row counts");
  RowIndex<Row, kRows, kKeys> index{};
  uint8_t next = 0;
  for (size_t k = 0; k < kKeys; ++k) {
    index.begin[k] = next;
    for (const Row& row : table) {
      if (key(row) == k) index.rows[next++] = row;
    }
  }
  index.begin[kKeys] = next;
  return index;
}

}  // namespace eric::isa
