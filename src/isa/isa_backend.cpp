#include "isa/isa_backend.h"

namespace eric::isa {

namespace {

/// RV64GC subset: the original target. Full Op coverage; delegates
/// straight to the existing encoder/decoder.
class Rv64GcBackend final : public IsaBackend {
 public:
  IsaId id() const override { return IsaId::kRv64Gc; }
  std::string_view name() const override { return "rv64gc"; }
  unsigned xlen() const override { return 64; }
  size_t word_bytes() const override { return 8; }
  bool supports_compressed() const override { return true; }

  bool SupportsOp(Op op) const override { return op != Op::kInvalid; }

  Result<uint32_t> Encode(const Instr& instr) const override {
    return Encode32(instr);
  }
  std::optional<uint16_t> EncodeCompressed(const Instr& instr) const override {
    return TryEncodeCompressed(instr);
  }
  Instr Decode(uint32_t raw) const override { return Decode32(raw); }
  Instr DecodeCompressed(uint16_t raw) const override {
    return isa::DecodeCompressed(raw);
  }
};

// The 6-bit RV64 shift-amount form; RV32 allows only 5 bits of it.
bool IsShiftImm(Op op) { return InfoOf(op).form == Form::kShift64; }

/// RV32I+Zicsr: no M, no A, no C; 5-bit shift amounts. The base-format
/// bit layouts are shared with RV64, so encode/decode reuse the existing
/// codec behind fail-closed filters.
class Rv32IBackend final : public IsaBackend {
 public:
  IsaId id() const override { return IsaId::kRv32I; }
  std::string_view name() const override { return "rv32i"; }
  unsigned xlen() const override { return 32; }
  size_t word_bytes() const override { return 4; }
  bool supports_compressed() const override { return false; }

  // RV32I (+Zicsr, which the simulator's cycle/instret CSR file needs):
  // the table's rv32 column excludes ld/sd/lwu, the W forms and M/A.
  bool SupportsOp(Op op) const override { return InfoOf(op).rv32; }

  Result<uint32_t> Encode(const Instr& instr) const override {
    if (!SupportsOp(instr.op)) {
      return Status(ErrorCode::kInvalidArgument,
                    "rv32i: unsupported operation");
    }
    if (IsShiftImm(instr.op) && (instr.imm < 0 || instr.imm > 31)) {
      return Status(ErrorCode::kInvalidArgument,
                    "rv32i: shift amount out of range");
    }
    return Encode32(instr);
  }

  std::optional<uint16_t> EncodeCompressed(const Instr&) const override {
    return std::nullopt;  // RV32I carries no C extension
  }

  Instr Decode(uint32_t raw) const override {
    Instr instr = Decode32(raw);
    // A shamt with bit 25 set decodes as a 6-bit RV64 shift; on RV32 that
    // bit must be zero, so the whole encoding is illegal, not a mod-32
    // shift (fail closed, never a silently different result).
    if (!SupportsOp(instr.op) ||
        (IsShiftImm(instr.op) && instr.imm > 31)) {
      Instr invalid;
      invalid.raw = raw;
      return invalid;
    }
    return instr;
  }

  Instr DecodeCompressed(uint16_t raw) const override {
    Instr invalid;
    invalid.raw = raw;
    return invalid;  // no 16-bit encodings exist on this ISA
  }
};

const Rv64GcBackend kRv64GcBackend;
const Rv32IBackend kRv32IBackend;

}  // namespace

const IsaBackend& BackendFor(IsaId id) {
  switch (id) {
    case IsaId::kRv32I:
      return kRv32IBackend;
    case IsaId::kRv64Gc:
    default:
      return kRv64GcBackend;
  }
}

std::string_view IsaName(IsaId id) { return BackendFor(id).name(); }

std::optional<IsaId> ParseIsaName(std::string_view name) {
  if (name == "rv64gc") return IsaId::kRv64Gc;
  if (name == "rv32i") return IsaId::kRv32I;
  return std::nullopt;
}

std::optional<IsaId> IsaFromWire(uint8_t value) {
  if (value > static_cast<uint8_t>(IsaId::kRv32I)) return std::nullopt;
  return static_cast<IsaId>(value);
}

}  // namespace eric::isa
