// ISA backends: one object per target ISA bundling identity, word width,
// encode/decode, branch reach, and compression capability.
//
// The pipeline was originally hard-coded to a single RV64GC subset; a
// fleet of millions of devices is never single-ISA. Everything that used
// to assume "the" ISA — codegen layout, the simulator fetch path, the
// HDE's decrypt walk, package cache keys, delta-base eligibility — now
// asks a backend instead. Two backends exist:
//
//  * `kRv64Gc`: the original RV64I+M+A+Zicsr+C subset. Full `Op` coverage,
//    8-byte words, compressed (RVC) forms preferred by codegen.
//  * `kRv32I`: RV32I+Zicsr only — no M, no A, no C. 4-byte words, every
//    instruction is exactly 4 bytes, shift amounts are 5 bits, and the
//    64-bit-only operations (`ld`/`sd`/`lwu`, the W forms, atomics,
//    multiply/divide) are rejected fail-closed at encode, decode, and
//    execute time.
//
// Backends are stateless singletons: `BackendFor(id)` returns a reference
// that lives for the process, so hot paths hold `const IsaBackend*`
// without ownership questions.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "isa/decoder.h"
#include "isa/encoder.h"
#include "isa/instruction.h"
#include "support/status.h"

namespace eric::isa {

/// Wire-stable ISA identifier. Persisted in package flags, registry WAL
/// records and snapshots (legacy delivery manifests included) — never
/// renumber.
enum class IsaId : uint8_t {
  kRv64Gc = 0,  ///< RV64I+M+A+Zicsr+C subset (the original target)
  kRv32I = 1,   ///< RV32I+Zicsr, uncompressed only
};

/// Number of IsaId values (per-ISA stat array sizing).
inline constexpr size_t kNumIsaIds = 2;

/// One target ISA: identity, widths, capabilities, and codec.
class IsaBackend {
 public:
  virtual ~IsaBackend() = default;

  /// Stable identifier (what gets persisted).
  virtual IsaId id() const = 0;

  /// Canonical lowercase name ("rv64gc", "rv32i").
  virtual std::string_view name() const = 0;

  /// Register / address width in bits (64 or 32).
  virtual unsigned xlen() const = 0;

  /// Natural word size in bytes (8 or 4): stack-slot stride, global
  /// element size, and image data alignment in codegen.
  virtual size_t word_bytes() const = 0;

  /// True when the ISA has 16-bit compressed forms codegen may emit.
  virtual bool supports_compressed() const = 0;

  /// True when `op` exists on this ISA. Codegen, the encoder, the
  /// decoder, and the simulator all gate on this, so an unsupported
  /// operation can neither be emitted, nor decoded, nor executed.
  virtual bool SupportsOp(Op op) const = 0;

  /// Encodes the 4-byte form; kInvalidArgument for unsupported ops or
  /// out-of-range immediates (on RV32 that includes shamt >= 32).
  virtual Result<uint32_t> Encode(const Instr& instr) const = 0;

  /// Attempts the 2-byte form; always nullopt on ISAs without C.
  virtual std::optional<uint16_t> EncodeCompressed(const Instr& instr) const = 0;

  /// Decodes a 4-byte encoding. Encodings that are valid bit patterns on
  /// a wider ISA but not on this one (e.g. `ld`, or a shamt with bit 25
  /// set, on RV32I) decode to Op::kInvalid — same contract as Decode32.
  virtual Instr Decode(uint32_t raw) const = 0;

  /// Decodes a 2-byte encoding; Op::kInvalid on ISAs without C.
  virtual Instr DecodeCompressed(uint16_t raw) const = 0;

  /// Conditional-branch reach in bytes from the branch (B-type: ±4 KiB on
  /// both RISC-V backends; part of the interface so layout never assumes).
  virtual int64_t branch_range() const { return 1 << 12; }

  /// Unconditional-jump reach in bytes (J-type: ±1 MiB).
  virtual int64_t jump_range() const { return 1 << 20; }
};

/// The process-lifetime backend for `id`.
const IsaBackend& BackendFor(IsaId id);

/// Canonical name for `id` ("rv64gc" / "rv32i").
std::string_view IsaName(IsaId id);

/// Parses a canonical name; nullopt for unknown names.
std::optional<IsaId> ParseIsaName(std::string_view name);

/// Validates a wire byte (package flags, WAL records, snapshots) before
/// casting it to IsaId; nullopt for values no backend claims.
std::optional<IsaId> IsaFromWire(uint8_t value);

}  // namespace eric::isa
