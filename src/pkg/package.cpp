#include "pkg/package.h"

#include <cstring>

namespace eric::pkg {
namespace {

constexpr char kMagic[8] = {'E', 'R', 'I', 'C', 'P', 'K', 'G', '1'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = 8 + 4 + 4 + 4 + 4 + 4 + 8;  // 36

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint32_t GetU32(std::span<const uint8_t> bytes, size_t offset) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= uint32_t(bytes[offset + i]) << (8 * i);
  return v;
}

uint64_t GetU64(std::span<const uint8_t> bytes, size_t offset) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= uint64_t(bytes[offset + i]) << (8 * i);
  return v;
}

Status Corrupt(const std::string& what) {
  return Status(ErrorCode::kCorruptPackage, what);
}

}  // namespace

std::string_view EncryptionModeName(EncryptionMode mode) {
  switch (mode) {
    case EncryptionMode::kNone: return "none";
    case EncryptionMode::kFull: return "full";
    case EncryptionMode::kPartial: return "partial";
    case EncryptionMode::kField: return "field";
  }
  return "unknown";
}

size_t Package::WireSize() const { return BreakdownOf(*this).total(); }

SizeBreakdown BreakdownOf(const Package& package) {
  SizeBreakdown b;
  b.header_bytes = kHeaderBytes;
  b.text_bytes = package.text.size();
  const bool has_map = package.mode == EncryptionMode::kPartial ||
                       package.mode == EncryptionMode::kField;
  b.map_bytes = has_map ? package.encryption_map.ByteSize() : 0;
  b.field_spec_bytes = (package.mode == EncryptionMode::kField)
                           ? package.field_specs.size() * 3
                           : 0;
  b.signature_bytes = package.signature.size();
  return b;
}

std::vector<uint8_t> Serialize(const Package& package) {
  std::vector<uint8_t> out(kMagic, kMagic + 8);
  out.reserve(package.WireSize());
  PutU32(out, kVersion);
  // Byte 0: encryption mode; byte 1: target ISA. Old parsers reject
  // non-zero ISA bytes as "bad mode flags", so an RV32I package can
  // never be misread as RV64GC by a stale device.
  const uint32_t flags = static_cast<uint32_t>(package.mode) |
                         (static_cast<uint32_t>(package.isa) << 8);
  PutU32(out, flags);
  PutU32(out, static_cast<uint32_t>(package.text.size()));
  PutU32(out, package.instr_count);
  PutU32(out, static_cast<uint32_t>(package.field_specs.size()));
  PutU64(out, package.key_epoch);

  out.insert(out.end(), package.text.begin(), package.text.end());
  if (package.mode == EncryptionMode::kPartial ||
      package.mode == EncryptionMode::kField) {
    const auto& map_bytes = package.encryption_map.bytes();
    out.insert(out.end(), map_bytes.begin(), map_bytes.end());
  }
  if (package.mode == EncryptionMode::kField) {
    for (const FieldSpec& spec : package.field_specs) {
      out.push_back(spec.op_class);
      out.push_back(spec.bit_lo);
      out.push_back(spec.bit_hi);
    }
  }
  out.insert(out.end(), package.signature.begin(), package.signature.end());
  return out;
}

Result<Package> Parse(std::span<const uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes) return Corrupt("truncated header");
  if (std::memcmp(bytes.data(), kMagic, 8) != 0) return Corrupt("bad magic");
  const uint32_t version = GetU32(bytes, 8);
  if (version != kVersion) {
    return Corrupt("unsupported version " + std::to_string(version));
  }
  const uint32_t flags = GetU32(bytes, 12);
  const uint32_t mode_bits = flags & 0xFF;
  const uint32_t isa_bits = (flags >> 8) & 0xFF;
  if (mode_bits > static_cast<uint32_t>(EncryptionMode::kField) ||
      (flags >> 16) != 0) {
    return Corrupt("bad mode flags");
  }
  const auto isa = isa::IsaFromWire(static_cast<uint8_t>(isa_bits));
  if (!isa) return Corrupt("unknown target isa " + std::to_string(isa_bits));
  Package p;
  p.mode = static_cast<EncryptionMode>(mode_bits);
  p.isa = *isa;
  const uint32_t text_size = GetU32(bytes, 16);
  p.instr_count = GetU32(bytes, 20);
  const uint32_t field_spec_count = GetU32(bytes, 24);
  p.key_epoch = GetU64(bytes, 28);

  if (p.mode != EncryptionMode::kField && field_spec_count != 0) {
    return Corrupt("field specs present without field mode");
  }

  // Every count below is bounded by the bytes left, in 64-bit arithmetic,
  // before anything is sized from it.
  size_t offset = kHeaderBytes;
  if (text_size > bytes.size() - offset) return Corrupt("truncated text");
  p.text.assign(bytes.begin() + offset, bytes.begin() + offset + text_size);
  offset += text_size;

  if (p.mode == EncryptionMode::kPartial || p.mode == EncryptionMode::kField) {
    const uint64_t map_bytes = (uint64_t{p.instr_count} + 7) / 8;
    if (map_bytes > bytes.size() - offset) return Corrupt("truncated map");
    const auto map = bytes.subspan(offset, map_bytes);
    // Bits past instr_count would be masked off and the package would not
    // re-serialise to the bytes it came from.
    const unsigned used_bits = p.instr_count % 8;
    if (used_bits != 0 && (map.back() >> used_bits) != 0) {
      return Corrupt("non-zero padding bits in encryption map");
    }
    p.encryption_map = BitVector::FromBytes(map, p.instr_count);
    offset += map_bytes;
  }

  if (p.mode == EncryptionMode::kField) {
    if (uint64_t{field_spec_count} * 3 > bytes.size() - offset) {
      return Corrupt("truncated field specs");
    }
    p.field_specs.reserve(field_spec_count);
    for (uint32_t i = 0; i < field_spec_count; ++i) {
      FieldSpec spec;
      spec.op_class = bytes[offset++];
      spec.bit_lo = bytes[offset++];
      spec.bit_hi = bytes[offset++];
      if (spec.bit_lo > spec.bit_hi || spec.bit_hi > 31) {
        return Corrupt("bad field spec range");
      }
      p.field_specs.push_back(spec);
    }
  }

  if (offset + p.signature.size() != bytes.size()) {
    return Corrupt("bad trailing length (signature)");
  }
  std::memcpy(p.signature.data(), bytes.data() + offset, p.signature.size());
  return p;
}

}  // namespace eric::pkg
