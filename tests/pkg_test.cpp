// Package wire-format tests: serialization, parsing, structural
// validation, and size accounting.
#include <gtest/gtest.h>

#include "pkg/package.h"
#include "support/rng.h"

namespace eric::pkg {
namespace {

Package SamplePackage(EncryptionMode mode) {
  Package p;
  p.mode = mode;
  p.instr_count = 10;
  p.key_epoch = 3;
  p.text.resize(44);
  for (size_t i = 0; i < p.text.size(); ++i) {
    p.text[i] = static_cast<uint8_t>(i * 7);
  }
  if (mode == EncryptionMode::kPartial || mode == EncryptionMode::kField) {
    p.encryption_map = BitVector(10);
    p.encryption_map.Set(2, true);
    p.encryption_map.Set(9, true);
  }
  if (mode == EncryptionMode::kField) {
    p.field_specs.push_back(FieldSpec{4, 20, 31});
  }
  for (size_t i = 0; i < p.signature.size(); ++i) {
    p.signature[i] = static_cast<uint8_t>(0xA0 + i);
  }
  return p;
}

class ModeRoundtripTest : public ::testing::TestWithParam<EncryptionMode> {};

TEST_P(ModeRoundtripTest, SerializeParseRoundtrip) {
  const Package original = SamplePackage(GetParam());
  const auto wire = Serialize(original);
  EXPECT_EQ(wire.size(), original.WireSize());
  auto parsed = Parse(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->mode, original.mode);
  EXPECT_EQ(parsed->instr_count, original.instr_count);
  EXPECT_EQ(parsed->key_epoch, original.key_epoch);
  EXPECT_EQ(parsed->text, original.text);
  EXPECT_EQ(parsed->signature, original.signature);
  if (GetParam() == EncryptionMode::kPartial ||
      GetParam() == EncryptionMode::kField) {
    EXPECT_EQ(parsed->encryption_map, original.encryption_map);
  }
  if (GetParam() == EncryptionMode::kField) {
    ASSERT_EQ(parsed->field_specs.size(), 1u);
    EXPECT_EQ(parsed->field_specs[0].bit_lo, 20);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, ModeRoundtripTest,
                         ::testing::Values(EncryptionMode::kNone,
                                           EncryptionMode::kFull,
                                           EncryptionMode::kPartial,
                                           EncryptionMode::kField),
                         [](const auto& info) {
                           return std::string(
                               EncryptionModeName(info.param));
                         });

TEST(ParseTest, RejectsBadMagic) {
  auto wire = Serialize(SamplePackage(EncryptionMode::kFull));
  wire[0] = 'X';
  EXPECT_EQ(Parse(wire).status().code(), ErrorCode::kCorruptPackage);
}

TEST(ParseTest, RejectsBadVersion) {
  auto wire = Serialize(SamplePackage(EncryptionMode::kFull));
  wire[8] = 99;
  EXPECT_EQ(Parse(wire).status().code(), ErrorCode::kCorruptPackage);
}

TEST(ParseTest, RejectsBadMode) {
  auto wire = Serialize(SamplePackage(EncryptionMode::kFull));
  wire[12] = 77;
  EXPECT_EQ(Parse(wire).status().code(), ErrorCode::kCorruptPackage);
}

TEST(ParseTest, RejectsShortHeader) {
  EXPECT_EQ(Parse(std::vector<uint8_t>(10, 0)).status().code(),
            ErrorCode::kCorruptPackage);
}

TEST(ParseTest, RejectsTruncatedText) {
  auto wire = Serialize(SamplePackage(EncryptionMode::kFull));
  wire.resize(wire.size() - 40);  // removes signature + some text
  EXPECT_FALSE(Parse(wire).ok());
}

TEST(ParseTest, RejectsTrailingGarbage) {
  auto wire = Serialize(SamplePackage(EncryptionMode::kFull));
  wire.push_back(0);
  EXPECT_FALSE(Parse(wire).ok());
}

TEST(ParseTest, RejectsFieldSpecsWithoutFieldMode) {
  auto wire = Serialize(SamplePackage(EncryptionMode::kFull));
  wire[24] = 1;  // field_spec_count = 1 but mode = full
  EXPECT_FALSE(Parse(wire).ok());
}

TEST(ParseTest, RejectsBadFieldSpecRange) {
  Package p = SamplePackage(EncryptionMode::kField);
  p.field_specs[0].bit_lo = 30;
  p.field_specs[0].bit_hi = 20;  // inverted
  EXPECT_FALSE(Parse(Serialize(p)).ok());
}

void PutU32At(std::vector<uint8_t>& wire, size_t offset, uint32_t value) {
  for (int b = 0; b < 4; ++b) {
    wire[offset + static_cast<size_t>(b)] =
        static_cast<uint8_t>(value >> (8 * b));
  }
}

// (instr_count + 7) / 8 wraps to a 0-byte map in 32-bit arithmetic; the
// map must instead be found ~512 MiB longer than the package.
TEST(ParseTest, RejectsInstrCountThatWrapsTheMapSize) {
  for (EncryptionMode mode :
       {EncryptionMode::kPartial, EncryptionMode::kField}) {
    auto wire = Serialize(SamplePackage(mode));
    ASSERT_LT(wire.size(), 128u);
    PutU32At(wire, 20, 0xFFFFFFF9u);
    EXPECT_EQ(Parse(wire).status().code(), ErrorCode::kCorruptPackage)
        << EncryptionModeName(mode);
  }
}

// field_spec_count * 3 wraps to 2 in 32-bit arithmetic; the count must be
// refused before any allocation is sized from it. A zero signature reads
// as valid {0, 0, 0} specs, so nothing stops a reader that trusts the
// count short of the end of the buffer.
TEST(ParseTest, RejectsFieldSpecCountThatWrapsTheSpecSize) {
  Package p = SamplePackage(EncryptionMode::kField);
  p.signature.fill(0);
  auto wire = Serialize(p);
  ASSERT_LT(wire.size(), 128u);
  PutU32At(wire, 24, 0x55555556u);
  EXPECT_EQ(Parse(wire).status().code(), ErrorCode::kCorruptPackage);
}

// The sample's 10-entry map takes two bytes; bits 2..7 of the second are
// padding. A set padding bit is refused, since parsing would mask it and
// the package would not re-serialise to its wire bytes; a flipped map bit
// inside the count still parses and round-trips.
TEST(ParseTest, RejectsNonZeroEncryptionMapPadding) {
  for (EncryptionMode mode :
       {EncryptionMode::kPartial, EncryptionMode::kField}) {
    SCOPED_TRACE(EncryptionModeName(mode));
    const Package p = SamplePackage(mode);
    const auto wire = Serialize(p);
    // The map follows the 36-byte header and the text.
    const size_t last_map_byte = 36 + p.text.size() + 1;
    ASSERT_EQ(wire[last_map_byte], 0x02);  // entry 9 set
    for (int bit = 2; bit < 8; ++bit) {
      auto flipped = wire;
      flipped[last_map_byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_EQ(Parse(flipped).status().code(), ErrorCode::kCorruptPackage)
          << "padding bit " << bit;
    }
    auto inside = wire;
    inside[last_map_byte] ^= 0x01;  // entry 8
    auto parsed = Parse(inside);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_TRUE(parsed->encryption_map.Get(8));
    EXPECT_EQ(Serialize(*parsed), inside);
  }
}

TEST(ParseTest, FuzzNeverCrashes) {
  // Random buffers and mutated valid packages must never crash Parse.
  Xoshiro256 rng(99);
  for (int i = 0; i < 300; ++i) {
    std::vector<uint8_t> junk(rng.NextBounded(200));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.Next());
    (void)Parse(junk);
  }
  const auto wire = Serialize(SamplePackage(EncryptionMode::kPartial));
  for (int i = 0; i < 300; ++i) {
    auto mutated = wire;
    const size_t pos = rng.NextBounded(mutated.size());
    mutated[pos] = static_cast<uint8_t>(rng.Next());
    (void)Parse(mutated);
  }
  SUCCEED();
}

TEST(SizeTest, BreakdownSumsToWireSize) {
  for (EncryptionMode mode :
       {EncryptionMode::kNone, EncryptionMode::kFull, EncryptionMode::kPartial,
        EncryptionMode::kField}) {
    const Package p = SamplePackage(mode);
    EXPECT_EQ(BreakdownOf(p).total(), Serialize(p).size())
        << EncryptionModeName(mode);
  }
}

TEST(SizeTest, MapOmittedForFullEncryption) {
  EXPECT_EQ(BreakdownOf(SamplePackage(EncryptionMode::kFull)).map_bytes, 0u);
  EXPECT_EQ(BreakdownOf(SamplePackage(EncryptionMode::kPartial)).map_bytes,
            2u);  // ceil(10/8)
}

TEST(ModeNameTest, AllNamed) {
  EXPECT_EQ(EncryptionModeName(EncryptionMode::kNone), "none");
  EXPECT_EQ(EncryptionModeName(EncryptionMode::kFull), "full");
  EXPECT_EQ(EncryptionModeName(EncryptionMode::kPartial), "partial");
  EXPECT_EQ(EncryptionModeName(EncryptionMode::kField), "field");
}

// --- Target ISA in the header flags word ------------------------------------

TEST(IsaWireTest, IsaRoundtripsThroughFlagsByte) {
  Package p = SamplePackage(EncryptionMode::kFull);
  p.isa = isa::IsaId::kRv32I;
  const auto wire = Serialize(p);
  // The ISA travels in byte 1 of the little-endian flags word at
  // offset 12 (byte 0 carries the mode).
  EXPECT_EQ(wire[13], 1);
  auto parsed = Parse(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->isa, isa::IsaId::kRv32I);
}

TEST(IsaWireTest, ZeroIsaByteParsesAsRv64Gc) {
  // Packages serialized before the ISA field existed carry zero in
  // flags byte 1 and must keep parsing as the original target.
  const auto wire = Serialize(SamplePackage(EncryptionMode::kFull));
  EXPECT_EQ(wire[13], 0);
  auto parsed = Parse(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->isa, isa::IsaId::kRv64Gc);
}

TEST(IsaWireTest, RejectsUnknownIsaByte) {
  // A flags byte no backend claims must fail closed, never default.
  auto wire = Serialize(SamplePackage(EncryptionMode::kFull));
  wire[13] = 7;
  EXPECT_EQ(Parse(wire).status().code(), ErrorCode::kCorruptPackage);
}

}  // namespace
}  // namespace eric::pkg
