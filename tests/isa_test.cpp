// Unit + property tests for the RISC-V ISA layer: encode/decode roundtrips
// (32-bit and compressed), field extraction, assembler, disassembler.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "isa/assembler.h"
#include "isa/decoder.h"
#include "isa/disassembler.h"
#include "isa/encoder.h"
#include "isa/isa_backend.h"
#include "support/hex.h"
#include "support/rng.h"
#include "workloads/workloads.h"

namespace eric::isa {
namespace {

// Round-trips an instruction through Encode32 -> Decode32 and compares the
// semantic fields.
void ExpectRoundtrip32(const Instr& in) {
  Result<uint32_t> word = Encode32(in);
  ASSERT_TRUE(word.ok()) << OpName(in.op) << ": " << word.status().ToString();
  const Instr out = Decode32(*word);
  EXPECT_EQ(out.op, in.op) << Disassemble(in);
  EXPECT_EQ(out.rd, in.rd) << Disassemble(in);
  EXPECT_EQ(out.rs1, in.rs1) << Disassemble(in);
  EXPECT_EQ(out.rs2, in.rs2) << Disassemble(in);
  EXPECT_EQ(out.imm, in.imm) << Disassemble(in);
}

TEST(Encode32Test, BasicAlu) {
  ExpectRoundtrip32(MakeI(Op::kAddi, 10, 11, 42));
  ExpectRoundtrip32(MakeI(Op::kAddi, 10, 11, -2048));
  ExpectRoundtrip32(MakeI(Op::kAndi, 5, 6, -1));
  ExpectRoundtrip32(MakeR(Op::kAdd, 1, 2, 3));
  ExpectRoundtrip32(MakeR(Op::kSub, 31, 30, 29));
  ExpectRoundtrip32(MakeI(Op::kSlli, 7, 7, 63));
  ExpectRoundtrip32(MakeI(Op::kSrai, 7, 7, 63));
}

TEST(Encode32Test, UpperImmediates) {
  ExpectRoundtrip32(MakeLui(10, 0x7FFFF));
  ExpectRoundtrip32(MakeLui(10, -0x80000));
  ExpectRoundtrip32(MakeAuipc(11, 12345));
}

TEST(Encode32Test, LoadsAndStores) {
  for (Op op : {Op::kLb, Op::kLh, Op::kLw, Op::kLd, Op::kLbu, Op::kLhu,
                Op::kLwu}) {
    ExpectRoundtrip32(MakeLoad(op, 10, 2, 2047));
    ExpectRoundtrip32(MakeLoad(op, 10, 2, -2048));
  }
  for (Op op : {Op::kSb, Op::kSh, Op::kSw, Op::kSd}) {
    ExpectRoundtrip32(MakeStore(op, 10, 2, 2047));
    ExpectRoundtrip32(MakeStore(op, 10, 2, -2048));
  }
}

TEST(Encode32Test, Branches) {
  for (Op op : {Op::kBeq, Op::kBne, Op::kBlt, Op::kBge, Op::kBltu,
                Op::kBgeu}) {
    ExpectRoundtrip32(MakeBranch(op, 1, 2, 4094));
    ExpectRoundtrip32(MakeBranch(op, 1, 2, -4096));
    ExpectRoundtrip32(MakeBranch(op, 1, 2, 0));
  }
}

TEST(Encode32Test, Jumps) {
  ExpectRoundtrip32(MakeJal(1, 1048574));
  ExpectRoundtrip32(MakeJal(0, -1048576));
  ExpectRoundtrip32(MakeJalr(1, 5, -4));
}

TEST(Encode32Test, MExtension) {
  for (Op op : {Op::kMul, Op::kMulh, Op::kMulhsu, Op::kMulhu, Op::kDiv,
                Op::kDivu, Op::kRem, Op::kRemu, Op::kMulw, Op::kDivw,
                Op::kDivuw, Op::kRemw, Op::kRemuw}) {
    ExpectRoundtrip32(MakeR(op, 10, 11, 12));
  }
}

TEST(Encode32Test, WForms) {
  for (Op op : {Op::kAddw, Op::kSubw, Op::kSllw, Op::kSrlw, Op::kSraw}) {
    ExpectRoundtrip32(MakeR(op, 3, 4, 5));
  }
  ExpectRoundtrip32(MakeI(Op::kAddiw, 3, 4, -7));
  ExpectRoundtrip32(MakeI(Op::kSlliw, 3, 4, 31));
  ExpectRoundtrip32(MakeI(Op::kSraiw, 3, 4, 31));
}

TEST(Encode32Test, System) {
  ExpectRoundtrip32(MakeEcall());
  ExpectRoundtrip32(MakeEbreak());
}

TEST(Encode32Test, RejectsOutOfRangeImmediates) {
  EXPECT_FALSE(Encode32(MakeI(Op::kAddi, 1, 1, 2048)).ok());
  EXPECT_FALSE(Encode32(MakeI(Op::kAddi, 1, 1, -2049)).ok());
  EXPECT_FALSE(Encode32(MakeBranch(Op::kBeq, 1, 2, 4096)).ok());
  EXPECT_FALSE(Encode32(MakeBranch(Op::kBeq, 1, 2, 3)).ok());  // odd
  EXPECT_FALSE(Encode32(MakeJal(1, 1 << 21)).ok());
  EXPECT_FALSE(Encode32(MakeI(Op::kSlli, 1, 1, 64)).ok());
}

TEST(Encode32Test, RejectsInvalidOp) {
  Instr bad;
  EXPECT_FALSE(Encode32(bad).ok());
}

// --- Compressed forms -------------------------------------------------------

// Round-trips through TryEncodeCompressed -> DecodeCompressed.
void ExpectRoundtripC(const Instr& in) {
  const auto c16 = TryEncodeCompressed(in);
  ASSERT_TRUE(c16.has_value()) << Disassemble(in);
  const Instr out = DecodeCompressed(*c16);
  EXPECT_TRUE(out.compressed);
  EXPECT_EQ(out.op, in.op) << Disassemble(in) << " -> " << Disassemble(out);
  EXPECT_EQ(out.rd, in.rd) << Disassemble(in);
  EXPECT_EQ(out.rs1, in.rs1) << Disassemble(in);
  EXPECT_EQ(out.rs2, in.rs2) << Disassemble(in);
  EXPECT_EQ(out.imm, in.imm) << Disassemble(in);
}

TEST(CompressedTest, CAddi) { ExpectRoundtripC(MakeI(Op::kAddi, 9, 9, -3)); }
TEST(CompressedTest, CLi) { ExpectRoundtripC(MakeI(Op::kAddi, 9, 0, 31)); }
TEST(CompressedTest, CAddi16Sp) {
  ExpectRoundtripC(MakeI(Op::kAddi, 2, 2, -64));
  ExpectRoundtripC(MakeI(Op::kAddi, 2, 2, 496));
}
TEST(CompressedTest, CAddi4Spn) {
  ExpectRoundtripC(MakeI(Op::kAddi, 8, 2, 4));
  ExpectRoundtripC(MakeI(Op::kAddi, 15, 2, 1020));
}
TEST(CompressedTest, CAddiw) { ExpectRoundtripC(MakeI(Op::kAddiw, 9, 9, 5)); }
TEST(CompressedTest, CLui) { ExpectRoundtripC(MakeLui(5, -1)); }
TEST(CompressedTest, CSlli) { ExpectRoundtripC(MakeI(Op::kSlli, 5, 5, 40)); }
TEST(CompressedTest, CSrliSrai) {
  ExpectRoundtripC(MakeI(Op::kSrli, 9, 9, 17));
  ExpectRoundtripC(MakeI(Op::kSrai, 9, 9, 63));
}
TEST(CompressedTest, CAndi) { ExpectRoundtripC(MakeI(Op::kAndi, 10, 10, -17)); }
TEST(CompressedTest, CRegReg) {
  for (Op op : {Op::kSub, Op::kXor, Op::kOr, Op::kAnd, Op::kSubw,
                Op::kAddw}) {
    ExpectRoundtripC(MakeR(op, 9, 9, 12));
  }
}
TEST(CompressedTest, CMvAdd) {
  ExpectRoundtripC(MakeR(Op::kAdd, 5, 0, 6));   // c.mv
  ExpectRoundtripC(MakeR(Op::kAdd, 5, 5, 6));   // c.add
}
TEST(CompressedTest, CLoadsStores) {
  ExpectRoundtripC(MakeLoad(Op::kLw, 9, 10, 64));
  ExpectRoundtripC(MakeLoad(Op::kLd, 9, 10, 248));
  ExpectRoundtripC(MakeStore(Op::kSw, 9, 10, 124));
  ExpectRoundtripC(MakeStore(Op::kSd, 9, 10, 0));
}
TEST(CompressedTest, CSpRelative) {
  ExpectRoundtripC(MakeLoad(Op::kLw, 20, 2, 252));
  ExpectRoundtripC(MakeLoad(Op::kLd, 20, 2, 504));
  ExpectRoundtripC(MakeStore(Op::kSw, 20, 2, 252));
  ExpectRoundtripC(MakeStore(Op::kSd, 20, 2, 504));
}
TEST(CompressedTest, CJumps) {
  ExpectRoundtripC(MakeJal(0, -2048));          // c.j
  ExpectRoundtripC(MakeJal(0, 2046));
  ExpectRoundtripC(MakeJalr(0, 5, 0));          // c.jr
  ExpectRoundtripC(MakeJalr(1, 5, 0));          // c.jalr
}
TEST(CompressedTest, CBranches) {
  ExpectRoundtripC(MakeBranch(Op::kBeq, 9, 0, -256));
  ExpectRoundtripC(MakeBranch(Op::kBne, 9, 0, 254));
}
TEST(CompressedTest, CEbreak) { ExpectRoundtripC(MakeEbreak()); }

TEST(CompressedTest, IneligibleFormsReturnNullopt) {
  // Wrong register class for c.sub.
  EXPECT_FALSE(TryEncodeCompressed(MakeR(Op::kSub, 5, 5, 6)).has_value());
  // Immediate too large for c.addi.
  EXPECT_FALSE(TryEncodeCompressed(MakeI(Op::kAddi, 9, 9, 100)).has_value());
  // Unaligned load offset.
  EXPECT_FALSE(
      TryEncodeCompressed(MakeLoad(Op::kLd, 9, 10, 4)).has_value());
  // jalr with nonzero offset.
  EXPECT_FALSE(TryEncodeCompressed(MakeJalr(0, 5, 8)).has_value());
  // No compressed form at all.
  EXPECT_FALSE(TryEncodeCompressed(MakeR(Op::kMul, 9, 9, 10)).has_value());
}

TEST(CompressedTest, ZeroHalfwordIsInvalid) {
  EXPECT_EQ(DecodeCompressed(0).op, Op::kInvalid);
}

// Property sweep: every 16-bit pattern either decodes to kInvalid or, when
// re-encoded from its decoded form, decodes to the same semantics.
TEST(CompressedTest, ExhaustiveDecodeIsTotal) {
  int valid = 0;
  for (uint32_t raw = 0; raw <= 0xFFFF; ++raw) {
    if ((raw & 0b11) == 0b11) continue;  // 32-bit marker, not RVC
    const Instr in = DecodeCompressed(static_cast<uint16_t>(raw));
    if (in.op == Op::kInvalid) continue;
    ++valid;
    // Whatever decoded must also encode in 32-bit form (semantics valid).
    const auto word = Encode32(in);
    EXPECT_TRUE(word.ok()) << Hex32(raw) << " " << Disassemble(in);
  }
  // RVC space is dense: tens of thousands of the 49k non-wide patterns
  // decode.
  EXPECT_GT(valid, 20000);
}

// --- Stream decoding --------------------------------------------------------

TEST(DecoderTest, StreamMixesWidths) {
  std::vector<Instr> program = {
      MakeI(Op::kAddi, 10, 0, 5),   // compressible (c.li)
      MakeR(Op::kMul, 10, 10, 10),  // 4-byte only
      MakeEbreak(),                 // c.ebreak
  };
  std::vector<uint8_t> bytes;
  auto offsets = EncodeProgram(program, /*compress=*/true, bytes);
  ASSERT_TRUE(offsets.ok());
  EXPECT_EQ(bytes.size(), 2u + 4u + 2u);

  auto decoded = DecodeStream(bytes);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 3u);
  EXPECT_EQ((*decoded)[0].op, Op::kAddi);
  EXPECT_TRUE((*decoded)[0].compressed);
  EXPECT_EQ((*decoded)[1].op, Op::kMul);
  EXPECT_FALSE((*decoded)[1].compressed);
  EXPECT_EQ((*decoded)[2].op, Op::kEbreak);
}

TEST(DecoderTest, TruncatedStreamFails) {
  std::vector<uint8_t> bytes = {0x13};  // half of an addi
  EXPECT_FALSE(DecodeStream(bytes).ok());
}

TEST(DecoderTest, DecodeAtRejectsShortBuffer) {
  std::vector<uint8_t> bytes = {0x93, 0x00};  // 32-bit marker, 2 bytes only
  EXPECT_FALSE(DecodeAt(bytes, 0).ok());
}

// --- Classification ----------------------------------------------------------

TEST(ClassTest, MemoryAccessDetection) {
  EXPECT_TRUE(IsMemoryAccess(Op::kLd));
  EXPECT_TRUE(IsMemoryAccess(Op::kSb));
  EXPECT_FALSE(IsMemoryAccess(Op::kAdd));
  EXPECT_FALSE(IsMemoryAccess(Op::kJal));
}

TEST(ClassTest, ControlFlowDetection) {
  EXPECT_TRUE(IsControlFlow(Op::kBeq));
  EXPECT_TRUE(IsControlFlow(Op::kJalr));
  EXPECT_FALSE(IsControlFlow(Op::kLd));
}

TEST(ClassTest, EveryOpHasNameAndClass) {
  for (size_t i = 1; i < kNumOps; ++i) {
    const Op op = static_cast<Op>(i);
    EXPECT_NE(OpName(op), "<invalid>");
    EXPECT_NE(ClassOf(op), OpClass::kInvalid);
    EXPECT_EQ(OpFromName(OpName(op)), op);
  }
  EXPECT_EQ(OpFromName("c.addi"), Op::kInvalid);
  // Values outside the enum read the kInvalid row.
  EXPECT_EQ(OpName(static_cast<Op>(kNumOps)), "<invalid>");
  EXPECT_EQ(ClassOf(static_cast<Op>(kNumOps)), OpClass::kInvalid);
}

// Every row's own match word decodes back to it, and the decoder's
// per-opcode index holds each real row exactly once, under its opcode.
TEST(InstructionTableTest, RowsDecodeToThemselvesThroughTheOpcodeIndex) {
  size_t indexed = 0;
  for (uint32_t opcode = 0; opcode < 128; ++opcode) {
    for (const OpInfo& row : RowsWithOpcode(opcode)) {
      EXPECT_EQ(row.match & 0x7F, opcode) << row.mnemonic;
      EXPECT_EQ(Decode32(row.match).op, row.op) << row.mnemonic;
      ++indexed;
    }
  }
  EXPECT_EQ(indexed, kNumOps - 1);
}

// --- Register names -----------------------------------------------------------

TEST(RegNameTest, AbiRoundtrip) {
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(ParseRegName(AbiRegName(static_cast<uint8_t>(i))), i);
  }
}

TEST(RegNameTest, NumericAndAliases) {
  EXPECT_EQ(ParseRegName("x0"), 0);
  EXPECT_EQ(ParseRegName("x31"), 31);
  EXPECT_EQ(ParseRegName("fp"), 8);
  EXPECT_EQ(ParseRegName("x32"), -1);
  EXPECT_EQ(ParseRegName("bogus"), -1);
}

// --- Assembler -----------------------------------------------------------------

TEST(AssemblerTest, BasicProgram) {
  auto result = Assemble(R"(
    # compute 5 + 7
    li a0, 5
    addi a0, a0, 7
    ecall
  )");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->instructions.size(), 3u);
  EXPECT_EQ(result->instructions[0].op, Op::kAddi);
  EXPECT_EQ(result->instructions[1].imm, 7);
  EXPECT_EQ(result->instructions[2].op, Op::kEcall);
}

TEST(AssemblerTest, LabelsAndBranches) {
  auto result = Assemble(R"(
    li t0, 3
  loop:
    addi t0, t0, -1
    bnez t0, loop
    ecall
  )");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // bnez is instruction 2 (index), loop label at instruction 1 -> -4 bytes.
  EXPECT_EQ(result->instructions[2].op, Op::kBne);
  EXPECT_EQ(result->instructions[2].imm, -4);
}

TEST(AssemblerTest, MemoryOperands) {
  auto result = Assemble("ld a0, 16(sp)\nsd a1, -8(s0)\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->instructions[0].op, Op::kLd);
  EXPECT_EQ(result->instructions[0].imm, 16);
  EXPECT_EQ(result->instructions[1].op, Op::kSd);
  EXPECT_EQ(result->instructions[1].imm, -8);
  EXPECT_EQ(result->instructions[1].rs1, 8);
}

TEST(AssemblerTest, LargeLiExpandsToLuiAddiw) {
  auto result = Assemble("li a0, 0x12345\n");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->instructions.size(), 2u);
  EXPECT_EQ(result->instructions[0].op, Op::kLui);
  EXPECT_EQ(result->instructions[1].op, Op::kAddiw);
}

TEST(AssemblerTest, PseudoInstructions) {
  auto result = Assemble(R"(
    nop
    mv a0, a1
    not a2, a3
    neg a4, a5
    seqz a6, a7
    snez t0, t1
    jr ra
    ret
  )");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->instructions.size(), 8u);
  EXPECT_EQ(result->instructions[0].op, Op::kAddi);
  EXPECT_EQ(result->instructions[6].op, Op::kJalr);
}

TEST(AssemblerTest, Errors) {
  EXPECT_FALSE(Assemble("bogus a0, a1\n").ok());
  EXPECT_FALSE(Assemble("addi a0\n").ok());
  EXPECT_FALSE(Assemble("j missing_label\n").ok());
  EXPECT_FALSE(Assemble("x: nop\nx: nop\n").ok());  // duplicate label
  EXPECT_FALSE(Assemble("ld a0, 8[sp]\n").ok());    // bad mem syntax
}

// --- Disassembler ----------------------------------------------------------------

TEST(DisassemblerTest, Formats) {
  EXPECT_EQ(Disassemble(MakeI(Op::kAddi, 10, 11, 42)), "addi a0, a1, 42");
  EXPECT_EQ(Disassemble(MakeLoad(Op::kLw, 10, 2, 8)), "lw a0, 8(sp)");
  EXPECT_EQ(Disassemble(MakeStore(Op::kSd, 10, 2, -16)), "sd a0, -16(sp)");
  EXPECT_EQ(Disassemble(MakeBranch(Op::kBeq, 5, 6, 64)), "beq t0, t1, 64");
  EXPECT_EQ(Disassemble(MakeEcall()), "ecall");
  EXPECT_EQ(Disassemble(MakeR(Op::kMul, 1, 2, 3)), "mul ra, sp, gp");
}

TEST(DisassemblerTest, StreamWithAddresses) {
  std::vector<uint8_t> bytes;
  auto offsets = EncodeProgram({MakeNop(), MakeEcall()}, false, bytes);
  ASSERT_TRUE(offsets.ok());
  const std::string text = DisassembleStream(bytes, 0x1000);
  EXPECT_NE(text.find("0x0000000000001000"), std::string::npos);
  EXPECT_NE(text.find("ecall"), std::string::npos);
}

// --- Randomized encode/decode property ----------------------------------------

TEST(PropertyTest, RandomRTypeRoundtrip) {
  Xoshiro256 rng(42);
  const Op ops[] = {Op::kAdd, Op::kSub, Op::kXor, Op::kOr, Op::kAnd,
                    Op::kSll, Op::kSrl, Op::kSra, Op::kSlt, Op::kSltu,
                    Op::kMul, Op::kDiv};
  for (int i = 0; i < 500; ++i) {
    const Instr in = MakeR(ops[rng.NextBounded(12)],
                           static_cast<uint8_t>(rng.NextBounded(32)),
                           static_cast<uint8_t>(rng.NextBounded(32)),
                           static_cast<uint8_t>(rng.NextBounded(32)));
    ExpectRoundtrip32(in);
  }
}

TEST(PropertyTest, RandomITypeRoundtrip) {
  Xoshiro256 rng(43);
  for (int i = 0; i < 500; ++i) {
    const int64_t imm = static_cast<int64_t>(rng.NextBounded(4096)) - 2048;
    ExpectRoundtrip32(MakeI(Op::kAddi,
                            static_cast<uint8_t>(rng.NextBounded(32)),
                            static_cast<uint8_t>(rng.NextBounded(32)), imm));
  }
}

TEST(PropertyTest, RandomBranchRoundtrip) {
  Xoshiro256 rng(44);
  for (int i = 0; i < 500; ++i) {
    const int64_t imm =
        (static_cast<int64_t>(rng.NextBounded(4096)) - 2048) * 2;
    ExpectRoundtrip32(MakeBranch(Op::kBne,
                                 static_cast<uint8_t>(rng.NextBounded(32)),
                                 static_cast<uint8_t>(rng.NextBounded(32)),
                                 imm));
  }
}

// --- ISA backends -----------------------------------------------------------

TEST(IsaBackendTest, Identity) {
  const IsaBackend& rv64 = BackendFor(IsaId::kRv64Gc);
  EXPECT_EQ(rv64.id(), IsaId::kRv64Gc);
  EXPECT_EQ(rv64.name(), "rv64gc");
  EXPECT_EQ(rv64.xlen(), 64u);
  EXPECT_EQ(rv64.word_bytes(), 8u);
  EXPECT_TRUE(rv64.supports_compressed());

  const IsaBackend& rv32 = BackendFor(IsaId::kRv32I);
  EXPECT_EQ(rv32.id(), IsaId::kRv32I);
  EXPECT_EQ(rv32.name(), "rv32i");
  EXPECT_EQ(rv32.xlen(), 32u);
  EXPECT_EQ(rv32.word_bytes(), 4u);
  EXPECT_FALSE(rv32.supports_compressed());

  // Singletons: repeated lookups hand back the same object.
  EXPECT_EQ(&BackendFor(IsaId::kRv32I), &rv32);
  EXPECT_EQ(&BackendFor(IsaId::kRv64Gc), &rv64);
}

TEST(IsaBackendTest, NamesRoundtrip) {
  EXPECT_EQ(IsaName(IsaId::kRv64Gc), "rv64gc");
  EXPECT_EQ(IsaName(IsaId::kRv32I), "rv32i");
  ASSERT_TRUE(ParseIsaName("rv64gc").has_value());
  EXPECT_EQ(*ParseIsaName("rv64gc"), IsaId::kRv64Gc);
  ASSERT_TRUE(ParseIsaName("rv32i").has_value());
  EXPECT_EQ(*ParseIsaName("rv32i"), IsaId::kRv32I);
  EXPECT_FALSE(ParseIsaName("rv128").has_value());
  EXPECT_FALSE(ParseIsaName("").has_value());
}

TEST(IsaBackendTest, WireValidation) {
  ASSERT_TRUE(IsaFromWire(0).has_value());
  EXPECT_EQ(*IsaFromWire(0), IsaId::kRv64Gc);
  ASSERT_TRUE(IsaFromWire(1).has_value());
  EXPECT_EQ(*IsaFromWire(1), IsaId::kRv32I);
  // Every other byte value is unclaimed and must fail validation —
  // this is what keeps a corrupted snapshot or package flag byte from
  // silently becoming an ISA.
  for (int value = 2; value < 256; ++value) {
    EXPECT_FALSE(IsaFromWire(static_cast<uint8_t>(value)).has_value())
        << value;
  }
}

TEST(IsaBackendTest, Rv64FullOpCoverage) {
  const IsaBackend& rv64 = BackendFor(IsaId::kRv64Gc);
  for (Op op : {Op::kLd, Op::kSd, Op::kLwu, Op::kAddw, Op::kMul, Op::kDivu,
                Op::kAmoAddW, Op::kLrD}) {
    EXPECT_TRUE(rv64.SupportsOp(op)) << OpName(op);
  }
  EXPECT_FALSE(rv64.SupportsOp(Op::kInvalid));
  // The backend is a strict delegate of the existing codec.
  const Instr ld = MakeLoad(Op::kLd, 10, 2, 8);
  auto direct = Encode32(ld);
  auto via_backend = rv64.Encode(ld);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(via_backend.ok());
  EXPECT_EQ(*direct, *via_backend);
  EXPECT_EQ(rv64.Decode(*direct).op, Op::kLd);
}

TEST(IsaBackendTest, Rv32RejectsSixtyFourBitOnlyOps) {
  const IsaBackend& rv32 = BackendFor(IsaId::kRv32I);
  // 64-bit-only loads/stores, W forms, M, and A must all be refused at
  // encode time (kInvalidArgument, fail closed) and be unsupported.
  for (Op op : {Op::kLd, Op::kLwu, Op::kAddw, Op::kSubw, Op::kSllw,
                Op::kMul, Op::kMulh, Op::kDiv, Op::kDivu, Op::kRem,
                Op::kRemu, Op::kMulw, Op::kAmoAddW, Op::kAmoSwapW,
                Op::kLrW, Op::kScW}) {
    EXPECT_FALSE(rv32.SupportsOp(op)) << OpName(op);
    auto encoded = op == Op::kLd || op == Op::kLwu
                       ? rv32.Encode(MakeLoad(op, 10, 2, 0))
                       : rv32.Encode(MakeR(op, 10, 11, 12));
    ASSERT_FALSE(encoded.ok()) << OpName(op);
    EXPECT_EQ(encoded.status().code(), ErrorCode::kInvalidArgument)
        << OpName(op);
  }
  ASSERT_FALSE(rv32.Encode(MakeStore(Op::kSd, 10, 2, 0)).ok());
}

TEST(IsaBackendTest, Rv32DecodesForeignEncodingsAsInvalid) {
  const IsaBackend& rv64 = BackendFor(IsaId::kRv64Gc);
  const IsaBackend& rv32 = BackendFor(IsaId::kRv32I);
  // Valid RV64 bit patterns that name 64-bit-only operations must decode
  // to kInvalid on RV32 — never to a silently different operation.
  for (const Instr& in :
       {MakeLoad(Op::kLd, 10, 2, 8), MakeStore(Op::kSd, 10, 2, 8),
        MakeR(Op::kMul, 10, 11, 12), MakeR(Op::kAddw, 10, 11, 12)}) {
    auto word = rv64.Encode(in);
    ASSERT_TRUE(word.ok()) << OpName(in.op);
    const Instr out = rv32.Decode(*word);
    EXPECT_EQ(out.op, Op::kInvalid) << OpName(in.op);
    EXPECT_EQ(out.raw, *word) << OpName(in.op);
  }
}

TEST(IsaBackendTest, Rv32ShiftAmountFailsClosedBothDirections) {
  const IsaBackend& rv64 = BackendFor(IsaId::kRv64Gc);
  const IsaBackend& rv32 = BackendFor(IsaId::kRv32I);
  for (Op op : {Op::kSlli, Op::kSrli, Op::kSrai}) {
    // shamt 31 is the RV32 maximum and must round-trip.
    auto ok31 = rv32.Encode(MakeI(op, 7, 7, 31));
    ASSERT_TRUE(ok31.ok()) << OpName(op);
    EXPECT_EQ(rv32.Decode(*ok31).imm, 31) << OpName(op);
    // shamt 32..63 encodes on RV64 (6-bit field) but is an illegal
    // encoding on RV32: refused at encode, kInvalid at decode — never a
    // silent mod-32 shift.
    auto rejected = rv32.Encode(MakeI(op, 7, 7, 32));
    ASSERT_FALSE(rejected.ok()) << OpName(op);
    EXPECT_EQ(rejected.status().code(), ErrorCode::kInvalidArgument);
    auto wide = rv64.Encode(MakeI(op, 7, 7, 33));
    ASSERT_TRUE(wide.ok()) << OpName(op);
    EXPECT_EQ(rv32.Decode(*wide).op, Op::kInvalid) << OpName(op);
  }
}

TEST(IsaBackendTest, Rv32HasNoCompressedForms) {
  const IsaBackend& rv64 = BackendFor(IsaId::kRv64Gc);
  const IsaBackend& rv32 = BackendFor(IsaId::kRv32I);
  // An instruction RV64 happily compresses must stay 4 bytes on RV32.
  const Instr addi = MakeI(Op::kAddi, 10, 10, 4);
  EXPECT_TRUE(rv64.EncodeCompressed(addi).has_value());
  EXPECT_FALSE(rv32.EncodeCompressed(addi).has_value());
  // And a compressed half-word never decodes to anything executable.
  const auto half = *rv64.EncodeCompressed(addi);
  EXPECT_NE(rv64.DecodeCompressed(half).op, Op::kInvalid);
  EXPECT_EQ(rv32.DecodeCompressed(half).op, Op::kInvalid);
}

TEST(IsaBackendTest, Rv32SupportedOpsRoundtripThroughBackend) {
  const IsaBackend& rv32 = BackendFor(IsaId::kRv32I);
  for (const Instr& in :
       {MakeI(Op::kAddi, 10, 11, -2048), MakeR(Op::kSub, 1, 2, 3),
        MakeR(Op::kSltu, 4, 5, 6), MakeLoad(Op::kLw, 10, 2, 2047),
        MakeStore(Op::kSw, 10, 2, -2048), MakeBranch(Op::kBltu, 1, 2, -4096),
        MakeJal(1, 2048), MakeJalr(1, 5, -4), MakeLui(10, 0x7FFFF),
        MakeI(Op::kSrai, 7, 7, 31)}) {
    auto word = rv32.Encode(in);
    ASSERT_TRUE(word.ok()) << OpName(in.op) << ": "
                           << word.status().ToString();
    const Instr out = rv32.Decode(*word);
    EXPECT_EQ(out.op, in.op) << Disassemble(in);
    EXPECT_EQ(out.rd, in.rd) << Disassemble(in);
    EXPECT_EQ(out.rs1, in.rs1) << Disassemble(in);
    EXPECT_EQ(out.rs2, in.rs2) << Disassemble(in);
    EXPECT_EQ(out.imm, in.imm) << Disassemble(in);
  }
}

// --- Assembler <-> disassembler agreement ---------------------------------------

// Encodes `op` with the first operands the backend accepts: a negative
// even immediate (valid for branch and jump offsets too), else a small
// positive one (shift amounts, CSR numbers); rs2 = x0 for lr.
std::optional<uint32_t> EncodeSample(const IsaBackend& backend, Op op,
                                     Instr* out) {
  for (uint8_t rs2 : {uint8_t{12}, uint8_t{0}}) {
    for (int64_t imm : {int64_t{-8}, int64_t{3}}) {
      Instr in;
      in.op = op;
      in.rd = 10;
      in.rs1 = 11;
      in.rs2 = rs2;
      in.imm = imm;
      if (const Result<uint32_t> word = backend.Encode(in); word.ok()) {
        *out = in;
        return *word;
      }
    }
  }
  return std::nullopt;
}

TEST(AssemblerTest, AssemblesEveryDisassembledOp) {
  for (IsaId isa : {IsaId::kRv64Gc, IsaId::kRv32I}) {
    const IsaBackend& backend = BackendFor(isa);
    for (int i = 1; i <= static_cast<int>(Op::kAmoMaxuD); ++i) {
      const Op op = static_cast<Op>(i);
      if (!backend.SupportsOp(op)) continue;
      SCOPED_TRACE(testing::Message() << backend.name() << " " << OpName(op));
      Instr sample;
      const std::optional<uint32_t> word = EncodeSample(backend, op, &sample);
      ASSERT_TRUE(word.has_value());
      std::string text = Disassemble(backend.Decode(*word));
      // Branches and jal take a label: the sample's -8 lands two
      // instructions back.
      if (ClassOf(op) == OpClass::kBranch || op == Op::kJal) {
        const std::string offset = ", " + std::to_string(sample.imm);
        ASSERT_TRUE(text.ends_with(offset)) << text;
        text.replace(text.size() - offset.size(), offset.size(), ", back");
      }
      const auto assembled = Assemble("back:\n  nop\n  nop\n  " + text);
      ASSERT_TRUE(assembled.ok()) << text << ": "
                                  << assembled.status().ToString();
      ASSERT_EQ(assembled->instructions.size(), 3u) << text;
      const Result<uint32_t> again =
          backend.Encode(assembled->instructions[2]);
      ASSERT_TRUE(again.ok()) << text << ": " << again.status().ToString();
      EXPECT_EQ(*again, *word) << text;
    }
  }
}

// --- CSR numbers ----------------------------------------------------------------

TEST(Encode32Test, RejectsCsrNumbersOutsideTwelveBits) {
  for (IsaId isa : {IsaId::kRv64Gc, IsaId::kRv32I}) {
    const IsaBackend& backend = BackendFor(isa);
    for (Op op : {Op::kCsrrw, Op::kCsrrs, Op::kCsrrc, Op::kCsrrwi,
                  Op::kCsrrsi, Op::kCsrrci}) {
      for (int64_t csr : {int64_t{-1}, int64_t{4096}, int64_t{5000}}) {
        const Result<uint32_t> word = backend.Encode(MakeI(op, 10, 11, csr));
        ASSERT_FALSE(word.ok()) << OpName(op) << " csr " << csr << " -> "
                                << *word;
        EXPECT_EQ(word.status().code(), ErrorCode::kInvalidArgument);
      }
      for (int64_t csr : {int64_t{0}, int64_t{0xC00}, int64_t{4095}}) {
        const Result<uint32_t> word = backend.Encode(MakeI(op, 10, 11, csr));
        ASSERT_TRUE(word.ok()) << OpName(op) << " csr " << csr;
        EXPECT_EQ(backend.Decode(*word).imm, csr) << OpName(op);
      }
    }
  }
  // The assembler passes the number through unchanged; encoding rejects
  // it.
  const auto assembled = Assemble("csrrw a0, 5000, a1");
  ASSERT_TRUE(assembled.ok()) << assembled.status().ToString();
  EXPECT_FALSE(Encode32(assembled->instructions[0]).ok());
}

// --- Golden oracle ------------------------------------------------------------
//
// Pinned digests of the codec's observable behaviour on both backends,
// captured from the switch-per-Op codecs before they became tables (the
// 32-bit one before the instruction table, the Compressed* ones before the
// RVC row table). A digest moves only if some decoded field, encoded word,
// error code or compiled kernel byte moves.

// FNV-1a over little-endian 64-bit values.
class Digest {
 public:
  void Add(uint64_t value) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (value >> (8 * b)) & 0xFF;
      hash_ *= 0x100000001B3ull;
    }
  }
  void AddBytes(std::span<const uint8_t> bytes) {
    Add(bytes.size());
    for (uint8_t byte : bytes) Add(byte);
  }
  void AddDecoded(const Instr& in) {
    Add(static_cast<uint64_t>(in.op));
    Add(in.rd);
    Add(in.rs1);
    Add(in.rs2);
    Add(static_cast<uint64_t>(in.imm));
    Add(in.raw);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ull;
};

constexpr IsaId kBothIsas[] = {IsaId::kRv64Gc, IsaId::kRv32I};

// Every (opcode, funct3, funct7) triple under four rd/rs1/rs2 fills; the
// {0, 0, 1} fill reaches ebreak, the {0, 0, 0} fill ecall and lr.
uint64_t DecodeSweepDigest(const IsaBackend& backend) {
  constexpr uint32_t kFills[][3] = {{0, 0, 0}, {0, 0, 1}, {31, 31, 31},
                                    {10, 21, 5}};
  Digest digest;
  for (uint32_t opcode = 0; opcode < 128; ++opcode) {
    for (uint32_t funct3 = 0; funct3 < 8; ++funct3) {
      for (uint32_t funct7 = 0; funct7 < 128; ++funct7) {
        for (const auto& fill : kFills) {
          const uint32_t raw = (funct7 << 25) | (fill[2] << 20) |
                               (fill[1] << 15) | (funct3 << 12) |
                               (fill[0] << 7) | opcode;
          digest.AddDecoded(backend.Decode(raw));
        }
      }
    }
  }
  return digest.value();
}

uint64_t DecodeRandomDigest(const IsaBackend& backend) {
  Xoshiro256 rng(0xE41C);
  Digest digest;
  for (int i = 0; i < 200000; ++i) {
    digest.AddDecoded(backend.Decode(static_cast<uint32_t>(rng.Next())));
  }
  return digest.value();
}

// Disassembly text of the same seeded sample: pins every form's syntax.
uint64_t DisassembleRandomDigest(const IsaBackend& backend) {
  Xoshiro256 rng(0xE41C);
  Digest digest;
  for (int i = 0; i < 200000; ++i) {
    const std::string text =
        Disassemble(backend.Decode(static_cast<uint32_t>(rng.Next())));
    digest.AddBytes(std::span(reinterpret_cast<const uint8_t*>(text.data()),
                              text.size()));
  }
  return digest.value();
}

// Every Op (kInvalid included) x boundary immediates of every form: the
// 12-bit, 13-bit even, 20-bit, 21-bit even, 5/6-bit shift and CSR ranges,
// one past each end, and odd branch/jump offsets. CSR numbers stay in
// [0, 4095]; out-of-range CSRs have their own test.
uint64_t EncodeSweepDigest(const IsaBackend& backend) {
  constexpr int64_t kImms[] = {
      0,        1,        -1,       2,       3,       -3,      31,
      32,       63,       64,       2047,    2048,    -2048,   -2049,
      4094,     4095,     4096,     -4096,   -4097,   -4095,   524287,
      524288,   -524288,  -524289,  1048574, 1048575, 1048576, -1048576,
      -1048577, -1048575, 2097150, 2097151};
  constexpr uint8_t kRegs[][3] = {{10, 21, 5}, {31, 1, 0}};
  Digest digest;
  for (int op = 0; op <= static_cast<int>(Op::kAmoMaxuD); ++op) {
    const bool is_csr = op >= static_cast<int>(Op::kCsrrw) &&
                        op <= static_cast<int>(Op::kCsrrci);
    for (const auto& regs : kRegs) {
      for (int64_t imm : kImms) {
        if (is_csr && (imm < 0 || imm > 4095)) continue;
        Instr in;
        in.op = static_cast<Op>(op);
        in.rd = regs[0];
        in.rs1 = regs[1];
        in.rs2 = regs[2];
        in.imm = imm;
        const Result<uint32_t> word = backend.Encode(in);
        digest.Add(static_cast<uint64_t>(op));
        digest.Add(static_cast<uint64_t>(imm));
        digest.Add(word.ok() ? *word
                             : (uint64_t{1} << 32) |
                                   static_cast<uint64_t>(word.status().code()));
      }
    }
  }
  return digest.value();
}

TEST(GoldenIsaTest, DecodeSweep) {
  const uint64_t kPinned[] = {0x9498A40D9C10BB36ull,
                              0x9CFBFEB70322A7EEull};
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(DecodeSweepDigest(BackendFor(kBothIsas[i])), kPinned[i])
        << IsaName(kBothIsas[i]);
  }
}

TEST(GoldenIsaTest, DecodeRandomSample) {
  const uint64_t kPinned[] = {0x54DAC19E49D3A603ull,
                              0x3928E7E19A8F862Dull};
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(DecodeRandomDigest(BackendFor(kBothIsas[i])), kPinned[i])
        << IsaName(kBothIsas[i]);
  }
}

TEST(GoldenIsaTest, DisassembleRandomSample) {
  const uint64_t kPinned[] = {0x3F0601215EAE1134ull,
                              0x576D830C2FC6BC4Cull};
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(DisassembleRandomDigest(BackendFor(kBothIsas[i])), kPinned[i])
        << IsaName(kBothIsas[i]);
  }
}

TEST(GoldenIsaTest, EncodeBoundarySweep) {
  const uint64_t kPinned[] = {0xF3E6DB58F041F65Bull,
                              0xD6F04868497DC813ull};
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(EncodeSweepDigest(BackendFor(kBothIsas[i])), kPinned[i])
        << IsaName(kBothIsas[i]);
  }
}

// Every 16-bit halfword, quadrant 3 (the 32-bit prefix) included.
uint64_t CompressedDecodeDigest(const IsaBackend& backend) {
  Digest digest;
  for (uint32_t half = 0; half <= 0xFFFF; ++half) {
    digest.AddDecoded(backend.DecodeCompressed(static_cast<uint16_t>(half)));
  }
  return digest.value();
}

// Calls `probe` on every Op under register fills covering the edges of the
// compressed register classes (x0, ra, sp, x8, x15, x16, x31 for rd and
// rs2; x0, sp, rd itself or another register for rs1) and immediates
// -1100..1100 plus +-2^k+-1 for k = 11..21.
template <typename Probe>
void ForEachCompressProbe(Probe&& probe) {
  constexpr uint8_t kRegs[] = {0, 1, 2, 8, 15, 16, 31};
  std::vector<int64_t> imms;
  for (int64_t imm = -1100; imm <= 1100; ++imm) imms.push_back(imm);
  for (int k = 11; k <= 21; ++k) {
    const int64_t p = int64_t{1} << k;
    imms.insert(imms.end(), {p - 1, p + 1, -p - 1, -p + 1});
  }
  Instr in;
  for (int op = 0; op <= static_cast<int>(Op::kAmoMaxuD); ++op) {
    in.op = static_cast<Op>(op);
    for (uint8_t rd : kRegs) {
      in.rd = rd;
      for (uint8_t rs1 : {uint8_t{0}, uint8_t{2}, rd, uint8_t{9}}) {
        in.rs1 = rs1;
        for (uint8_t rs2 : kRegs) {
          in.rs2 = rs2;
          for (int64_t imm : imms) {
            in.imm = imm;
            probe(in);
          }
        }
      }
    }
  }
}

// Only accepted probes are hashed, with their operands, so a probe that
// flips between accepted and refused moves the digest as surely as a
// changed halfword does.
uint64_t CompressedEncodeDigest(const IsaBackend& backend) {
  Digest digest;
  uint64_t accepted = 0;
  ForEachCompressProbe([&](const Instr& in) {
    const std::optional<uint16_t> half = backend.EncodeCompressed(in);
    if (!half) return;
    ++accepted;
    digest.Add(static_cast<uint64_t>(in.op));
    digest.Add((uint64_t{in.rd} << 16) | (uint64_t{in.rs1} << 8) | in.rs2);
    digest.Add(static_cast<uint64_t>(in.imm));
    digest.Add(*half);
  });
  digest.Add(accepted);
  return digest.value();
}

TEST(GoldenIsaTest, CompressedDecodeSweep) {
  const uint64_t kPinned[] = {0x39331CE9E2754BCCull,
                              0x235B2A854DB73325ull};
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(CompressedDecodeDigest(BackendFor(kBothIsas[i])), kPinned[i])
        << IsaName(kBothIsas[i]);
  }
}

// rv64gc only: rv32i has no compressed forms to encode.
TEST(GoldenIsaTest, CompressedEncodeSweep) {
  EXPECT_EQ(CompressedEncodeDigest(BackendFor(IsaId::kRv64Gc)),
            0xB84B92D7B7EF9E74ull);
}

// Every accepted probe of the sweep decodes back to the instruction the
// 32-bit codec sees: the same op, and the same operands wherever the op's
// form has them (operands a form does not encode decode as zero on both
// widths, so c.ebreak's ignored operands compare equal too).
TEST(GoldenIsaTest, CompressedEncodeRoundTrips) {
  uint64_t accepted = 0, mismatched = 0;
  ForEachCompressProbe([&](const Instr& in) {
    const std::optional<uint16_t> half = TryEncodeCompressed(in);
    if (!half) return;
    ++accepted;
    const Instr got = DecodeCompressed(*half);
    const Result<uint32_t> word = Encode32(in);
    const Instr want = word.ok() ? Decode32(*word) : Instr{};
    if (got.op != want.op || got.rd != want.rd || got.rs1 != want.rs1 ||
        got.rs2 != want.rs2 || got.imm != want.imm || !got.compressed) {
      if (++mismatched <= 5) {
        ADD_FAILURE() << OpName(in.op) << " rd=" << int{in.rd}
                      << " rs1=" << int{in.rs1} << " rs2=" << int{in.rs2}
                      << " imm=" << in.imm << " -> " << Disassemble(got);
      }
    }
  });
  EXPECT_GT(accepted, 0u);
  EXPECT_EQ(mismatched, 0u);
}

// The compiled image (text and data) of every MiBench kernel: rv64gc with
// compressed forms, and rv32i.
TEST(GoldenIsaTest, KernelImages) {
  struct Pinned {
    const char* kernel;
    uint64_t rv64gc;
    uint64_t rv32i;
  };
  const Pinned kPinned[] = {
      {"bitcount", 0x2356053D0F0F764Dull, 0xBF60320492962FB3ull},
      {"basicmath", 0x2E2CD132FBC042ACull, 0xC9B04BD741148026ull},
      {"crc32", 0x6F6BD3160E4EF674ull, 0xA0D78DDB8A40E431ull},
      {"sha", 0xC203647FF73F39FEull, 0x098C879972857C0Eull},
      {"qsort", 0xC0461B6B2373FBD6ull, 0x0D5DB6253135F8E0ull},
      {"stringsearch", 0x17750B945AD050B1ull, 0x50510626B6A16490ull},
      {"dijkstra", 0x34107B41FD0743BEull, 0xCDCFF5D1B28D442Eull},
      {"fft", 0x51134F004D31E8EAull, 0x0B84BA3C69D5E0B4ull},
      {"adpcm", 0x4FCC9FE9BEDB0AB4ull, 0x68D94903FBC29E0Dull},
  };
  ASSERT_EQ(std::size(kPinned), workloads::AllWorkloads().size());
  for (const Pinned& pinned : kPinned) {
    const workloads::Workload* w = workloads::FindWorkload(pinned.kernel);
    ASSERT_NE(w, nullptr) << pinned.kernel;
    for (IsaId isa : kBothIsas) {
      compiler::CompileOptions options;
      options.isa = isa;
      const auto compiled = compiler::Compile(w->source, options);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      Digest digest;
      digest.Add(compiled->program.text_bytes);
      digest.AddBytes(compiled->program.image);
      EXPECT_EQ(digest.value(),
                isa == IsaId::kRv64Gc ? pinned.rv64gc : pinned.rv32i)
          << pinned.kernel << " " << IsaName(isa);
    }
  }
}

}  // namespace
}  // namespace eric::isa
