// End-to-end tests for ERIC's core: software source -> package -> HDE ->
// trusted execution, covering every encryption mode and every threat from
// the paper's threat model (Sec. II.C).
#include <gtest/gtest.h>

#include "compiler/compiler.h"
#include "core/encryption_policy.h"
#include "core/hde.h"
#include "core/software_source.h"
#include "core/trusted_execution.h"
#include "isa/decoder.h"
#include "isa/encoder.h"
#include "obs/metrics.h"

namespace eric::core {
namespace {

constexpr uint64_t kDeviceSeed = 0xDE71CE;
constexpr uint64_t kOtherDeviceSeed = 0xBAD0DE;

const char* kProgram = R"(
  var data[16];
  fn main() {
    var i = 0;
    while (i < 16) {
      data[i] = i * 3;
      i = i + 1;
    }
    var sum = 0;
    i = 0;
    while (i < 16) {
      sum = sum + data[i];
      i = i + 1;
    }
    return sum;   // 3 * (0+..+15) = 360
  }
)";
constexpr int64_t kExpectedExit = 360;

struct TestRig {
  TestRig(CipherKind cipher = CipherKind::kXor)
      : device(kDeviceSeed, config, cipher),
        source(device.Enroll(), config, cipher) {}

  crypto::KeyConfig config;
  TrustedDevice device;
  SoftwareSource source;
};

std::vector<uint8_t> PackageBytes(const TestRig& rig,
                                  const EncryptionPolicy& policy,
                                  const char* program = kProgram) {
  auto built = rig.source.CompileAndPackage(program, policy);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return pkg::Serialize(built->packaging.package);
}

// --- Happy paths: each mode decrypts and runs ------------------------------

TEST(EndToEndTest, FullEncryptionRuns) {
  TestRig rig;
  const auto wire = PackageBytes(rig, EncryptionPolicy::Full());
  auto run = rig.device.ReceiveAndRun(wire);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->exec.exit_code, kExpectedExit);
  EXPECT_GT(run->hde_cycles.decryption, 0u);
  EXPECT_GT(run->hde_cycles.signature, 0u);
}

TEST(EndToEndTest, PartialEncryptionRuns) {
  for (double fraction : {0.1, 0.5, 0.9}) {
    TestRig rig;
    const auto wire =
        PackageBytes(rig, EncryptionPolicy::PartialRandom(fraction));
    auto run = rig.device.ReceiveAndRun(wire);
    ASSERT_TRUE(run.ok()) << fraction << ": " << run.status().ToString();
    EXPECT_EQ(run->exec.exit_code, kExpectedExit) << fraction;
  }
}

TEST(EndToEndTest, MemoryAccessSelectionRuns) {
  TestRig rig;
  const auto wire = PackageBytes(rig, EncryptionPolicy::PartialMemoryAccesses());
  auto run = rig.device.ReceiveAndRun(wire);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->exec.exit_code, kExpectedExit);
}

TEST(EndToEndTest, FieldLevelEncryptionRuns) {
  TestRig rig;
  const auto wire = PackageBytes(rig, EncryptionPolicy::FieldLevelPointers());
  auto run = rig.device.ReceiveAndRun(wire);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->exec.exit_code, kExpectedExit);
}

TEST(EndToEndTest, UnencryptedSignedPackageRuns) {
  TestRig rig;
  const auto wire = PackageBytes(rig, EncryptionPolicy::None());
  auto run = rig.device.ReceiveAndRun(wire);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->exec.exit_code, kExpectedExit);
}

TEST(EndToEndTest, AesCtrCipherAlsoWorks) {
  TestRig rig(CipherKind::kAesCtr);
  const auto wire = PackageBytes(rig, EncryptionPolicy::Full());
  auto run = rig.device.ReceiveAndRun(wire);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->exec.exit_code, kExpectedExit);
}

TEST(EndToEndTest, EncryptedAndPlainExecutionIdentical) {
  TestRig rig;
  auto built =
      rig.source.CompileAndPackage(kProgram, EncryptionPolicy::Full());
  ASSERT_TRUE(built.ok());
  const auto wire = pkg::Serialize(built->packaging.package);
  auto secure = rig.device.ReceiveAndRun(wire);
  ASSERT_TRUE(secure.ok());
  const auto plain = rig.device.RunPlaintext(built->compile.program.image);
  // Same instruction counts, same result: the HDE's only effect is the
  // load-path latency.
  EXPECT_EQ(secure->exec.exit_code, plain.exec.exit_code);
  EXPECT_EQ(secure->exec.instructions, plain.exec.instructions);
  EXPECT_EQ(secure->exec.cycles, plain.exec.cycles);
  EXPECT_GT(secure->total_cycles(), plain.total_cycles());
}

TEST(EndToEndTest, SimulatedRunsFeedTheSimCounters) {
  // Both counters are exported before any run. Each run adds exactly its
  // own ExecStats to them (the HDE's load-path cycles are not simulated
  // work); a package the HDE refuses never runs, so it adds nothing.
  const std::string exported = obs::MetricsRegistry::Global().PrometheusText();
  EXPECT_NE(exported.find("sim_instructions"), std::string::npos);
  EXPECT_NE(exported.find("sim_cycles"), std::string::npos);
  TestRig rig;
  auto built =
      rig.source.CompileAndPackage(kProgram, EncryptionPolicy::Full());
  ASSERT_TRUE(built.ok());
  auto wire = pkg::Serialize(built->packaging.package);
  obs::Counter& instructions =
      obs::MetricsRegistry::Global().GetCounter("sim_instructions");
  obs::Counter& cycles =
      obs::MetricsRegistry::Global().GetCounter("sim_cycles");

  uint64_t instructions_before = instructions.value();
  uint64_t cycles_before = cycles.value();
  auto secure = rig.device.ReceiveAndRun(wire);
  ASSERT_TRUE(secure.ok());
  EXPECT_EQ(instructions.value() - instructions_before,
            secure->exec.instructions);
  EXPECT_EQ(cycles.value() - cycles_before, secure->exec.cycles);

  instructions_before = instructions.value();
  cycles_before = cycles.value();
  const auto plain = rig.device.RunPlaintext(built->compile.program.image);
  EXPECT_EQ(instructions.value() - instructions_before,
            plain.exec.instructions);
  EXPECT_EQ(cycles.value() - cycles_before, plain.exec.cycles);

  instructions_before = instructions.value();
  wire[wire.size() / 2] ^= 0x10;
  EXPECT_FALSE(rig.device.ReceiveAndRun(wire).ok());
  EXPECT_EQ(instructions.value(), instructions_before);
}

// --- Threat model (Sec. II.C) ----------------------------------------------

// Threat (i): hijacking the program for reverse engineering — static view.
TEST(ThreatTest, CiphertextHidesInstructions) {
  TestRig rig;
  auto built =
      rig.source.CompileAndPackage(kProgram, EncryptionPolicy::Full());
  ASSERT_TRUE(built.ok());
  const auto& plain = built->compile.program.image;
  const auto& encrypted = built->packaging.package.text;
  ASSERT_EQ(plain.size(), encrypted.size());
  size_t identical = 0;
  for (size_t i = 0; i < plain.size(); ++i) {
    identical += plain[i] == encrypted[i];
  }
  // A byte survives by chance with p = 1/256.
  EXPECT_LT(static_cast<double>(identical) / plain.size(), 0.05);
}

// Threat (ii): running programs of unknown origin on user hardware.
TEST(ThreatTest, PackageFromWrongSourceRejected) {
  TestRig rig;
  // An impostor source with a random key (never enrolled with the device).
  crypto::Key256 wrong_key;
  wrong_key.fill(0x66);
  SoftwareSource impostor(wrong_key, rig.config);
  auto built = impostor.CompileAndPackage(kProgram, EncryptionPolicy::Full());
  ASSERT_TRUE(built.ok());
  auto run = rig.device.ReceiveAndRun(pkg::Serialize(built->packaging.package));
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), ErrorCode::kVerificationFailed);
}

// Threat (iii): running the program on unlicensed/unverified hardware.
TEST(ThreatTest, WrongDeviceCannotDecrypt) {
  TestRig rig;
  const auto wire = PackageBytes(rig, EncryptionPolicy::Full());
  // A different physical device (different silicon seed).
  TrustedDevice other(kOtherDeviceSeed, rig.config);
  other.Enroll();
  auto run = other.ReceiveAndRun(wire);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), ErrorCode::kVerificationFailed);
}

// Threat (iv): malicious modification or soft errors in transit.
TEST(ThreatTest, BitFlipInTextDetected) {
  TestRig rig;
  auto wire = PackageBytes(rig, EncryptionPolicy::Full());
  wire[wire.size() / 2] ^= 0x10;  // flip one bit mid-image
  auto run = rig.device.ReceiveAndRun(wire);
  ASSERT_FALSE(run.ok());
}

TEST(ThreatTest, BitFlipInSignatureDetected) {
  TestRig rig;
  auto wire = PackageBytes(rig, EncryptionPolicy::Full());
  wire[wire.size() - 1] ^= 0x01;  // signature is the trailing 32 bytes
  auto run = rig.device.ReceiveAndRun(wire);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), ErrorCode::kVerificationFailed);
}

TEST(ThreatTest, TruncatedPackageRejected) {
  TestRig rig;
  auto wire = PackageBytes(rig, EncryptionPolicy::Full());
  wire.resize(wire.size() - 7);
  auto run = rig.device.ReceiveAndRun(wire);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), ErrorCode::kCorruptPackage);
}

TEST(ThreatTest, EveryByteOfHeaderIsCovered) {
  // Flipping any single header byte must never yield a successful run
  // with wrong semantics: it either fails parse or fails validation.
  TestRig rig;
  const auto wire = PackageBytes(rig, EncryptionPolicy::PartialRandom(0.5));
  for (size_t i = 0; i < 36; ++i) {
    auto copy = wire;
    copy[i] ^= 0xFF;
    auto run = rig.device.ReceiveAndRun(copy);
    if (run.ok()) {
      // Only acceptable if the flip was semantically neutral AND the
      // program still behaves identically.
      EXPECT_EQ(run->exec.exit_code, kExpectedExit) << "header byte " << i;
    }
  }
}

TEST(ThreatTest, MapTamperingDetected) {
  // Flip a bit in the encryption map: the HDE decrypts the wrong subset,
  // the recomputed digest changes, validation fails.
  TestRig rig;
  auto built = rig.source.CompileAndPackage(
      kProgram, EncryptionPolicy::PartialRandom(0.5));
  ASSERT_TRUE(built.ok());
  pkg::Package tampered = built->packaging.package;
  tampered.encryption_map.Set(3, !tampered.encryption_map.Get(3));
  auto run = rig.device.ReceiveAndRun(pkg::Serialize(tampered));
  ASSERT_FALSE(run.ok());
}

TEST(ThreatTest, ReplayAcrossEpochsRejected) {
  // Device rotates to epoch 1; packages built for epoch 0 must fail fast.
  crypto::KeyConfig old_config;  // epoch 0
  TrustedDevice device(kDeviceSeed, old_config);
  SoftwareSource old_source(device.Enroll(), old_config);
  auto built =
      old_source.CompileAndPackage(kProgram, EncryptionPolicy::Full());
  ASSERT_TRUE(built.ok());

  crypto::KeyConfig new_config;
  new_config.epoch = 1;
  TrustedDevice rotated(kDeviceSeed, new_config);
  rotated.Enroll();
  auto run = rotated.ReceiveAndRun(pkg::Serialize(built->packaging.package));
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), ErrorCode::kAuthenticationFailed);
}

TEST(ThreatTest, SameSiliconNewEpochStillWorksAfterRekey) {
  // Key rotation: same physical device, new epoch, re-handshake. This is
  // the paper's "long-term key usage, enabling different key
  // configurations" property.
  crypto::KeyConfig config;
  config.epoch = 7;
  TrustedDevice device(kDeviceSeed, config);
  SoftwareSource source(device.Enroll(), config);
  auto built = source.CompileAndPackage(kProgram, EncryptionPolicy::Full());
  ASSERT_TRUE(built.ok());
  auto run = device.ReceiveAndRun(pkg::Serialize(built->packaging.package));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->exec.exit_code, kExpectedExit);
}

// --- Policy machinery ---------------------------------------------------------

TEST(PolicyTest, SelectionFractionRoughlyHonored) {
  std::vector<isa::Instr> instrs(1000);
  const BitVector map =
      SelectInstructions(EncryptionPolicy::PartialRandom(0.3), instrs);
  EXPECT_GT(map.PopCount(), 230u);
  EXPECT_LT(map.PopCount(), 370u);
}

TEST(PolicyTest, SelectionIsSeedDeterministic) {
  std::vector<isa::Instr> instrs(100);
  const auto a =
      SelectInstructions(EncryptionPolicy::PartialRandom(0.5, 1), instrs);
  const auto b =
      SelectInstructions(EncryptionPolicy::PartialRandom(0.5, 1), instrs);
  const auto c =
      SelectInstructions(EncryptionPolicy::PartialRandom(0.5, 2), instrs);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(PolicyTest, MemoryAccessSelectionPicksLoadsStores) {
  std::vector<isa::Instr> instrs = {
      isa::MakeI(isa::Op::kAddi, 1, 1, 0),
      isa::MakeLoad(isa::Op::kLd, 1, 2, 0),
      isa::MakeStore(isa::Op::kSd, 1, 2, 0),
      isa::MakeBranch(isa::Op::kBeq, 1, 2, 0),
  };
  const auto map =
      SelectInstructions(EncryptionPolicy::PartialMemoryAccesses(), instrs);
  EXPECT_FALSE(map.Get(0));
  EXPECT_TRUE(map.Get(1));
  EXPECT_TRUE(map.Get(2));
  EXPECT_FALSE(map.Get(3));
}

TEST(PolicyTest, EveryNthStride) {
  EncryptionPolicy p;
  p.mode = pkg::EncryptionMode::kPartial;
  p.strategy = SelectionStrategy::kEveryNth;
  p.stride = 3;
  std::vector<isa::Instr> instrs(9);
  const auto map = SelectInstructions(p, instrs);
  EXPECT_EQ(map.PopCount(), 3u);
  EXPECT_TRUE(map.Get(0));
  EXPECT_TRUE(map.Get(3));
  EXPECT_TRUE(map.Get(6));
}

TEST(PolicyTest, FieldMaskComputation) {
  EXPECT_EQ(FieldMask(0, 31), 0xFFFFFFFFu);
  EXPECT_EQ(FieldMask(20, 31), 0xFFF00000u);
  EXPECT_EQ(FieldMask(7, 11), 0x00000F80u);
  EXPECT_EQ(FieldMask(12, 5), 0u);   // inverted range
  EXPECT_EQ(FieldMask(0, 32), 0u);   // out of range
}

TEST(PolicyTest, FieldSpecsRejectOpcodeBits) {
  TestRig rig;
  EncryptionPolicy policy = EncryptionPolicy::FieldLevelPointers();
  policy.field_specs.push_back(
      {static_cast<uint8_t>(isa::OpClass::kAlu), 0, 6});  // covers opcode
  auto compiled = compiler::Compile(kProgram);
  ASSERT_TRUE(compiled.ok());
  auto built = rig.source.BuildPackage(compiled->program, policy);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), ErrorCode::kInvalidArgument);
}

// --- Field-level encryption details -----------------------------------------

TEST(FieldLevelTest, OpcodesStayPlaintext) {
  TestRig rig;
  auto built = rig.source.CompileAndPackage(
      kProgram, EncryptionPolicy::FieldLevelPointers());
  ASSERT_TRUE(built.ok());
  const auto& plain = built->compile.program.image;
  const auto& encrypted = built->packaging.package.text;
  // Decode the plaintext stream; at each 32-bit instruction, the low 7
  // bits (width + opcode) must be byte-identical in the ciphertext.
  size_t offset = 0;
  for (const isa::Instr& instr : built->compile.program.instructions) {
    EXPECT_EQ(plain[offset] & 0x7F, encrypted[offset] & 0x7F)
        << "offset " << offset;
    offset += static_cast<size_t>(instr.SizeBytes());
  }
}

TEST(FieldLevelTest, PointerImmediatesChange) {
  TestRig rig;
  auto built = rig.source.CompileAndPackage(
      kProgram, EncryptionPolicy::FieldLevelPointers());
  ASSERT_TRUE(built.ok());
  const auto& plain = built->compile.program.image;
  const auto& encrypted = built->packaging.package.text;
  // At least some flagged loads/stores must have modified immediates.
  size_t changed = 0;
  size_t offset = 0;
  size_t index = 0;
  for (const isa::Instr& instr : built->compile.program.instructions) {
    if (built->packaging.package.encryption_map.Get(index)) {
      bool differs = false;
      for (int b = 0; b < 4; ++b) {
        if (plain[offset + static_cast<size_t>(b)] !=
            encrypted[offset + static_cast<size_t>(b)]) {
          differs = true;
        }
      }
      changed += differs;
    }
    offset += static_cast<size_t>(instr.SizeBytes());
    ++index;
  }
  EXPECT_GT(changed, 0u);
}

TEST(FieldLevelTest, CiphertextStillDisassembles) {
  // The paper: "If the opcode parts of the instructions are not encrypted
  // ... it will also make it difficult to understand that the program is
  // encrypted." The ciphertext must decode as a valid instruction stream.
  TestRig rig;
  auto built = rig.source.CompileAndPackage(
      kProgram, EncryptionPolicy::FieldLevelPointers());
  ASSERT_TRUE(built.ok());
  auto decoded = isa::DecodeStream(std::span<const uint8_t>(
      built->packaging.package.text.data(),
      built->compile.program.text_bytes));
  ASSERT_TRUE(decoded.ok());
  size_t invalid = 0;
  for (const auto& instr : *decoded) {
    invalid += instr.op == isa::Op::kInvalid;
  }
  EXPECT_EQ(invalid, 0u);
}

// --- Package size bookkeeping (pre-Fig 5 sanity) -----------------------------

TEST(SizeTest, FullEncryptionAddsOnlySignature) {
  TestRig rig;
  auto full = rig.source.CompileAndPackage(kProgram, EncryptionPolicy::Full());
  ASSERT_TRUE(full.ok());
  const auto breakdown = pkg::BreakdownOf(full->packaging.package);
  EXPECT_EQ(breakdown.map_bytes, 0u);
  EXPECT_EQ(breakdown.signature_bytes, 32u);
}

TEST(SizeTest, PartialEncryptionAddsOneBitPerInstruction) {
  TestRig rig;
  auto partial = rig.source.CompileAndPackage(
      kProgram, EncryptionPolicy::PartialRandom(0.5));
  ASSERT_TRUE(partial.ok());
  const auto& p = partial->packaging.package;
  const auto breakdown = pkg::BreakdownOf(p);
  EXPECT_EQ(breakdown.map_bytes, (p.instr_count + 7) / 8);
}

TEST(SizeTest, WireRoundtrip) {
  TestRig rig;
  for (const auto& policy :
       {EncryptionPolicy::Full(), EncryptionPolicy::PartialRandom(0.4),
        EncryptionPolicy::FieldLevelPointers(), EncryptionPolicy::None()}) {
    auto built = rig.source.CompileAndPackage(kProgram, policy);
    ASSERT_TRUE(built.ok());
    const auto wire = pkg::Serialize(built->packaging.package);
    EXPECT_EQ(wire.size(), built->packaging.package.WireSize());
    auto parsed = pkg::Parse(wire);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->mode, built->packaging.package.mode);
    EXPECT_EQ(parsed->text, built->packaging.package.text);
    EXPECT_EQ(parsed->instr_count, built->packaging.package.instr_count);
    EXPECT_EQ(parsed->signature, built->packaging.package.signature);
  }
}

// --- Timing instrumentation ----------------------------------------------------

TEST(TimingTest, PackagingTimingsPopulated) {
  TestRig rig;
  auto built = rig.source.CompileAndPackage(kProgram, EncryptionPolicy::Full());
  ASSERT_TRUE(built.ok());
  EXPECT_GT(built->packaging.timings.sign_microseconds, 0.0);
  EXPECT_GT(built->packaging.timings.encrypt_microseconds, 0.0);
  EXPECT_GT(built->packaging.timings.total(), 0.0);
  EXPECT_GT(built->compile.TotalMicroseconds(), 0.0);
}

TEST(TimingTest, HdeCyclesScaleWithImageSize) {
  TestRig rig;
  const char* small_program = "fn main() { return 1; }";
  auto small = rig.source.CompileAndPackage(small_program,
                                            EncryptionPolicy::Full());
  auto large = rig.source.CompileAndPackage(kProgram, EncryptionPolicy::Full());
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  auto small_run =
      rig.device.ReceiveAndRun(pkg::Serialize(small->packaging.package));
  auto large_run =
      rig.device.ReceiveAndRun(pkg::Serialize(large->packaging.package));
  ASSERT_TRUE(small_run.ok());
  ASSERT_TRUE(large_run.ok());
  EXPECT_LT(small_run->hde_cycles.total(), large_run->hde_cycles.total());
}

TEST(TimingTest, UnenrolledDeviceRefuses) {
  crypto::KeyConfig config;
  HardwareDecryptionEngine hde(kDeviceSeed, config);
  pkg::Package empty;
  auto result = hde.Process(empty);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kFailedPrecondition);
}

}  // namespace
}  // namespace eric::core
