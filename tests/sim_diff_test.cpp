// Differential tests: sim::Soc against the one-instruction-per-step
// reference interpreter (tests/sim_reference.h). Each case runs the same
// image on both and requires the full ExecStats, all 32 registers, the
// final pc, the console output and a digest of every resident memory page
// to agree. The cases aim at the places a cached or batched fast path can
// drift: instruction limits inside straight-line code, MMIO exits and CSR
// reads mid-run, stores that rewrite code about to execute, and code the
// program writes outside its loaded image.
//
// CacheDiffTest drives sim::Cache and the reference's stamp-LRU cache with
// the same random access streams and requires every access to agree on
// hit or miss.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "crypto/sha256.h"
#include "isa/assembler.h"
#include "isa/encoder.h"
#include "sim/cache.h"
#include "sim/soc.h"
#include "sim_reference.h"
#include "support/rng.h"
#include "workloads/workloads.h"

namespace eric::sim {
namespace {

struct Outcome {
  ExecStats stats;
  std::array<uint64_t, 32> regs{};
  std::string console;
  std::string memory_digest;
};

std::string DigestMemory(const Memory& memory) {
  crypto::Sha256 hash;
  memory.ForEachPage([&](uint64_t base, std::span<const uint8_t> bytes) {
    uint8_t le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<uint8_t>(base >> (8 * i));
    hash.Update(le);
    hash.Update(bytes);
  });
  return crypto::DigestToHex(hash.Finish());
}

/// Loads `image` at kRamBase into a fresh `SocT` and runs it from there.
template <typename SocT>
Outcome RunOn(std::span<const uint8_t> image, isa::IsaId isa,
              const CpuTiming& timing, const ExecLimits& limits,
              uint64_t arg0, uint64_t arg1) {
  SocT soc(timing, isa);
  soc.LoadProgram(image);
  Outcome out;
  out.stats = soc.Run(kRamBase, arg0, arg1, limits);
  for (int r = 0; r < 32; ++r) {
    out.regs[static_cast<size_t>(r)] = soc.cpu().reg(r);
  }
  out.console = soc.console_output();
  out.memory_digest = DigestMemory(soc.memory());
  return out;
}

void ExpectSameOutcome(const Outcome& actual, const Outcome& expected) {
  const ExecStats& a = actual.stats;
  const ExecStats& e = expected.stats;
  EXPECT_EQ(a.instructions, e.instructions);
  EXPECT_EQ(a.cycles, e.cycles);
  EXPECT_EQ(a.loads, e.loads);
  EXPECT_EQ(a.stores, e.stores);
  EXPECT_EQ(a.branches, e.branches);
  EXPECT_EQ(a.taken_branches, e.taken_branches);
  EXPECT_EQ(a.icache.hits, e.icache.hits);
  EXPECT_EQ(a.icache.misses, e.icache.misses);
  EXPECT_EQ(a.dcache.hits, e.dcache.hits);
  EXPECT_EQ(a.dcache.misses, e.dcache.misses);
  EXPECT_EQ(a.halt_reason, e.halt_reason);
  EXPECT_EQ(a.exit_code, e.exit_code);
  EXPECT_EQ(a.final_pc, e.final_pc);
  for (size_t r = 0; r < 32; ++r) {
    EXPECT_EQ(actual.regs[r], expected.regs[r]) << "x" << r;
  }
  EXPECT_EQ(actual.console, expected.console);
  EXPECT_EQ(actual.memory_digest, expected.memory_digest);
}

/// Runs `image` on sim::Soc and on the reference; expects them to agree
/// and returns the Soc's outcome for case-specific checks.
Outcome ExpectMatchesReference(std::span<const uint8_t> image,
                               isa::IsaId isa = isa::IsaId::kRv64Gc,
                               const CpuTiming& timing = {},
                               const ExecLimits& limits = {},
                               uint64_t arg0 = 0, uint64_t arg1 = 0) {
  const Outcome fast = RunOn<Soc>(image, isa, timing, limits, arg0, arg1);
  const Outcome ref =
      RunOn<ReferenceSoc>(image, isa, timing, limits, arg0, arg1);
  ExpectSameOutcome(fast, ref);
  return fast;
}

std::vector<uint8_t> Encode(const std::string& source) {
  auto assembled = isa::Assemble(source);
  EXPECT_TRUE(assembled.ok()) << assembled.status().ToString();
  std::vector<uint8_t> bytes;
  if (!assembled.ok()) return bytes;
  EXPECT_TRUE(
      isa::EncodeProgram(assembled->instructions, /*compress=*/false, bytes)
          .ok());
  return bytes;
}

uint32_t Word(const isa::Instr& instr) {
  auto word = isa::Encode32(instr);
  EXPECT_TRUE(word.ok());
  return word.ok() ? *word : 0;
}

/// Small caches with non-zero hit latencies: hits cost cycles, so every
/// batched or skipped cache access shows up in the cycle count, and the
/// short lines put more instructions on line boundaries.
CpuTiming TightTiming() {
  CpuTiming timing;
  timing.icache.size_bytes = 1024;
  timing.icache.line_bytes = 16;
  timing.icache.ways = 2;
  timing.icache.hit_cycles = 1;
  timing.dcache.size_bytes = 512;
  timing.dcache.line_bytes = 32;
  timing.dcache.ways = 2;
  timing.dcache.hit_cycles = 2;
  timing.mul_extra_cycles = 4;
  timing.div_extra_cycles = 11;
  timing.taken_branch_penalty = 3;
  return timing;
}

std::vector<uint8_t> CompileKernel(const std::string& name, isa::IsaId isa) {
  const workloads::Workload* w = workloads::FindWorkload(name);
  EXPECT_NE(w, nullptr) << name;
  if (w == nullptr) return {};
  compiler::CompileOptions options;
  options.isa = isa;
  auto compiled = compiler::Compile(w->source, options);
  EXPECT_TRUE(compiled.ok()) << name << ": " << compiled.status().ToString();
  return compiled.ok() ? compiled->program.image : std::vector<uint8_t>{};
}

const isa::IsaId kIsas[] = {isa::IsaId::kRv64Gc, isa::IsaId::kRv32I};

TEST(SimDiffTest, EveryKernelOnBothIsas) {
  // Includes the kernels that are not 32-bit clean on RV32I (crc32, sha,
  // adpcm): their results differ from RV64's, but the two interpreters
  // must still agree on every count.
  for (isa::IsaId isa : kIsas) {
    for (const workloads::Workload& w : workloads::AllWorkloads()) {
      SCOPED_TRACE(testing::Message() << isa::IsaName(isa) << " " << w.name);
      const std::vector<uint8_t> image = CompileKernel(w.name, isa);
      ASSERT_FALSE(image.empty());
      const Outcome out = ExpectMatchesReference(image, isa);
      EXPECT_EQ(out.stats.halt_reason, HaltReason::kExit);
    }
  }
}

TEST(SimDiffTest, KernelsUnderTightCachesAndCostlyHits) {
  for (isa::IsaId isa : kIsas) {
    for (const char* name : {"qsort", "sha", "dijkstra"}) {
      SCOPED_TRACE(testing::Message() << isa::IsaName(isa) << " " << name);
      ExpectMatchesReference(CompileKernel(name, isa), isa, TightTiming());
    }
  }
}

TEST(SimDiffTest, InstructionLimitAtEveryOffsetWithinABlock) {
  // A loop body of straight-line ALU, load, store and multiply work run
  // three times: each limit from 0 to one past the whole run stops at a
  // different offset of the prologue or the body, and the run must stop
  // at exactly the limit with the pc of the next instruction.
  const std::vector<uint8_t> image = Encode(R"(
    li t0, 3
    li t1, 0x20000
  loop:
    addi a0, a0, 1
    sd a0, 0(t1)
    ld a1, 0(t1)
    add a2, a2, a1
    mul a3, a2, a1
    xor a4, a3, a0
    sw a4, 8(t1)
    slli a5, a4, 3
    addi t0, t0, -1
    bnez t0, loop
    ecall
  )");
  const uint64_t total =
      ExpectMatchesReference(image).stats.instructions;
  for (uint64_t limit = 0; limit <= total + 1; ++limit) {
    SCOPED_TRACE(testing::Message() << "limit " << limit);
    for (const CpuTiming& timing : {CpuTiming{}, TightTiming()}) {
      const Outcome out =
          ExpectMatchesReference(image, isa::IsaId::kRv64Gc, timing,
                                 ExecLimits{limit});
      EXPECT_EQ(out.stats.instructions, std::min(limit, total));
      EXPECT_EQ(out.stats.halt_reason, limit < total
                                           ? HaltReason::kInstructionLimit
                                           : HaltReason::kExit);
    }
  }
}

TEST(SimDiffTest, InstructionLimitsInsideKernels) {
  for (isa::IsaId isa : kIsas) {
    const std::vector<uint8_t> image = CompileKernel("bitcount", isa);
    for (uint64_t limit : {1ull, 2ull, 3ull, 5ull, 8ull, 13ull, 21ull, 34ull,
                           55ull, 89ull, 144ull, 233ull, 377ull, 610ull,
                           987ull, 1597ull, 10007ull, 100003ull}) {
      SCOPED_TRACE(testing::Message()
                   << isa::IsaName(isa) << " limit " << limit);
      const Outcome out = ExpectMatchesReference(image, isa, TightTiming(),
                                                 ExecLimits{limit});
      EXPECT_EQ(out.stats.halt_reason, HaltReason::kInstructionLimit);
      EXPECT_EQ(out.stats.instructions, limit);
    }
  }
}

TEST(SimDiffTest, MmioExitStoreMidBlock) {
  for (isa::IsaId isa : kIsas) {
    SCOPED_TRACE(testing::Message() << isa::IsaName(isa));
    const std::vector<uint8_t> image = Encode(R"(
      li t0, 0x10000000
      li t1, 65
      sb t1, 0(t0)       # console
      addi a2, a2, 1
      li t1, 7
      sw t1, 8(t0)       # exit device: stops here, mid straight-line run
      addi a0, a0, 1
      addi a0, a0, 1
      ecall
    )");
    const Outcome out = ExpectMatchesReference(image, isa, TightTiming());
    EXPECT_EQ(out.stats.halt_reason, HaltReason::kExit);
    EXPECT_EQ(out.stats.exit_code, 7);
    EXPECT_EQ(out.regs[10], 0u);  // the adds after the store never ran
    EXPECT_EQ(out.regs[12], 1u);
    EXPECT_EQ(out.console, "A");
  }
}

TEST(SimDiffTest, CycleAndInstretReadsMidBlock) {
  for (isa::IsaId isa : kIsas) {
    for (const CpuTiming& timing : {CpuTiming{}, TightTiming()}) {
      SCOPED_TRACE(testing::Message() << isa::IsaName(isa));
      const std::vector<uint8_t> image = Encode(R"(
        li t0, 4
        li t1, 0x20000
      loop:
        lw a1, 0(t1)
        csrrs a2, 0xC00, zero    # cycle
        addi a1, a1, 1
        csrrs a3, 0xC02, zero    # instret
        sw a1, 0(t1)
        add a4, a4, a2
        add a5, a5, a3
        csrrs a6, 0xC00, zero
        addi t0, t0, -1
        bnez t0, loop
        sub a0, a4, a5
        ecall
      )");
      const Outcome out = ExpectMatchesReference(image, isa, timing);
      EXPECT_EQ(out.stats.halt_reason, HaltReason::kExit);
      EXPECT_GT(out.regs[13], 0u);
    }
  }
}

TEST(SimDiffTest, EveryAmoAtBothWidthsOnMixedSignOperands) {
  // Each AMO gets its own memory slot holding a0 and applies a1 to it;
  // the old values are folded into a4. The operand pairs cross the sign
  // bit at both 32 and 64 bits.
  std::string source = "li t0, 0x20000\n";
  int slot = 0;
  for (const char* op : {"amoswap", "amoadd", "amoxor", "amoand", "amoor",
                         "amomin", "amomax", "amominu", "amomaxu"}) {
    for (const char* width : {".w", ".d"}) {
      const std::string offset = std::to_string(8 * slot++);
      source += "sd a0, " + offset + "(t0)\n" + "addi t1, t0, " + offset +
                "\n" + op + width + " a2, a1, (t1)\n" + "xor a4, a4, a2\n";
    }
  }
  source += "ecall\n";
  const std::vector<uint8_t> image = Encode(source);
  const std::pair<uint64_t, uint64_t> operands[] = {
      {0x80000000ull, 0x7FFFFFFFull},
      {static_cast<uint64_t>(-5), 3},
      {0xFFFFFFFF00000001ull, 0x00000000FFFFFFFEull},
      {1, ~uint64_t{0}},
      {0x123456789ABCDEF0ull, 0x0FEDCBA987654321ull},
  };
  for (const auto& [a, b] : operands) {
    SCOPED_TRACE(testing::Message() << std::hex << a << " " << b);
    const Outcome out = ExpectMatchesReference(
        image, isa::IsaId::kRv64Gc, TightTiming(), ExecLimits{}, a, b);
    EXPECT_EQ(out.stats.halt_reason, HaltReason::kExit);
  }
}

// Runs the patch loop twice. `store` is two instructions (offsets 16 and
// 20) that rewrite the instruction at offset 24, later in the same
// straight-line run, from `addi a0, a0, 1` to the word in a1
// (`addi a0, a0, 100`) before it first executes; t3 holds its address.
Outcome RunPatchLoop(const std::string& store) {
  const std::vector<uint8_t> image = Encode(R"(
    auipc t0, 0
    addi t3, t0, 24
    li t1, 2
  loop:
    addi a0, a0, 1
    )" + store + R"(
    addi a0, a0, 1
    addi t1, t1, -1
    bnez t1, loop
    ecall
  )");
  const uint64_t patch = Word(isa::MakeI(isa::Op::kAddi, 10, 10, 100));
  return ExpectMatchesReference(image, isa::IsaId::kRv64Gc, TightTiming(),
                                ExecLimits{}, 0, patch);
}

TEST(SimDiffTest, SelfModifyingSwIntoTheExecutingBlock) {
  const Outcome out = RunPatchLoop("sw a1, 0(t3)\naddi a2, a2, 1");
  EXPECT_EQ(out.stats.halt_reason, HaltReason::kExit);
  EXPECT_EQ(out.stats.exit_code, 2 * (1 + 100));
}

TEST(SimDiffTest, SelfModifyingAmoswapIntoTheExecutingBlock) {
  const Outcome out = RunPatchLoop("amoswap.w a2, a1, (t3)\naddi a2, a2, 1");
  EXPECT_EQ(out.stats.halt_reason, HaltReason::kExit);
  EXPECT_EQ(out.stats.exit_code, 2 * (1 + 100));
}

TEST(SimDiffTest, SelfModifyingScIntoTheExecutingBlock) {
  const Outcome out = RunPatchLoop("lr.w a2, (t3)\nsc.w a2, a1, (t3)");
  EXPECT_EQ(out.stats.halt_reason, HaltReason::kExit);
  EXPECT_EQ(out.stats.exit_code, 2 * (1 + 100));
  EXPECT_EQ(out.regs[12], 0u);  // the sc succeeded
}

TEST(SimDiffTest, StoreRewritesAnEarlierInstructionOfTheLoop) {
  // The loop head runs twice from its first decode; the third iteration's
  // store then rewrites it, and the fourth must run the new instruction.
  const std::vector<uint8_t> image = Encode(R"(
    auipc t0, 0
    li t1, 4
  loop:
    addi a0, a0, 1
    li t2, 2
    bne t1, t2, skip
    sw a1, 8(t0)
  skip:
    addi t1, t1, -1
    bnez t1, loop
    ecall
  )");
  const uint64_t patch = Word(isa::MakeI(isa::Op::kAddi, 10, 10, 100));
  for (const CpuTiming& timing : {CpuTiming{}, TightTiming()}) {
    const Outcome out = ExpectMatchesReference(image, isa::IsaId::kRv64Gc,
                                               timing, ExecLimits{}, 0, patch);
    EXPECT_EQ(out.stats.exit_code, 3 + 100);
  }
}

TEST(SimDiffTest, CodeWrittenOutsideTheImageAndReachedByJalr) {
  // The program writes a two-instruction function to RAM far past its
  // image, calls it, rewrites its first instruction and calls it again:
  // code outside the image is fetched as it is at each execution.
  // Words are built with lui + addi, which both ISAs share (li would use
  // addiw on RV64).
  const auto load_word = [](uint32_t word) {
    const uint32_t lo = word & 0xFFF;
    const uint32_t hi = (word + 0x800) >> 12;
    return "lui t1, " + std::to_string(hi) + "\naddi t1, t1, " +
           std::to_string(static_cast<int32_t>(lo << 20) >> 20) + "\n";
  };
  const std::vector<uint8_t> image = Encode(
      "auipc t2, 0x100\n"  // kRamBase + 1 MiB, past the image
      + load_word(Word(isa::MakeI(isa::Op::kAddi, 10, 10, 5))) +
      "sw t1, 0(t2)\n" + load_word(Word(isa::MakeJalr(0, 1, 0))) +
      "sw t1, 4(t2)\n"
      "jalr ra, 0(t2)\n" +
      load_word(Word(isa::MakeI(isa::Op::kAddi, 10, 10, 7))) +
      "sw t1, 0(t2)\n"
      "jalr ra, 0(t2)\n"
      "ecall\n");
  for (isa::IsaId isa : kIsas) {
    SCOPED_TRACE(testing::Message() << isa::IsaName(isa));
    const Outcome out = ExpectMatchesReference(image, isa, TightTiming());
    EXPECT_EQ(out.stats.halt_reason, HaltReason::kExit);
    EXPECT_EQ(out.stats.exit_code, 12);
  }
}

/// Runs `steps` random operations against sim::Cache and ReferenceCache
/// built from `config`: accesses over a pool of three lines per way of
/// the cache (so sets fill, hit and evict), biased toward the last few
/// addresses; a Flush every few hundred steps; and, right after an
/// access, RepeatLastHit(n) on sim::Cache against n more accesses to the
/// same address on the reference. Every access must return the same
/// latency and the counters must agree after every step.
void ExpectCacheMatchesReference(const CacheConfig& config, uint64_t seed,
                                 int steps) {
  Cache cache(config);
  ReferenceCache ref(config);
  Xoshiro256 rng(seed);
  const uint64_t lines =
      3 * static_cast<uint64_t>(config.size_bytes / config.line_bytes);
  std::array<uint64_t, 4> recent{};
  bool after_access = false;
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    const uint64_t roll = rng.NextBounded(1000);
    if (roll < 3) {
      cache.Flush();
      ref.Flush();
      after_access = false;
    } else if (roll < 100 && after_access) {
      const uint64_t n = rng.NextBounded(5);
      cache.RepeatLastHit(n);
      for (uint64_t i = 0; i < n; ++i) ref.Access(recent[0]);
    } else {
      const uint64_t addr =
          roll < 400 ? recent[rng.NextBounded(recent.size())]
                     : rng.NextBounded(lines) * config.line_bytes +
                           rng.NextBounded(config.line_bytes);
      ASSERT_EQ(cache.Access(addr), ref.Access(addr)) << "addr " << addr;
      std::copy_backward(recent.begin(), recent.end() - 1, recent.end());
      recent[0] = addr;
      after_access = true;
    }
    ASSERT_EQ(cache.stats().hits, ref.stats().hits);
    ASSERT_EQ(cache.stats().misses, ref.stats().misses);
  }
}

TEST(CacheDiffTest, RandomStreamsOnEveryWayCount) {
  for (uint32_t ways : {1u, 2u, 4u, 8u}) {
    for (uint32_t line_bytes : {16u, 64u}) {
      SCOPED_TRACE(testing::Message() << ways << " ways, " << line_bytes
                                      << "-byte lines");
      CacheConfig config;
      config.ways = ways;
      config.line_bytes = line_bytes;
      config.size_bytes = 8 * ways * line_bytes;  // 8 sets
      config.hit_cycles = 1;
      config.miss_cycles = 20;
      ExpectCacheMatchesReference(config, 0xCAC4E + ways * 131 + line_bytes,
                                  20000);
    }
  }
}

TEST(CacheDiffTest, NonPowerOfTwoSetsAndLines) {
  // 3 and 5 sets index by modulo; a 24-byte line divides addresses.
  for (uint32_t ways : {1u, 2u, 4u, 8u}) {
    for (uint32_t sets : {3u, 5u}) {
      for (uint32_t line_bytes : {24u, 32u}) {
        SCOPED_TRACE(testing::Message() << ways << " ways, " << sets
                                        << " sets, " << line_bytes
                                        << "-byte lines");
        CacheConfig config;
        config.ways = ways;
        config.line_bytes = line_bytes;
        config.size_bytes = sets * ways * line_bytes;
        config.hit_cycles = 2;
        config.miss_cycles = 7;
        ExpectCacheMatchesReference(config, 0x5E7 + ways * 17 + sets,
                                    20000);
      }
    }
  }
}

TEST(CacheDiffTest, DefaultGeometryWithFlushesAndRepeatedHits) {
  // The core's L1 shape (16 KiB, 4 ways, 64-byte lines, pipelined hits).
  CpuTiming timing;
  ExpectCacheMatchesReference(timing.icache, 0xD00D, 100000);
}

}  // namespace
}  // namespace eric::sim
