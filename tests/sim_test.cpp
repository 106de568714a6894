// Tests for the SoC simulator: functional semantics via assembly programs,
// cache behaviour, MMIO devices, timing-model invariants.
#include <gtest/gtest.h>

#include "compiler/compiler.h"
#include "isa/assembler.h"
#include "isa/encoder.h"
#include "sim/cache.h"
#include "sim/memory.h"
#include "sim/soc.h"
#include "workloads/workloads.h"

namespace eric::sim {
namespace {

using isa::Assemble;
using isa::EncodeProgram;

// Assembles and runs a program; returns the exec stats. Programs end with
// `ecall` (halt, exit code = a0).
ExecStats RunAsm(const std::string& source, uint64_t arg0 = 0,
                 uint64_t arg1 = 0, bool compress = false) {
  auto assembled = Assemble(source);
  EXPECT_TRUE(assembled.ok()) << assembled.status().ToString();
  std::vector<uint8_t> bytes;
  auto offsets = EncodeProgram(assembled->instructions, compress, bytes);
  EXPECT_TRUE(offsets.ok()) << offsets.status().ToString();
  Soc soc;
  soc.LoadProgram(bytes);
  return soc.Run(kRamBase, arg0, arg1);
}

// Field-by-field equality, so a mismatch names the counter that moved.
void ExpectSameStats(const ExecStats& actual, const ExecStats& expected) {
  EXPECT_EQ(actual.instructions, expected.instructions);
  EXPECT_EQ(actual.cycles, expected.cycles);
  EXPECT_EQ(actual.loads, expected.loads);
  EXPECT_EQ(actual.stores, expected.stores);
  EXPECT_EQ(actual.branches, expected.branches);
  EXPECT_EQ(actual.taken_branches, expected.taken_branches);
  EXPECT_EQ(actual.icache.hits, expected.icache.hits);
  EXPECT_EQ(actual.icache.misses, expected.icache.misses);
  EXPECT_EQ(actual.dcache.hits, expected.dcache.hits);
  EXPECT_EQ(actual.dcache.misses, expected.dcache.misses);
  EXPECT_EQ(actual.halt_reason, expected.halt_reason);
  EXPECT_EQ(actual.exit_code, expected.exit_code);
  EXPECT_EQ(actual.final_pc, expected.final_pc);
}

TEST(MemoryTest, ReadBackWrites) {
  Memory m;
  m.Write(0x8000'0000, 0x1122334455667788ull, 8);
  EXPECT_EQ(m.Read(0x8000'0000, 8), 0x1122334455667788ull);
  EXPECT_EQ(m.Read(0x8000'0000, 4), 0x55667788ull);
  EXPECT_EQ(m.Read(0x8000'0004, 4), 0x11223344ull);
  EXPECT_EQ(m.Read(0x8000'0000, 1), 0x88ull);
}

TEST(MemoryTest, UnmappedReadsZero) {
  Memory m;
  EXPECT_EQ(m.Read(0x1234'5678, 8), 0u);
  EXPECT_EQ(m.ResidentPages(), 0u);
}

TEST(MemoryTest, CrossPageBlock) {
  Memory m;
  std::vector<uint8_t> data(10000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  m.WriteBlock(0x8000'0F00, data);
  EXPECT_EQ(m.ReadBlock(0x8000'0F00, data.size()), data);
  EXPECT_GE(m.ResidentPages(), 3u);
}

TEST(MemoryTest, StraddlingAccessesOfEveryWidth) {
  // Every width at every offset that crosses the 4 KiB boundary between
  // two pages (plus the last in-page slot): the value must round-trip and
  // land little-endian across both pages.
  constexpr uint64_t kBoundary = 0x8000'1000;
  const uint64_t pattern = 0x8877665544332211ull;
  for (int size : {1, 2, 4, 8}) {
    for (int back = 1; back <= size; ++back) {
      SCOPED_TRACE(testing::Message() << "size " << size << " back " << back);
      Memory m;
      const uint64_t addr = kBoundary - static_cast<uint64_t>(back);
      const uint64_t value =
          size == 8 ? pattern : pattern & ((uint64_t{1} << (8 * size)) - 1);
      m.Write(addr, value, size);
      EXPECT_EQ(m.Read(addr, size), value);
      for (int i = 0; i < size; ++i) {
        EXPECT_EQ(m.ReadByte(addr + static_cast<uint64_t>(i)),
                  static_cast<uint8_t>(value >> (8 * i)));
      }
      EXPECT_EQ(m.ReadByte(addr - 1), 0u);
      EXPECT_EQ(m.ReadByte(addr + static_cast<uint64_t>(size)), 0u);
    }
  }
}

TEST(MemoryTest, StraddlingReadIntoUnmappedPageReadsZeros) {
  Memory m;
  m.Write(0x8000'0FFE, 0xBEEF, 2);
  EXPECT_EQ(m.Read(0x8000'0FFE, 4), 0xBEEFu);
  EXPECT_EQ(m.ResidentPages(), 1u);
}

TEST(MemoryTest, UnmappedReadThenWriteSeesTheWrite) {
  // A read of an unmapped page returns zeros without allocating; the
  // later write allocates the page and must be what the next read sees.
  Memory m;
  EXPECT_EQ(m.Read(0x8004'0010, 8), 0u);
  EXPECT_EQ(m.ResidentPages(), 0u);
  m.Write(0x8004'0010, 0x0123456789ABCDEFull, 8);
  EXPECT_EQ(m.Read(0x8004'0010, 8), 0x0123456789ABCDEFull);
  EXPECT_EQ(m.Read(0x8004'0016, 2), 0x0123u);
  EXPECT_EQ(m.ResidentPages(), 1u);
}

TEST(CacheTest, RepeatAccessHits) {
  Cache c;
  c.Access(0x1000);           // miss
  const uint32_t t = c.Access(0x1000);  // hit
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 1u);
  EXPECT_EQ(t, c.config().hit_cycles);
}

TEST(CacheTest, SameLineHits) {
  Cache c;
  c.Access(0x1000);
  c.Access(0x103F);  // same 64-byte line
  EXPECT_EQ(c.stats().hits, 1u);
}

TEST(CacheTest, LruEviction) {
  CacheConfig cfg;
  cfg.size_bytes = 4 * 64;  // 1 set x 4 ways... make sets=1
  cfg.ways = 4;
  cfg.line_bytes = 64;
  Cache c(cfg);
  // Fill 4 ways of set 0.
  for (uint64_t i = 0; i < 4; ++i) c.Access(i * 64);
  c.Access(0);          // touch line 0 (most recent)
  c.Access(4 * 64);     // evicts LRU = line 1
  EXPECT_EQ(c.Access(0), cfg.hit_cycles);           // still resident
  EXPECT_EQ(c.Access(1 * 64), cfg.miss_cycles);     // was evicted
}

TEST(CacheTest, NonPowerOfTwoSetCountIndexesByModulo) {
  CacheConfig cfg;
  cfg.line_bytes = 64;
  cfg.ways = 2;
  cfg.size_bytes = 3 * 2 * 64;  // 3 sets
  Cache c(cfg);
  // Lines 0, 3 and 6 share set 0; line 1 lives in set 1.
  c.Access(0 * 64);
  c.Access(3 * 64);
  c.Access(1 * 64);
  c.Access(6 * 64);  // evicts line 0, the LRU way of set 0
  EXPECT_EQ(c.Access(3 * 64), cfg.hit_cycles);
  EXPECT_EQ(c.Access(1 * 64), cfg.hit_cycles);
  EXPECT_EQ(c.Access(0 * 64), cfg.miss_cycles);
  EXPECT_EQ(c.stats().misses, 5u);
  EXPECT_EQ(c.stats().hits, 2u);
}

TEST(CacheTest, RepeatLastHitMatchesRepeatedAccesses) {
  // n hits on the line accessed last, recorded in bulk, must leave the
  // same counters and the same LRU order as n Access calls: after the
  // repeats, a run of conflicting lines evicts exactly the same ways from
  // both caches.
  CacheConfig cfg;
  cfg.size_bytes = 4 * 64;  // one set of four ways
  Cache stepped(cfg);
  Cache batched(cfg);
  for (uint64_t line : {0, 1, 2, 3}) {
    stepped.Access(line * 64);
    batched.Access(line * 64);
  }
  stepped.Access(64);
  batched.Access(64);
  for (int i = 0; i < 5; ++i) stepped.Access(64 + 4);
  batched.RepeatLastHit(5);
  batched.RepeatLastHit(0);  // no-op
  EXPECT_EQ(batched.stats().hits, stepped.stats().hits);
  EXPECT_EQ(batched.stats().misses, stepped.stats().misses);
  for (uint64_t line : {4, 0, 5, 1, 6, 2, 3}) {
    EXPECT_EQ(batched.Access(line * 64), stepped.Access(line * 64))
        << "line " << line;
  }
  EXPECT_EQ(batched.stats().hits, stepped.stats().hits);
  EXPECT_EQ(batched.stats().misses, stepped.stats().misses);
}

TEST(CacheTest, FlushInvalidatesAll) {
  Cache c;
  c.Access(0x2000);
  c.Flush();
  c.Access(0x2000);
  EXPECT_EQ(c.stats().misses, 2u);
}

TEST(CacheTest, MissRate) {
  Cache c;
  c.Access(0);
  c.Access(0);
  c.Access(0);
  c.Access(64);
  EXPECT_DOUBLE_EQ(c.stats().miss_rate(), 0.5);
}

// --- Core functional tests -----------------------------------------------

TEST(CpuTest, ArithmeticAndExit) {
  const ExecStats stats = RunAsm(R"(
    li a0, 5
    addi a0, a0, 37
    ecall
  )");
  EXPECT_EQ(stats.halt_reason, HaltReason::kExit);
  EXPECT_EQ(stats.exit_code, 42);
}

TEST(CpuTest, ArgumentsArriveInA0A1) {
  const ExecStats stats = RunAsm(R"(
    add a0, a0, a1
    ecall
  )", 30, 12);
  EXPECT_EQ(stats.exit_code, 42);
}

TEST(CpuTest, LoopCountsCorrectly) {
  const ExecStats stats = RunAsm(R"(
    li t0, 100
    li a0, 0
  loop:
    addi a0, a0, 2
    addi t0, t0, -1
    bnez t0, loop
    ecall
  )");
  EXPECT_EQ(stats.exit_code, 200);
  EXPECT_GT(stats.taken_branches, 90u);
}

TEST(CpuTest, MemoryRoundtrip) {
  const ExecStats stats = RunAsm(R"(
    li t0, 0x1234
    sd t0, -16(sp)
    ld a0, -16(sp)
    ecall
  )");
  EXPECT_EQ(stats.exit_code, 0x1234);
}

TEST(CpuTest, ByteAndHalfAccess) {
  const ExecStats stats = RunAsm(R"(
    li t0, 0x1ff
    sb t0, -8(sp)      # stores 0xff
    lbu a0, -8(sp)
    ecall
  )");
  EXPECT_EQ(stats.exit_code, 0xFF);
}

TEST(CpuTest, SignExtendingLoads) {
  const ExecStats stats = RunAsm(R"(
    li t0, 0x80
    sb t0, -8(sp)
    lb a0, -8(sp)      # sign-extends to -128
    ecall
  )");
  EXPECT_EQ(stats.exit_code, -128);
}

TEST(CpuTest, MulDiv) {
  const ExecStats stats = RunAsm(R"(
    li t0, 6
    li t1, 7
    mul a0, t0, t1
    ecall
  )");
  EXPECT_EQ(stats.exit_code, 42);
}

TEST(CpuTest, DivByZeroFollowsSpec) {
  const ExecStats stats = RunAsm(R"(
    li t0, 5
    li t1, 0
    div a0, t0, t1     # RISC-V: -1 on divide by zero
    ecall
  )");
  EXPECT_EQ(stats.exit_code, -1);
}

TEST(CpuTest, RemByZeroReturnsDividend) {
  const ExecStats stats = RunAsm(R"(
    li t0, 5
    li t1, 0
    rem a0, t0, t1
    ecall
  )");
  EXPECT_EQ(stats.exit_code, 5);
}

TEST(CpuTest, DivOverflowCase) {
  // INT64_MIN / -1 must return INT64_MIN (no trap).
  const ExecStats stats = RunAsm(R"(
    li t0, 1
    slli t0, t0, 63    # INT64_MIN
    li t1, -1
    div a0, t0, t1
    srli a0, a0, 63    # isolate the sign bit: expect 1
    ecall
  )");
  EXPECT_EQ(stats.exit_code, 1);
}

TEST(CpuTest, CallAndReturn) {
  const ExecStats stats = RunAsm(R"(
    call double_it
    ecall
  double_it:
    slli a0, a0, 1
    ret
  )", 21);
  EXPECT_EQ(stats.exit_code, 42);
}

TEST(CpuTest, ShiftsAndLogic) {
  const ExecStats stats = RunAsm(R"(
    li t0, 0xF0
    li t1, 0x0F
    or t2, t0, t1      # 0xFF
    xor t2, t2, t1     # 0xF0
    srli a0, t2, 4     # 0x0F
    ecall
  )");
  EXPECT_EQ(stats.exit_code, 0x0F);
}

TEST(CpuTest, SltVariants) {
  const ExecStats stats = RunAsm(R"(
    li t0, -1
    li t1, 1
    slt t2, t0, t1     # 1 (signed)
    sltu t3, t0, t1    # 0 (unsigned: t0 is huge)
    slli t2, t2, 1
    or a0, t2, t3      # expect 2
    ecall
  )");
  EXPECT_EQ(stats.exit_code, 2);
}

TEST(CpuTest, WordOps32BitWrap) {
  const ExecStats stats = RunAsm(R"(
    li t0, 0x7fffffff
    addiw a0, t0, 1     # wraps to INT32_MIN, sign-extended
    srai a0, a0, 31     # all ones
    andi a0, a0, 1
    ecall
  )");
  EXPECT_EQ(stats.exit_code, 1);
}

TEST(CpuTest, EbreakHalts) {
  const ExecStats stats = RunAsm("ebreak\n");
  EXPECT_EQ(stats.halt_reason, HaltReason::kEbreak);
}

TEST(CpuTest, InvalidInstructionHalts) {
  Soc soc;
  const std::vector<uint8_t> junk = {0xFF, 0xFF, 0xFF, 0xFF};
  soc.LoadProgram(junk);
  const ExecStats stats = soc.Run();
  EXPECT_EQ(stats.halt_reason, HaltReason::kInvalidInstruction);
}

TEST(CpuTest, InstructionLimitStopsRunaway) {
  ExecLimits limits;
  limits.max_instructions = 1000;
  auto assembled = Assemble("loop: j loop\n");
  ASSERT_TRUE(assembled.ok());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeProgram(assembled->instructions, false, bytes).ok());
  Soc soc;
  soc.LoadProgram(bytes);
  const ExecStats stats = soc.Run(kRamBase, 0, 0, limits);
  EXPECT_EQ(stats.halt_reason, HaltReason::kInstructionLimit);
  EXPECT_EQ(stats.instructions, 1000u);
}

TEST(CpuTest, CompressedProgramRunsIdentically) {
  // Straight-line only: the assembler resolves labels assuming 4-byte
  // encodings, so branchy code must use compress=false (the compiler's
  // backend, which relaxes layout, owns the compressed-branch case).
  const std::string source = R"(
    li t0, 10
    li a0, 0
    add a0, a0, t0
    addi t0, t0, -3
    add a0, a0, t0
    ecall
  )";
  const ExecStats wide = RunAsm(source, 0, 0, /*compress=*/false);
  const ExecStats narrow = RunAsm(source, 0, 0, /*compress=*/true);
  EXPECT_EQ(wide.exit_code, 17);
  EXPECT_EQ(narrow.exit_code, 17);
  EXPECT_EQ(wide.instructions, narrow.instructions);
}

std::vector<uint8_t> Encode(const std::string& source, bool compress) {
  auto assembled = Assemble(source);
  EXPECT_TRUE(assembled.ok()) << assembled.status().ToString();
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(EncodeProgram(assembled->instructions, compress, bytes).ok());
  return bytes;
}

uint64_t Word(const std::vector<uint8_t>& bytes) {
  EXPECT_EQ(bytes.size(), 4u);
  uint64_t word = 0;
  for (size_t i = 0; i < bytes.size() && i < 4; ++i) {
    word |= static_cast<uint64_t>(bytes[i]) << (8 * i);
  }
  return word;
}

// Runs the patch loop below twice with `original` as the 4 bytes at
// offset 12. The first pass executes them, then overwrites them with the
// word in a1 (`addi a0, a0, 100`); the second pass must execute the new
// bytes, so a stale decode of the old ones shows up in the exit code.
// The `j` makes `loop` a block entry of its own, decoded and run before
// the store: the second pass re-enters that block, so only invalidating
// it on the store makes the new bytes run.
ExecStats RunSelfModifying(const std::vector<uint8_t>& original) {
  std::vector<uint8_t> bytes = Encode(R"(
    auipc t0, 0
    li t1, 2
    j loop
  loop:
    addi a0, a0, 1
    sw a1, 12(t0)
    addi t1, t1, -1
    bnez t1, loop
    ecall
  )", /*compress=*/false);
  EXPECT_EQ(original.size(), 4u);
  std::copy(original.begin(), original.end(), bytes.begin() + 12);
  Soc soc;
  soc.LoadProgram(bytes);
  return soc.Run(kRamBase, 0, Word(Encode("addi a0, a0, 100\n", false)));
}

TEST(CpuTest, SelfModifyingStoreReplacesWideInstruction) {
  const ExecStats stats =
      RunSelfModifying(Encode("addi a0, a0, 1\n", /*compress=*/false));
  EXPECT_EQ(stats.halt_reason, HaltReason::kExit);
  EXPECT_EQ(stats.exit_code, 101);
  EXPECT_EQ(stats.instructions, 3u + 2 * 4 + 1);
}

TEST(CpuTest, SelfModifyingStoreReplacesCompressedPair) {
  // Two 2-byte instructions (c.addi + c.nop) become one 4-byte addi.
  const std::vector<uint8_t> pair =
      Encode("addi a0, a0, 1\nnop\n", /*compress=*/true);
  ASSERT_EQ(pair.size(), 4u);
  const ExecStats stats = RunSelfModifying(pair);
  EXPECT_EQ(stats.halt_reason, HaltReason::kExit);
  EXPECT_EQ(stats.exit_code, 101);
  EXPECT_EQ(stats.instructions, 3u + 5 + 4 + 1);
}

TEST(CpuTest, PageStraddlingLoadsAndStoresOfEveryWidth) {
  const std::pair<const char*, const char*> widths[] = {
      {"sb", "lbu"}, {"sh", "lhu"}, {"sw", "lwu"}, {"sd", "ld"}};
  const uint64_t value = 0x0123456789ABCDEFull;
  int size = 1;
  for (const auto& [store, load] : widths) {
    SCOPED_TRACE(store);
    // One byte below the boundary of the (initially unmapped) data page:
    // every access wider than a byte spans two pages.
    const ExecStats stats = RunAsm(std::string(R"(
      li t0, 0x21000
      ld a0, -1(t0)
      bnez a0, fail
      )") + store + " a1, -1(t0)\n" + load + R"( a0, -1(t0)
      ecall
    fail:
      ebreak
    )", 0, value);
    EXPECT_EQ(stats.halt_reason, HaltReason::kExit);
    const uint64_t mask =
        size == 8 ? ~uint64_t{0} : (uint64_t{1} << (8 * size)) - 1;
    EXPECT_EQ(static_cast<uint64_t>(stats.exit_code), value & mask);
    size *= 2;
  }
}

TEST(CpuTest, MmioHandlersSeeOnlyTheirRange) {
  // The handlers claim every access they are offered, so the range alone
  // decides which accesses are device accesses.
  const std::vector<uint8_t> bytes = Encode(R"(
    li t0, 0x100
    sd a1, 0(t0)       # first byte of the range: device
    sd a1, 8(t0)       # one past the last byte: RAM
    ld a0, 7(t0)       # last byte of the range: device, reads 42
    ecall
  )", /*compress=*/false);
  Memory memory;
  memory.WriteBlock(kRamBase, bytes);
  Cpu cpu(memory);
  std::vector<uint64_t> seen;
  MmioHandlers handlers;
  handlers.store = [&](uint64_t addr, uint64_t, int) {
    seen.push_back(addr);
    return true;
  };
  handlers.load = [&](uint64_t addr, uint64_t* value, int) {
    seen.push_back(addr);
    *value = 42;
    return true;
  };
  EXPECT_TRUE(handlers.Covers(0));
  EXPECT_TRUE(handlers.Covers(~uint64_t{0}));
  handlers.first = 0x100;
  handlers.last = 0x107;
  cpu.set_mmio(handlers);
  cpu.Reset(kRamBase, kStackTop);
  cpu.set_reg(11, 7);
  const ExecStats stats = cpu.Run();
  EXPECT_EQ(stats.halt_reason, HaltReason::kExit);
  EXPECT_EQ(stats.exit_code, 42);
  EXPECT_EQ(seen, (std::vector<uint64_t>{0x100, 0x107}));
  EXPECT_EQ(memory.Read(0x100, 8), 0u);
  EXPECT_EQ(memory.Read(0x108, 8), 7u);
}

// --- MMIO devices -----------------------------------------------------------

TEST(SocTest, ConsoleOutput) {
  auto assembled = Assemble(R"(
    li t0, 0x10000000
    li t1, 72          # 'H'
    sb t1, 0(t0)
    li t1, 105         # 'i'
    sb t1, 0(t0)
    ecall
  )");
  ASSERT_TRUE(assembled.ok());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeProgram(assembled->instructions, false, bytes).ok());
  Soc soc;
  soc.LoadProgram(bytes);
  soc.Run();
  EXPECT_EQ(soc.console_output(), "Hi");
}

TEST(SocTest, ExitDeviceHaltsWithCode) {
  auto assembled = Assemble(R"(
    li t0, 0x10000000
    li t1, 7
    sd t1, 8(t0)
    li a0, 99          # never reached
    ecall
  )");
  ASSERT_TRUE(assembled.ok());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeProgram(assembled->instructions, false, bytes).ok());
  Soc soc;
  soc.LoadProgram(bytes);
  const ExecStats stats = soc.Run();
  EXPECT_EQ(stats.halt_reason, HaltReason::kExit);
  EXPECT_EQ(stats.exit_code, 7);
}

TEST(SocTest, MmioDevicesClaimExactlyTheirAddresses) {
  // The byte just below the console and the byte just past the exit
  // device are plain RAM: stores there neither print nor halt, and read
  // back. The devices themselves read as zero.
  auto assembled = Assemble(R"(
    li t0, 0x10000000
    li t1, 65          # 'A'
    sb t1, -1(t0)
    sb t1, 16(t0)
    sb t1, 0(t0)
    lbu a0, -1(t0)
    lbu a1, 16(t0)
    add a0, a0, a1
    lbu a1, 0(t0)
    add a0, a0, a1
    ld a1, 8(t0)
    add a0, a0, a1
    sd a0, 8(t0)
    li a0, 99          # never reached
    ecall
  )");
  ASSERT_TRUE(assembled.ok());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeProgram(assembled->instructions, false, bytes).ok());
  Soc soc;
  soc.LoadProgram(bytes);
  const ExecStats stats = soc.Run();
  EXPECT_EQ(soc.console_output(), "A");
  EXPECT_EQ(stats.halt_reason, HaltReason::kExit);
  EXPECT_EQ(stats.exit_code, 2 * 65);
  EXPECT_EQ(soc.memory().ReadByte(kConsoleAddr - 1), 65u);
  EXPECT_EQ(soc.memory().ReadByte(kExitAddr + 8), 65u);
  // The two RAM stores and two RAM loads went through the D-cache; the
  // device stores and loads did not.
  EXPECT_EQ(stats.dcache.accesses(), 4u);
}

TEST(SocTest, BackToBackRunsReportIdenticalStats) {
  // One Soc, two runs of the same image: every counter is per run. Cache
  // tags are flushed on reset, so the second run also starts cold. qsort
  // sorts its array in place, so the image is reloaded in between.
  const workloads::Workload* qsort = workloads::FindWorkload("qsort");
  ASSERT_NE(qsort, nullptr);
  auto compiled = compiler::Compile(qsort->source);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  Soc soc;
  soc.LoadProgram(compiled->program.image);
  const ExecStats first = soc.Run();
  soc.LoadProgram(compiled->program.image);
  const ExecStats second = soc.Run();
  ExpectSameStats(second, first);
  EXPECT_EQ(first.exit_code, qsort->reference());
}

TEST(SocTest, ResetDropsTheLrScReservation) {
  // Run 1 takes a reservation with lr.w and exits. Run 2 on the same Soc
  // tries sc.w without an lr.w of its own: it must fail (rd = 1) and
  // leave memory alone, exactly as on a fresh Soc.
  const std::vector<uint8_t> bytes = Encode(R"(
    li t0, 0x20000
    bnez a0, second
    lr.w t1, (t0)
    ecall
  second:
    sc.w a0, a1, (t0)
    ecall
  )", /*compress=*/false);
  Soc soc;
  soc.LoadProgram(bytes);
  EXPECT_EQ(soc.Run(kRamBase, 0, 0).halt_reason, HaltReason::kExit);
  const ExecStats reused = soc.Run(kRamBase, 1, 7);
  EXPECT_EQ(reused.halt_reason, HaltReason::kExit);
  EXPECT_EQ(reused.exit_code, 1);
  EXPECT_EQ(soc.memory().Read(0x20000, 4), 0u);

  Soc fresh;
  fresh.LoadProgram(bytes);
  EXPECT_EQ(fresh.Run(kRamBase, 1, 7).exit_code, 1);
}

// --- Golden ExecStats: the cycle-exact oracle ---------------------------------

// Every ExecStats field of every workload kernel, captured from the
// byte-at-a-time interpreter that predates the host-side fast paths (page
// TLB, block cache, per-block charges, MRU-ordered cache sets). Those
// paths must reproduce every number exactly: any drift means a modelled
// cycle moved. RV32I rows are the kernels bench_isa runs on that ISA
// (crc32 and sha are not 32-bit clean there).
struct GoldenRun {
  isa::IsaId isa;
  const char* kernel;
  ExecStats stats;
};

ExecStats Golden(uint64_t instructions, uint64_t cycles, uint64_t loads,
                 uint64_t stores, uint64_t branches, uint64_t taken_branches,
                 uint64_t icache_hits, uint64_t icache_misses,
                 uint64_t dcache_hits, uint64_t dcache_misses,
                 int64_t exit_code) {
  ExecStats s;
  s.instructions = instructions;
  s.cycles = cycles;
  s.loads = loads;
  s.stores = stores;
  s.branches = branches;
  s.taken_branches = taken_branches;
  s.icache = {icache_hits, icache_misses};
  s.dcache = {dcache_hits, dcache_misses};
  s.halt_reason = HaltReason::kExit;
  s.exit_code = exit_code;
  s.final_pc = kRamBase + 8;  // the startup stub's ecall
  return s;
}

const GoldenRun kGoldenRuns[] = {
    {isa::IsaId::kRv64Gc, "bitcount", Golden(1532741, 1814054, 428853, 484254, 53351, 3073, 1532733, 8, 913100, 6, 31877)},
    {isa::IsaId::kRv64Gc, "basicmath", Golden(392680, 674572, 127267, 117555, 12202, 1201, 392669, 11, 244814, 7, 70133)},
    {isa::IsaId::kRv64Gc, "crc32", Golden(463860, 559431, 114685, 135169, 18433, 5126, 463852, 8, 249847, 6, 80307)},
    {isa::IsaId::kRv64Gc, "sha", Golden(175163, 195128, 41993, 45070, 513, 1, 175148, 15, 87054, 8, 903978)},
    {isa::IsaId::kRv64Gc, "qsort", Golden(288849, 383573, 76812, 67113, 12272, 4271, 288834, 15, 143776, 148, 726557)},
    {isa::IsaId::kRv64Gc, "stringsearch", Golden(1730318, 2119567, 489274, 407447, 78792, 19955, 1730308, 10, 896139, 581, 4090)},
    {isa::IsaId::kRv64Gc, "dijkstra", Golden(1431947, 1735892, 412925, 350982, 56703, 26826, 1431919, 28, 763812, 94, 3473)},
    {isa::IsaId::kRv64Gc, "fft", Golden(106520, 186163, 31335, 29419, 1122, 18, 106509, 11, 60731, 22, 356261)},
    {isa::IsaId::kRv64Gc, "adpcm", Golden(445016, 633195, 124431, 132125, 17410, 9504, 444997, 19, 256413, 142, 356522)},
    {isa::IsaId::kRv32I, "bitcount", Golden(2446383, 3149803, 428853, 484254, 321707, 164932, 2446368, 15, 913102, 4, 31877)},
    {isa::IsaId::kRv32I, "basicmath", Golden(3465366, 5067708, 127267, 117555, 821320, 678593, 3465344, 22, 244817, 4, 70133)},
    {isa::IsaId::kRv32I, "qsort", Golden(795352, 1117018, 76812, 67113, 154139, 108953, 795324, 28, 143849, 75, 726557)},
    {isa::IsaId::kRv32I, "stringsearch", Golden(2672330, 3440372, 489274, 407447, 349732, 164882, 2672312, 18, 896586, 134, 4090)},
    {isa::IsaId::kRv32I, "dijkstra", Golden(2404584, 3175138, 412925, 350982, 338171, 142626, 2404537, 47, 763859, 47, 3473)},
    {isa::IsaId::kRv32I, "fft", Golden(1156534, 1719654, 31335, 29419, 303860, 222565, 1156513, 21, 60741, 12, 356261)},
    {isa::IsaId::kRv32I, "adpcm", Golden(1836019, 2632815, 124431, 132125, 405554, 290316, 1835985, 34, 256483, 72, 123166)},
};

TEST(GoldenExecStatsTest, EveryKernelMatchesPinnedCounts) {
  size_t rv64_rows = 0;
  for (const GoldenRun& golden : kGoldenRuns) {
    SCOPED_TRACE(testing::Message() << isa::IsaName(golden.isa) << " "
                                    << golden.kernel);
    const workloads::Workload* w = workloads::FindWorkload(golden.kernel);
    ASSERT_NE(w, nullptr);
    compiler::CompileOptions options;
    options.isa = golden.isa;
    auto compiled = compiler::Compile(w->source, options);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    Soc soc({}, golden.isa);
    soc.LoadProgram(compiled->program.image);
    ExpectSameStats(soc.Run(), golden.stats);
    if (golden.isa == isa::IsaId::kRv64Gc) ++rv64_rows;
  }
  EXPECT_EQ(rv64_rows, workloads::AllWorkloads().size());
}

// --- Timing model invariants -------------------------------------------------

TEST(TimingTest, CyclesAtLeastInstructions) {
  const ExecStats stats = RunAsm(R"(
    li t0, 50
  loop:
    addi t0, t0, -1
    bnez t0, loop
    ecall
  )");
  EXPECT_GE(stats.cycles, stats.instructions);
}

TEST(TimingTest, DivSlowerThanAdd) {
  const std::string adds = R"(
    li t0, 200
  loop:
    add t1, t1, t0
    addi t0, t0, -1
    bnez t0, loop
    ecall
  )";
  const std::string divs = R"(
    li t0, 200
  loop:
    div t1, t1, t0
    addi t0, t0, -1
    bnez t0, loop
    ecall
  )";
  const ExecStats a = RunAsm(adds);
  const ExecStats d = RunAsm(divs);
  EXPECT_EQ(a.instructions, d.instructions);
  EXPECT_GT(d.cycles, a.cycles);
}

TEST(TimingTest, IcacheWarmsUp) {
  const ExecStats stats = RunAsm(R"(
    li t0, 1000
  loop:
    addi t0, t0, -1
    bnez t0, loop
    ecall
  )");
  // The tight loop fits in one or two I-cache lines: hit rate near 100 %.
  EXPECT_LT(stats.icache.miss_rate(), 0.01);
}

TEST(TimingTest, ColdDcacheMissesThenHits) {
  const ExecStats stats = RunAsm(R"(
    li t0, 64
    li t1, 0x20000
  loop:
    ld t2, 0(t1)
    addi t0, t0, -1
    bnez t0, loop
    ecall
  )");
  EXPECT_EQ(stats.dcache.misses, 1u);  // one cold miss, then hits
  EXPECT_EQ(stats.dcache.hits, 63u);
}

// --- RV32I execution mode ---------------------------------------------------

// Assembles and runs a program on an RV32I core. Programs are encoded
// uncompressed (RV32I has no C extension); the base-format encodings are
// shared with RV64, so the plain encoder produces valid RV32 words for
// RV32-legal instructions.
ExecStats RunAsmRv32(const std::string& source, uint64_t arg0 = 0,
                     uint64_t arg1 = 0) {
  auto assembled = Assemble(source);
  EXPECT_TRUE(assembled.ok()) << assembled.status().ToString();
  std::vector<uint8_t> bytes;
  auto offsets =
      EncodeProgram(assembled->instructions, /*compress=*/false, bytes);
  EXPECT_TRUE(offsets.ok()) << offsets.status().ToString();
  Soc soc({}, isa::IsaId::kRv32I);
  soc.LoadProgram(bytes);
  return soc.Run(kRamBase, arg0, arg1);
}

TEST(Rv32ExecTest, ArithmeticWrapsAtThirtyTwoBits) {
  // -2^31 + -2^31 = -2^32, which is 0 mod 2^32. A 64-bit core would
  // return -2^32; the RV32 core must re-canonicalize to 0.
  const ExecStats stats = RunAsmRv32(R"(
    lui a0, -0x80000
    add a0, a0, a0
    ecall
  )");
  EXPECT_EQ(stats.halt_reason, HaltReason::kExit);
  EXPECT_EQ(stats.exit_code, 0);
}

TEST(Rv32ExecTest, RegistersHoldSignExtendedThirtyTwoBitValues) {
  // lui -0x80000 loads INT32_MIN; srai by 31 smears the sign bit.
  const ExecStats stats = RunAsmRv32(R"(
    lui a0, -0x80000
    srai a0, a0, 31
    ecall
  )");
  EXPECT_EQ(stats.halt_reason, HaltReason::kExit);
  EXPECT_EQ(stats.exit_code, -1);
}

TEST(Rv32ExecTest, LogicalShiftRightIsThirtyTwoBitWide) {
  // 0xFFFFFFFF >> 4 must be 0x0FFFFFFF on a 32-bit core. The 64-bit
  // shift-then-truncate shortcut would produce 0xFFFFFFFF (the high
  // sign-extension bits shifting back in), so this pins the explicit
  // 32-bit path.
  const ExecStats stats = RunAsmRv32(R"(
    li a0, -1
    srli a0, a0, 4
    ecall
  )");
  EXPECT_EQ(stats.halt_reason, HaltReason::kExit);
  EXPECT_EQ(stats.exit_code, 0x0FFFFFFF);
}

TEST(Rv32ExecTest, UnsignedCompareSeesThirtyTwoBitOrdering) {
  // On RV32, -1 is the largest unsigned value; sltu must agree even
  // though registers hold the sign-extended 64-bit pattern internally.
  const ExecStats stats = RunAsmRv32(R"(
    li t0, -1
    li t1, 1
    sltu a0, t1, t0
    ecall
  )");
  EXPECT_EQ(stats.halt_reason, HaltReason::kExit);
  EXPECT_EQ(stats.exit_code, 1);
}

TEST(Rv32ExecTest, WordLoadStoreRoundtrip) {
  const ExecStats stats = RunAsmRv32(R"(
    li t0, 0x20000
    lui t1, 0x12345
    addi t1, t1, 0x678
    sw t1, 0(t0)
    lw a0, 0(t0)
    ecall
  )");
  EXPECT_EQ(stats.halt_reason, HaltReason::kExit);
  EXPECT_EQ(stats.exit_code, 0x12345678);
}

TEST(Rv32ExecTest, SixtyFourBitOnlyInstructionHaltsCore) {
  // `ld` is a valid RV64 encoding but illegal on RV32I: the core must
  // halt fail-closed, never misread it as a different width.
  const ExecStats stats = RunAsmRv32(R"(
    li t1, 0x20000
    ld a0, 0(t1)
    ecall
  )");
  EXPECT_EQ(stats.halt_reason, HaltReason::kInvalidInstruction);
}

TEST(Rv32ExecTest, MultiplyInstructionHaltsCore) {
  // RV32I carries no M extension; a stray `mul` encoding is illegal.
  const ExecStats stats = RunAsmRv32(R"(
    li t0, 6
    li t1, 7
    mul a0, t0, t1
    ecall
  )");
  EXPECT_EQ(stats.halt_reason, HaltReason::kInvalidInstruction);
}

TEST(Rv32ExecTest, CompressedEncodingsHaltCore) {
  // The same program compressed for RV64GC must refuse to execute on an
  // RV32I core (no C extension): fail closed at the first 16-bit word.
  auto assembled = Assemble(R"(
    li a0, 7
    ecall
  )");
  ASSERT_TRUE(assembled.ok());
  std::vector<uint8_t> bytes;
  auto offsets =
      EncodeProgram(assembled->instructions, /*compress=*/true, bytes);
  ASSERT_TRUE(offsets.ok());
  Soc soc({}, isa::IsaId::kRv32I);
  soc.LoadProgram(bytes);
  const ExecStats stats = soc.Run(kRamBase, 0, 0);
  EXPECT_EQ(stats.halt_reason, HaltReason::kInvalidInstruction);
}

TEST(Rv32ExecTest, SameProgramMatchesRv64ForThirtyTwoBitCleanCode) {
  // A 32-bit-clean loop (sum 1..100) must compute the identical result
  // on both cores — the heterogeneity contract the mixed-fleet e2e
  // relies on.
  const std::string source = R"(
    li a0, 0
    li t0, 100
  loop:
    add a0, a0, t0
    addi t0, t0, -1
    bnez t0, loop
    ecall
  )";
  const ExecStats rv64 = RunAsm(source);
  const ExecStats rv32 = RunAsmRv32(source);
  EXPECT_EQ(rv64.halt_reason, HaltReason::kExit);
  EXPECT_EQ(rv32.halt_reason, HaltReason::kExit);
  EXPECT_EQ(rv64.exit_code, 5050);
  EXPECT_EQ(rv32.exit_code, 5050);
}

}  // namespace
}  // namespace eric::sim
