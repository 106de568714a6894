// Update-agent tests: the A/B-slot state machine under crash injection at
// every apply phase and from both slot parities, manifest round-trips
// (reload == reboot), fail-closed behaviour on every manifest corruption,
// and the soak's core invariant — the active slot always holds a
// CRC-valid, epoch-current image, and replaying recovery is idempotent
// (a crash loop counts one interrupted apply exactly once). A crash-state
// oracle reboots on every state a crash inside a slot-file write could
// leave (docs/persistence.md, "Crash model").
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "agent/update_agent.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "store/record_io.h"
#include "store/wal.h"
#include "support/rng.h"

namespace eric::agent {
namespace {

namespace fs = std::filesystem;

std::string MakeTempDir(const char* tag) {
  static std::atomic<uint64_t> counter{0};
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("eric-agent-" + std::string(tag) + "-" +
                        std::to_string(counter.fetch_add(1)));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<uint8_t> Image(uint64_t seed, size_t size) {
  Xoshiro256 rng(seed);
  std::vector<uint8_t> bytes(size);
  for (auto& byte : bytes) byte = static_cast<uint8_t>(rng.Next());
  return bytes;
}

crypto::Sha256Digest KeyFp(uint8_t tag) {
  crypto::Sha256Digest digest{};
  digest.fill(tag);
  return digest;
}

Status HealthyCheck(std::span<const uint8_t>) { return Status::Ok(); }

/// Asserts the post-recovery invariants the chaos soak sweeps for: the
/// agent is idle, the active slot's bytes match their recorded CRC, and
/// the active image is exactly `expected` (the last apply that passed
/// health — epoch-current, never a torn or half-applied one).
void ExpectHealthyActive(const UpdateAgent& agent,
                         const std::vector<uint8_t>& expected) {
  const AgentState state = agent.state();
  EXPECT_EQ(state.phase, ApplyPhase::kIdle);
  EXPECT_EQ(state.staged_slot, -1);
  EXPECT_TRUE(agent.ActiveCrcValid());
  const auto active = agent.active_image();
  ASSERT_EQ(active.size(), expected.size());
  EXPECT_TRUE(std::equal(active.begin(), active.end(), expected.begin()));
  if (!expected.empty()) {
    ASSERT_GE(state.active_slot, 0);
    EXPECT_EQ(store::Crc32(expected),
              state.slots[state.active_slot].image_crc);
  }
}

TEST(UpdateAgentTest, FreshApplyActivatesSlotZero) {
  const std::string dir = MakeTempDir("fresh");
  UpdateAgent agent(7, dir + "/slots-7.bin");
  ASSERT_TRUE(agent.Recover().ok());
  EXPECT_TRUE(agent.active_image().empty());
  EXPECT_TRUE(agent.ActiveCrcValid());  // no image is not a torn image

  const auto image = Image(1, 900);
  ASSERT_TRUE(agent.Apply(image, 41, KeyFp(1), HealthyCheck).ok());
  const AgentState state = agent.state();
  EXPECT_EQ(state.active_slot, 0);
  EXPECT_EQ(state.slots[0].version, 41u);
  EXPECT_EQ(state.slots[0].key_fingerprint, KeyFp(1));
  EXPECT_EQ(state.counters.applies, 1u);
  EXPECT_EQ(state.counters.rollbacks, 0u);
  ExpectHealthyActive(agent, image);
  EXPECT_TRUE(fs::exists(dir + "/slots-7.bin"));
}

TEST(UpdateAgentTest, SecondApplyUsesOtherSlotAndKeepsPreviousImage) {
  UpdateAgent agent(9, "");  // memory-only mode also exercises A/B logic
  const auto v1 = Image(10, 600);
  const auto v2 = Image(11, 700);
  ASSERT_TRUE(agent.Apply(v1, 1, KeyFp(1), HealthyCheck).ok());
  ASSERT_TRUE(agent.Apply(v2, 2, KeyFp(1), HealthyCheck).ok());
  const AgentState state = agent.state();
  EXPECT_EQ(state.active_slot, 1);
  // A/B: the displaced image keeps its slot until the NEXT apply
  // overwrites it — that is what makes the next rollback instant.
  EXPECT_TRUE(state.slots[0].present);
  EXPECT_EQ(state.slots[0].version, 1u);
  ExpectHealthyActive(agent, v2);
  EXPECT_EQ(state.counters.applies, 2u);
}

std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

uint64_t DurableWrites() {
  return obs::MetricsRegistry::Global()
      .GetCounter("store_durable_writes")
      .value();
}

/// One slot of a hand-built manifest.
struct RawSlot {
  bool present = false;
  std::vector<uint8_t> key_fingerprint = std::vector<uint8_t>(32, 0xAB);
  std::vector<uint8_t> image;
};

/// Writes an ERICSLT1 manifest byte by byte, for files the agent itself
/// would not write: damaged ones, or ones from older builds.
void WriteRawManifest(const std::string& path, uint64_t device,
                      uint8_t active, uint8_t staged, ApplyPhase phase,
                      const RawSlot (&slots)[2]) {
  store::RecordWriter payload;
  payload.U32(1);  // schema
  payload.U64(device);
  payload.U8(active);
  payload.U8(0xFF);  // previous slot
  payload.U8(staged);
  payload.U8(static_cast<uint8_t>(phase));
  for (int counter = 0; counter < 5; ++counter) payload.U64(0);
  for (const RawSlot& slot : slots) {
    payload.U8(slot.present ? 1 : 0);
    payload.U64(1);  // version
    payload.Bytes(slot.key_fingerprint);
    payload.U32(store::Crc32(slot.image));
    payload.Bytes(slot.image);
  }
  std::vector<uint8_t> file = {'E', 'R', 'I', 'C', 'S', 'L', 'T', '1'};
  file.resize(24);
  store::StoreLe64(device, file.data() + 8);
  store::StoreLe32(store::Crc32(payload.bytes()), file.data() + 16);
  store::StoreLe32(static_cast<uint32_t>(payload.bytes().size()),
                   file.data() + 20);
  file.insert(file.end(), payload.bytes().begin(), payload.bytes().end());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(file.data()),
            static_cast<std::streamsize>(file.size()));
}

// Crash injection at every apply phase, starting from BOTH slot
// parities: an interrupted apply must never cost the device its running
// image. A pre-flip crash has written nothing: the pre-apply manifest
// stands byte for byte and a reboot finds nothing to recover. A
// post-flip crash rolls back to the previous slot. Either way a fresh
// agent (the reboot) recovers to the same healthy image that was active
// before the apply.
TEST(UpdateAgentTest, CrashAtEveryPhaseBothSlotsRecoversOldImage) {
  const CrashPoint kPoints[] = {CrashPoint::kAfterStage,
                                CrashPoint::kAfterVerify,
                                CrashPoint::kAfterFlip,
                                CrashPoint::kDuringHealth};
  for (const CrashPoint point : kPoints) {
    for (int parity = 0; parity < 2; ++parity) {
      SCOPED_TRACE("point=" + std::to_string(static_cast<int>(point)) +
                   " parity=" + std::to_string(parity));
      const bool flipped = point == CrashPoint::kAfterFlip ||
                           point == CrashPoint::kDuringHealth;
      const std::string dir = MakeTempDir("crash");
      const std::string manifest = dir + "/slots-1.bin";
      const auto good = Image(100 + parity, 800);
      const auto next = Image(200 + parity, 820);
      uint64_t good_version = 5;
      {
        UpdateAgent agent(1, manifest);
        ASSERT_TRUE(agent.Recover().ok());
        ASSERT_TRUE(agent.Apply(good, good_version, KeyFp(3),
                                HealthyCheck).ok());
        if (parity == 1) {
          // Park the good image in slot 1 so the crashing apply targets
          // slot 0 — the mirror of the parity-0 case.
          ASSERT_TRUE(agent.Apply(good, ++good_version, KeyFp(3),
                                  HealthyCheck).ok());
          ASSERT_EQ(agent.state().active_slot, 1);
        } else {
          ASSERT_EQ(agent.state().active_slot, 0);
        }

        const std::vector<char> pre_apply = ReadFileBytes(manifest);
        agent.ArmCrash(point);
        Status crashed = agent.Apply(next, 9, KeyFp(3), HealthyCheck);
        ASSERT_FALSE(crashed.ok());
        EXPECT_EQ(crashed.code(), ErrorCode::kInjectedCrash)
            << crashed.message();
        EXPECT_TRUE(agent.NeedsRecovery());
        EXPECT_EQ(ReadFileBytes(manifest) == pre_apply, !flipped);
      }  // the "device" dies here; only the manifest survives

      UpdateAgent rebooted(1, manifest);
      ASSERT_TRUE(rebooted.Recover().ok());
      ExpectHealthyActive(rebooted, good);
      const AgentState state = rebooted.state();
      EXPECT_EQ(state.active_slot, parity);
      EXPECT_EQ(state.slots[parity].version, good_version);
      EXPECT_EQ(state.counters.crash_recoveries, flipped ? 1u : 0u);
      EXPECT_EQ(state.counters.rollbacks, flipped ? 1u : 0u);

      // The recovered device is fully serviceable: the next apply lands.
      ASSERT_TRUE(rebooted.Apply(next, 9, KeyFp(3), HealthyCheck).ok());
      ExpectHealthyActive(rebooted, next);
    }
  }
}

// A crash interrupting the FIRST ever apply must leave the device
// imageless (its pre-apply state), not torn.
TEST(UpdateAgentTest, CrashOnFirstApplyRecoversToNoImage) {
  const std::string dir = MakeTempDir("first-crash");
  const std::string manifest = dir + "/slots-2.bin";
  {
    UpdateAgent agent(2, manifest);
    agent.ArmCrash(CrashPoint::kAfterFlip);
    Status crashed = agent.Apply(Image(1, 500), 1, KeyFp(1), HealthyCheck);
    ASSERT_FALSE(crashed.ok());
  }
  UpdateAgent rebooted(2, manifest);
  ASSERT_TRUE(rebooted.Recover().ok());
  EXPECT_TRUE(rebooted.active_image().empty());
  EXPECT_EQ(rebooted.state().active_slot, -1);
  EXPECT_TRUE(rebooted.ActiveCrcValid());
  EXPECT_EQ(rebooted.state().phase, ApplyPhase::kIdle);
}

// An apply costs two durable writes (flip, commit); a crash before the
// flip costs none and leaves nothing to recover; rolling back a
// post-flip crash costs one.
TEST(UpdateAgentTest, ApplyMakesTwoDurableWritesAndRollbackOne) {
  const std::string dir = MakeTempDir("writes");
  UpdateAgent agent(12, dir + "/slots-12.bin");
  uint64_t before = DurableWrites();
  ASSERT_TRUE(agent.Apply(Image(1, 400), 1, KeyFp(1), HealthyCheck).ok());
  EXPECT_EQ(DurableWrites() - before, 2u);

  for (const CrashPoint point :
       {CrashPoint::kAfterStage, CrashPoint::kAfterVerify}) {
    agent.ArmCrash(point);
    before = DurableWrites();
    ASSERT_FALSE(agent.Apply(Image(2, 400), 2, KeyFp(1), HealthyCheck).ok());
    ASSERT_TRUE(agent.Recover().ok());
    EXPECT_EQ(DurableWrites() - before, 0u);
  }
  EXPECT_EQ(agent.state().counters.crash_recoveries, 0u);

  agent.ArmCrash(CrashPoint::kAfterFlip);
  ASSERT_FALSE(agent.Apply(Image(3, 400), 3, KeyFp(1), HealthyCheck).ok());
  before = DurableWrites();
  ASSERT_TRUE(agent.Recover().ok());
  EXPECT_EQ(DurableWrites() - before, 1u);
  EXPECT_EQ(agent.state().counters.crash_recoveries, 1u);
  ExpectHealthyActive(agent, Image(1, 400));
}

uint64_t Fsyncs() {
  return obs::MetricsRegistry::Global().GetCounter("store_fsyncs").value();
}

// Syncs, not writes, are what an apply pays for. Creating the slot file
// is an atomic replace (file fsync + directory fsync); after that every
// write overwrites one record copy in place under one fdatasync.
TEST(UpdateAgentTest, InPlaceWritesPayOneSyncEach) {
  const std::string dir = MakeTempDir("syncs");
  UpdateAgent agent(15, dir + "/slots-15.bin");
  uint64_t before = Fsyncs();
  ASSERT_TRUE(agent.Apply(Image(1, 400), 1, KeyFp(1), HealthyCheck).ok());
  EXPECT_EQ(Fsyncs() - before, 3u);  // create (2) + commit in place (1)

  before = Fsyncs();
  ASSERT_TRUE(agent.Apply(Image(2, 400), 2, KeyFp(1), HealthyCheck).ok());
  EXPECT_EQ(Fsyncs() - before, 2u);  // flip + commit

  agent.ArmHealthFailures(1);
  before = Fsyncs();
  ASSERT_FALSE(agent.Apply(Image(3, 400), 3, KeyFp(1), HealthyCheck).ok());
  EXPECT_EQ(Fsyncs() - before, 2u);  // flip + rollback

  agent.ArmCrash(CrashPoint::kAfterFlip);
  ASSERT_FALSE(agent.Apply(Image(4, 400), 4, KeyFp(1), HealthyCheck).ok());
  before = Fsyncs();
  ASSERT_TRUE(agent.Recover().ok());
  EXPECT_EQ(Fsyncs() - before, 1u);  // the rollback

  // A record that outgrows its copy replaces the file once more.
  before = Fsyncs();
  ASSERT_TRUE(agent.Apply(Image(5, 4000), 5, KeyFp(1), HealthyCheck).ok());
  EXPECT_EQ(Fsyncs() - before, 3u);
  UpdateAgent rebooted(15, dir + "/slots-15.bin");
  ASSERT_TRUE(rebooted.Recover().ok());
  ExpectHealthyActive(rebooted, Image(5, 4000));
}

// The flip write is the apply's first durable write. When it fails the
// manifest on disk still names the old image, so the agent must not be
// left mid-apply: the old image stays active and there is nothing to
// recover.
TEST(UpdateAgentTest, FlipWriteFailureKeepsOldImageActive) {
  const std::string dir = MakeTempDir("flip-fail") + "/state";
  fs::create_directories(dir);
  UpdateAgent agent(13, dir + "/slots-13.bin");
  const auto good = Image(1, 500);
  const auto next = Image(2, 520);
  ASSERT_TRUE(agent.Apply(good, 1, KeyFp(1), HealthyCheck).ok());

  fs::remove_all(dir);
  Status failed = agent.Apply(next, 2, KeyFp(1), HealthyCheck);
  ASSERT_FALSE(failed.ok());
  EXPECT_FALSE(agent.NeedsRecovery());
  ExpectHealthyActive(agent, good);
  const AgentState state = agent.state();
  EXPECT_EQ(state.previous_slot, -1);
  EXPECT_EQ(state.counters.persist_failures, 1u);
  EXPECT_EQ(state.counters.applies, 1u);
  EXPECT_EQ(state.counters.rollbacks, 0u);

  fs::create_directories(dir);
  ASSERT_TRUE(agent.Apply(next, 2, KeyFp(1), HealthyCheck).ok());
  ExpectHealthyActive(agent, next);
  UpdateAgent rebooted(13, dir + "/slots-13.bin");
  ASSERT_TRUE(rebooted.Recover().ok());
  ExpectHealthyActive(rebooted, next);
}

// Older builds persisted the stage and verify steps. A manifest they
// left mid-apply in kStaged or kVerified must still recover to its
// active slot, with the staged slot discarded, exactly once.
TEST(UpdateAgentTest, OlderBuildStagedManifestRecoversToActiveSlot) {
  for (const ApplyPhase phase : {ApplyPhase::kStaged, ApplyPhase::kVerified}) {
    SCOPED_TRACE(std::string(ApplyPhaseName(phase)));
    const std::string manifest = MakeTempDir("older") + "/slots-14.bin";
    const auto active = Image(1, 300);
    RawSlot slots[2];
    slots[0].present = true;
    slots[0].image = active;
    slots[1].present = true;
    slots[1].image = Image(2, 310);
    WriteRawManifest(manifest, 14, /*active=*/0, /*staged=*/1, phase, slots);

    for (int reboot = 0; reboot < 2; ++reboot) {
      UpdateAgent agent(14, manifest);
      ASSERT_TRUE(agent.Recover().ok());
      ExpectHealthyActive(agent, active);
      const AgentState state = agent.state();
      EXPECT_EQ(state.active_slot, 0);
      EXPECT_FALSE(state.slots[1].present);
      EXPECT_EQ(state.counters.crash_recoveries, 1u);
      EXPECT_EQ(state.counters.rollbacks, 0u);
    }
  }
}

TEST(UpdateAgentTest, HealthFailureRollsBackAndReturnsVerdict) {
  const std::string dir = MakeTempDir("health");
  UpdateAgent agent(3, dir + "/slots-3.bin");
  const auto v1 = Image(1, 700);
  const auto v2 = Image(2, 750);
  ASSERT_TRUE(agent.Apply(v1, 1, KeyFp(1), HealthyCheck).ok());

  agent.ArmHealthFailures(1);
  Status verdict = agent.Apply(v2, 2, KeyFp(1), HealthyCheck);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.code(), ErrorCode::kVerificationFailed);
  ExpectHealthyActive(agent, v1);  // rollback left v1 running
  AgentState state = agent.state();
  EXPECT_EQ(state.counters.health_failures, 1u);
  EXPECT_EQ(state.counters.rollbacks, 1u);

  // A real health check's own status is what Apply reports.
  Status custom = agent.Apply(v2, 2, KeyFp(1), [](std::span<const uint8_t>) {
    return Status(ErrorCode::kVerificationFailed, "self-test: sensor dead");
  });
  ASSERT_FALSE(custom.ok());
  EXPECT_NE(custom.message().find("sensor dead"), std::string::npos);
  ExpectHealthyActive(agent, v1);

  // And once the device is healthy again, the same update goes through.
  ASSERT_TRUE(agent.Apply(v2, 2, KeyFp(1), HealthyCheck).ok());
  ExpectHealthyActive(agent, v2);
}

// Rollback must be idempotent under replay: a device in a crash loop
// re-runs Recover() from the same flipped manifest many times, and the
// interrupted apply must be counted once, not once per reboot.
TEST(UpdateAgentTest, RecoveryReplayIsIdempotent) {
  const std::string dir = MakeTempDir("replay");
  const std::string manifest = dir + "/slots-4.bin";
  const auto good = Image(1, 640);
  {
    UpdateAgent agent(4, manifest);
    ASSERT_TRUE(agent.Apply(good, 1, KeyFp(1), HealthyCheck).ok());
    agent.ArmCrash(CrashPoint::kAfterFlip);
    ASSERT_FALSE(agent.Apply(Image(2, 660), 2, KeyFp(1), HealthyCheck).ok());
  }
  AgentState first_recovered;
  for (int reboot = 0; reboot < 4; ++reboot) {
    SCOPED_TRACE("reboot=" + std::to_string(reboot));
    UpdateAgent agent(4, manifest);
    ASSERT_TRUE(agent.Recover().ok());
    // Recover() persists its rollback, so every later replay sees an
    // idle manifest: exactly one crash recovery, one rollback, ever.
    const AgentState state = agent.state();
    EXPECT_EQ(state.counters.crash_recoveries, 1u);
    EXPECT_EQ(state.counters.rollbacks, 1u);
    ExpectHealthyActive(agent, good);
    if (reboot == 0) {
      first_recovered = state;
    } else {
      EXPECT_EQ(state.active_slot, first_recovered.active_slot);
      EXPECT_EQ(state.slots[0].present, first_recovered.slots[0].present);
      EXPECT_EQ(state.slots[1].present, first_recovered.slots[1].present);
    }
  }
}

TEST(UpdateAgentTest, ManifestRoundTripPreservesStateAndCounters) {
  const std::string dir = MakeTempDir("roundtrip");
  const std::string manifest = dir + "/slots-5.bin";
  const auto v2 = Image(2, 1200);
  AgentState before;
  {
    UpdateAgent agent(5, manifest);
    ASSERT_TRUE(agent.Apply(Image(1, 1100), 7, KeyFp(7), HealthyCheck).ok());
    agent.ArmHealthFailures(1);
    ASSERT_FALSE(agent.Apply(v2, 8, KeyFp(7), HealthyCheck).ok());
    ASSERT_TRUE(agent.Apply(v2, 8, KeyFp(9), HealthyCheck).ok());
    before = agent.state();
  }
  UpdateAgent reloaded(5, manifest);
  ASSERT_TRUE(reloaded.Recover().ok());
  const AgentState after = reloaded.state();
  EXPECT_EQ(after.active_slot, before.active_slot);
  EXPECT_EQ(after.phase, ApplyPhase::kIdle);
  EXPECT_EQ(after.counters.applies, before.counters.applies);
  EXPECT_EQ(after.counters.rollbacks, before.counters.rollbacks);
  EXPECT_EQ(after.counters.health_failures, before.counters.health_failures);
  ASSERT_GE(after.active_slot, 0);
  EXPECT_EQ(after.slots[after.active_slot].version, 8u);
  EXPECT_EQ(after.slots[after.active_slot].key_fingerprint, KeyFp(9));
  ExpectHealthyActive(reloaded, v2);
}

TEST(UpdateAgentTest, ManifestCorruptionFailsClosed) {
  const std::string dir = MakeTempDir("corrupt");
  const std::string manifest = dir + "/slots-6.bin";
  uint64_t capacity = 0, record_bytes = 0;
  {
    UpdateAgent agent(6, manifest);
    ASSERT_TRUE(agent.Apply(Image(1, 2048), 1, KeyFp(1), HealthyCheck).ok());
    capacity = agent.copy_capacity();
    record_bytes = agent.record_bytes();
  }
  const std::vector<char> pristine = ReadFileBytes(manifest);
  ASSERT_GT(pristine.size(), 600u);
  // The flip and the commit record are the same size, one per copy.
  ASSERT_EQ(pristine.size(), 2 * capacity);
  ASSERT_GT(record_bytes, 600u);

  const auto rewrite = [&](std::vector<char> bytes) {
    std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  {  // flipped bit deep in the image region of BOTH record copies ->
     // each copy's CRC rejects it, and no intact copy is left
    auto damaged = pristine;
    for (uint64_t copy = 0; copy < 2; ++copy) {
      damaged[copy * capacity + record_bytes - 100] ^= 0x40;
    }
    rewrite(damaged);
    UpdateAgent agent(6, manifest);
    Status status = agent.Recover();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), ErrorCode::kCorruptPackage) << status.message();
  }
  {  // truncated mid-payload (the size no longer matches either copy)
    auto damaged = pristine;
    damaged.resize(damaged.size() / 2);
    rewrite(damaged);
    UpdateAgent agent(6, manifest);
    EXPECT_EQ(agent.Recover().code(), ErrorCode::kCorruptPackage);
  }
  {  // another device's manifest must not be adopted
    rewrite(pristine);
    UpdateAgent agent(66, manifest);
    EXPECT_EQ(agent.Recover().code(), ErrorCode::kFailedPrecondition);
  }
  {  // pristine bytes still load (the harness itself is sound)
    rewrite(pristine);
    UpdateAgent agent(6, manifest);
    EXPECT_TRUE(agent.Recover().ok());
    EXPECT_TRUE(agent.ActiveCrcValid());
  }
}

TEST(UpdateAgentTest, ManifestWithShortKeyFingerprintFailsClosed) {
  // A CRC-valid manifest whose slot fingerprint is not 32 bytes must not
  // load with the fingerprint silently zeroed.
  const std::string dir = MakeTempDir("short-fp");
  const std::string manifest = dir + "/slots-9.bin";
  RawSlot slots[2];
  slots[0].present = true;
  slots[0].image = Image(9, 64);
  for (RawSlot& slot : slots) {
    slot.key_fingerprint.assign(16, 0xAB);  // 16-byte fingerprint
  }
  WriteRawManifest(manifest, 9, /*active=*/0, /*staged=*/0xFF,
                   ApplyPhase::kIdle, slots);

  UpdateAgent agent(9, manifest);
  EXPECT_EQ(agent.Recover().code(), ErrorCode::kCorruptPackage);
}

// --- Crash-state oracle for the slot file --------------------------------
//
// The crash tests above stop only between whole writes. This oracle
// enumerates the on-disk states a crash INSIDE one slot-file write could
// leave, under the model in docs/persistence.md (ALICE-style, Pillai et
// al., OSDI 2014), and reboots a fresh agent on each:
//   - a write that changed the file's inode is an atomic replace (tmp +
//     fsync + rename + directory fsync): the crash leaves the old file or
//     the new one;
//   - a write that kept the inode and the size is in place: any 512-byte
//     sector it changed may hold the old bytes or the new ones, in every
//     combination.

/// A slot file as one crash state sees it (`exists` false: no file).
struct FileState {
  bool exists = false;
  ino_t inode = 0;
  std::vector<uint8_t> bytes;
};

FileState CaptureFile(const std::string& path) {
  FileState state;
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return state;
  state.exists = true;
  state.inode = st.st_ino;
  const std::vector<char> bytes = ReadFileBytes(path);
  state.bytes.assign(bytes.begin(), bytes.end());
  return state;
}

constexpr size_t kSectorBytes = 512;
constexpr size_t kMaxTornSectors = 16;
constexpr uint64_t kNoImage = ~0ull;

/// Offsets of the 512-byte sectors in which two equal-sized files differ.
std::vector<size_t> ChangedSectors(const std::vector<uint8_t>& before,
                                   const std::vector<uint8_t>& after) {
  std::vector<size_t> changed;
  for (size_t offset = 0; offset < after.size(); offset += kSectorBytes) {
    const size_t end = std::min(offset + kSectorBytes, after.size());
    if (!std::equal(before.begin() + offset, before.begin() + end,
                    after.begin() + offset)) {
      changed.push_back(offset);
    }
  }
  return changed;
}

/// Copies sector `offset` of `from` over the same sector of `to`.
void CopySector(const std::vector<uint8_t>& from, size_t offset,
                std::vector<uint8_t>* to) {
  const size_t end = std::min(offset + kSectorBytes, from.size());
  std::copy(from.begin() + offset, from.begin() + end,
            to->begin() + offset);
}

/// Calls `visit` with every file a crash inside the write that turned
/// `before` into `after` could leave behind.
void ForEachCrashState(const FileState& before, const FileState& after,
                       const std::function<void(const FileState&)>& visit) {
  if (!before.exists || !after.exists || before.inode != after.inode) {
    visit(before);
    visit(after);
    return;
  }
  ASSERT_EQ(before.bytes.size(), after.bytes.size())
      << "an in-place write changed the slot file's size";
  const std::vector<size_t> torn = ChangedSectors(before.bytes, after.bytes);
  ASSERT_LE(torn.size(), kMaxTornSectors)
      << "an in-place write changed " << torn.size()
      << " sectors; the oracle enumerates at most " << kMaxTornSectors;
  for (uint32_t mask = 0; mask < (1u << torn.size()); ++mask) {
    FileState mixed = before;
    for (size_t i = 0; i < torn.size(); ++i) {
      if ((mask >> i & 1u) != 0) CopySector(after.bytes, torn[i], &mixed.bytes);
    }
    visit(mixed);
  }
}

/// Boots a fresh agent on `state` (copied to `probe_path`) and checks
/// what every reboot must find: recovery succeeds and leaves an idle
/// agent whose active image is CRC-valid. `*version` is the active
/// slot's version, kNoImage when there is none.
void RebootOn(uint64_t device, const std::string& probe_path,
              const FileState& state, uint64_t* version) {
  fs::remove(probe_path);
  if (state.exists) {
    std::ofstream out(probe_path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(state.bytes.data()),
              static_cast<std::streamsize>(state.bytes.size()));
  }
  UpdateAgent rebooted(device, probe_path);
  const Status recovered = rebooted.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  const AgentState after = rebooted.state();
  EXPECT_EQ(after.phase, ApplyPhase::kIdle);
  EXPECT_EQ(after.staged_slot, -1);
  EXPECT_TRUE(rebooted.ActiveCrcValid());
  *version = after.active_slot < 0 ? kNoImage
                                   : after.slots[after.active_slot].version;
}

/// Drives one device through every kind of slot-file write and reboots
/// on each crash state of each write: a crash may leave the version the
/// before-file recovers to or the one the after-file recovers to, never
/// a third one.
class SlotFileCrashOracle {
 public:
  SlotFileCrashOracle(uint64_t device, const std::string& dir)
      : device_(device),
        path_(dir + "/slots-" + std::to_string(device) + ".bin"),
        probe_path_(dir + "/probe/slots-" + std::to_string(device) +
                    ".bin") {
    fs::create_directories(dir + "/probe");
  }

  const std::string& path() const { return path_; }

  /// Snapshots the live file; CheckWrite compares consecutive marks.
  FileState Mark() const { return CaptureFile(path_); }

  /// Every crash state of the one write that turned `before` into
  /// `after` recovers to the before- or the after-version.
  void CheckWrite(const FileState& before, const FileState& after) {
    uint64_t before_version = 0, after_version = 0;
    ASSERT_NO_FATAL_FAILURE(
        RebootOn(device_, probe_path_, before, &before_version));
    ASSERT_NO_FATAL_FAILURE(
        RebootOn(device_, probe_path_, after, &after_version));
    ++writes_;
    if (before.exists && after.exists && before.inode == after.inode &&
        before.bytes != after.bytes) {
      ++in_place_writes_;
    }
    ForEachCrashState(before, after, [&](const FileState& state) {
      uint64_t version = 0;
      RebootOn(device_, probe_path_, state, &version);
      EXPECT_TRUE(version == before_version || version == after_version)
          << "a crash state recovered version " << version
          << ", neither the before-version " << before_version
          << " nor the after-version " << after_version;
      ++states_;
    });
  }

  /// One Apply, checked write by write: the health check runs between
  /// the flip write and the commit (or rollback) write, so it marks the
  /// file in between. `healthy` false makes the health check veto it.
  Status Apply(UpdateAgent& agent, const std::vector<uint8_t>& image,
               uint64_t version, bool healthy) {
    const FileState before = Mark();
    FileState flipped;
    bool health_ran = false;
    const Status status = agent.Apply(
        image, version, KeyFp(1), [&](std::span<const uint8_t>) {
          flipped = Mark();
          health_ran = true;
          return healthy ? Status::Ok()
                         : Status(ErrorCode::kVerificationFailed,
                                  "oracle health veto");
        });
    const FileState after = Mark();
    if (health_ran) {
      CheckWrite(before, flipped);
      CheckWrite(flipped, after);
    } else {
      CheckWrite(before, after);
    }
    return status;
  }

  /// One Recover(), checked as one write.
  Status Recover(UpdateAgent& agent) {
    const FileState before = Mark();
    const Status status = agent.Recover();
    CheckWrite(before, Mark());
    return status;
  }

  size_t writes() const { return writes_; }
  size_t in_place_writes() const { return in_place_writes_; }
  size_t states() const { return states_; }

 private:
  uint64_t device_;
  std::string path_;
  std::string probe_path_;
  size_t writes_ = 0;
  size_t in_place_writes_ = 0;
  size_t states_ = 0;
};

TEST(SlotFileCrashOracleTest, EveryCrashStateRecoversBeforeOrAfter) {
  constexpr uint64_t kDevice = 31;
  SlotFileCrashOracle oracle(kDevice, MakeTempDir("oracle"));
  UpdateAgent agent(kDevice, oracle.path());

  // First apply: the file is created.
  ASSERT_TRUE(oracle.Apply(agent, Image(1, 300), 1, true).ok());
  // Two more applies, alternating slots.
  ASSERT_TRUE(oracle.Apply(agent, Image(2, 320), 2, true).ok());
  ASSERT_TRUE(oracle.Apply(agent, Image(3, 340), 3, true).ok());
  // A health-failure rollback: flip write, then rollback write.
  ASSERT_FALSE(oracle.Apply(agent, Image(4, 360), 4, false).ok());
  ASSERT_EQ(agent.state().slots[agent.state().active_slot].version, 3u);
  // A crash after the flip, then the reboot's rollback write.
  agent.ArmCrash(CrashPoint::kAfterFlip);
  ASSERT_EQ(oracle.Apply(agent, Image(5, 380), 5, true).code(),
            ErrorCode::kInjectedCrash);
  ASSERT_TRUE(oracle.Recover(agent).ok());
  ASSERT_EQ(agent.state().slots[agent.state().active_slot].version, 3u);
  // An image several times the size of the ones before: the record
  // outgrows whatever room the file was created with.
  ASSERT_TRUE(oracle.Apply(agent, Image(6, 3600), 6, true).ok());
  ASSERT_TRUE(oracle.Apply(agent, Image(7, 400), 7, true).ok());

  // A file an older build wrote, then the writes that migrate it.
  RawSlot slots[2];
  slots[0].present = true;
  slots[0].image = Image(8, 300);
  WriteRawManifest(oracle.path(), kDevice, /*active=*/0, /*staged=*/0xFF,
                   ApplyPhase::kIdle, slots);
  UpdateAgent migrated(kDevice, oracle.path());
  ASSERT_TRUE(oracle.Recover(migrated).ok());
  ASSERT_TRUE(oracle.Apply(migrated, Image(9, 310), 9, true).ok());
  ASSERT_TRUE(oracle.Apply(migrated, Image(10, 320), 10, true).ok());

  // 18 writes, plus the migrating reboot's Recover(), which finds an
  // idle file and writes nothing (one crash state: the file as it was).
  // Three writes replace the whole file: the one that creates it, the
  // one that grows it and the one that migrates the legacy file. The
  // other 15 overwrite one record copy in place.
  EXPECT_EQ(oracle.writes(), 19u);
  EXPECT_EQ(oracle.in_place_writes(), 15u);
  EXPECT_GE(oracle.states(), 2 * oracle.writes() - 1);
  std::printf("slot-file crash oracle: %zu writes, %zu in place, %zu crash "
              "states rebooted\n",
              oracle.writes(), oracle.in_place_writes(), oracle.states());
}

// A power cut halfway through an in-place write leaves the newer record
// copy half written: its CRC fails, and the older copy, the last record
// the agent acknowledged, loads as if the write never began.
TEST(UpdateAgentTest, HalfWrittenNewerCopyLoadsTheOlderCopy) {
  const std::string manifest = MakeTempDir("half-written") + "/slots-21.bin";
  const auto v1 = Image(1, 700);
  const auto v2 = Image(2, 720);
  const auto v3 = Image(3, 740);
  FileState before, after;
  {
    UpdateAgent agent(21, manifest);
    ASSERT_TRUE(agent.Apply(v1, 1, KeyFp(1), HealthyCheck).ok());
    ASSERT_TRUE(agent.Apply(v2, 2, KeyFp(1), HealthyCheck).ok());
    before = CaptureFile(manifest);
    agent.ArmCrash(CrashPoint::kAfterFlip);
    ASSERT_EQ(agent.Apply(v3, 3, KeyFp(1), HealthyCheck).code(),
              ErrorCode::kInjectedCrash);
    after = CaptureFile(manifest);
  }
  ASSERT_EQ(before.inode, after.inode);  // the flip wrote in place
  const std::vector<size_t> written =
      ChangedSectors(before.bytes, after.bytes);
  ASSERT_GE(written.size(), 2u);
  FileState half = after;
  for (size_t i = written.size() / 2; i < written.size(); ++i) {
    CopySector(before.bytes, written[i], &half.bytes);
  }

  uint64_t version = 0;
  const std::string probe = manifest + ".probe";
  // Whole, the newer copy is the flip of v3: the reboot rolls it back.
  {
    ASSERT_NO_FATAL_FAILURE(RebootOn(21, probe, after, &version));
    UpdateAgent rebooted(21, probe);
    ASSERT_TRUE(rebooted.Recover().ok());
    EXPECT_EQ(rebooted.state().counters.crash_recoveries, 1u);
  }
  // Half written, it is ignored: the older copy (v2 committed, idle)
  // loads and there is nothing to roll back.
  ASSERT_NO_FATAL_FAILURE(RebootOn(21, probe, half, &version));
  EXPECT_EQ(version, 2u);
  UpdateAgent rebooted(21, probe);
  ASSERT_TRUE(rebooted.Recover().ok());
  ExpectHealthyActive(rebooted, v2);
  EXPECT_EQ(rebooted.state().counters.crash_recoveries, 0u);
  EXPECT_EQ(rebooted.state().counters.rollbacks, 0u);

  // The next write goes over the torn copy, never the intact one.
  ASSERT_TRUE(rebooted.Apply(v3, 3, KeyFp(1), HealthyCheck).ok());
  UpdateAgent again(21, probe);
  ASSERT_TRUE(again.Recover().ok());
  ExpectHealthyActive(again, v3);
}

// The soak invariant, distilled: across a seeded storm of applies where
// any step may crash or fail health, the active slot — checked through a
// fresh reload every round, as the sweep does — is always CRC-valid and
// always the last image that fully passed health (epoch-current), with
// rollbacks never exceeding the failures that caused them.
TEST(UpdateAgentTest, SeededChaosAppliesKeepActiveSlotValid) {
  const std::string dir = MakeTempDir("chaos");
  const std::string manifest = dir + "/slots-8.bin";
  Xoshiro256 rng(0xA6E27);
  std::vector<uint8_t> expected;  // what the device must keep running
  uint64_t failures = 0;

  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    UpdateAgent agent(8, manifest);  // every round is a fresh boot
    ASSERT_TRUE(agent.Recover().ok());

    const auto image = Image(0x9000 + round, 256 + rng.NextBounded(512));
    const auto fp = KeyFp(static_cast<uint8_t>(1 + rng.NextBounded(4)));
    const uint64_t draw = rng.NextBounded(6);
    if (draw < 2) {  // 2/6: crash at a random phase
      agent.ArmCrash(static_cast<CrashPoint>(1 + rng.NextBounded(4)));
    } else if (draw == 2) {  // 1/6: health rejection
      agent.ArmHealthFailures(1);
    }
    Status status =
        agent.Apply(image, 100 + round, fp, HealthyCheck);
    if (status.ok()) {
      expected = image;
    } else {
      ++failures;
    }

    // The sweep's view: reboot, recover, assert the invariant.
    UpdateAgent swept(8, manifest);
    ASSERT_TRUE(swept.Recover().ok());
    ExpectHealthyActive(swept, expected);
    EXPECT_LE(swept.state().counters.rollbacks, failures);
  }
  // The storm must have exercised both failure modes to prove anything.
  UpdateAgent final_agent(8, manifest);
  ASSERT_TRUE(final_agent.Recover().ok());
  EXPECT_GT(final_agent.state().counters.crash_recoveries, 0u);
  EXPECT_GT(final_agent.state().counters.health_failures, 0u);
}

// Probabilistic injection (the soak's knob) is deterministic in its seed
// and always recoverable.
TEST(UpdateAgentTest, ProbabilisticCrashInjectionIsSeededAndRecoverable) {
  const std::string dir = MakeTempDir("prob");
  uint64_t crashes_a = 0, crashes_b = 0;
  for (int pass = 0; pass < 2; ++pass) {
    const std::string manifest =
        dir + "/slots-p" + std::to_string(pass) + ".bin";
    UpdateAgent agent(20, manifest);
    agent.SetCrashInjection(0.4, 0xFEED);
    uint64_t& crashes = pass == 0 ? crashes_a : crashes_b;
    for (int i = 0; i < 40; ++i) {
      Status status =
          agent.Apply(Image(i, 300), 1 + i, KeyFp(1), HealthyCheck);
      if (!status.ok()) {
        ASSERT_EQ(status.code(), ErrorCode::kInjectedCrash)
            << status.message();
        ++crashes;
        ASSERT_TRUE(agent.Recover().ok());
      }
      EXPECT_TRUE(agent.ActiveCrcValid());
    }
  }
  EXPECT_GT(crashes_a, 0u);
  EXPECT_EQ(crashes_a, crashes_b);  // same seed, same storm
}

}  // namespace
}  // namespace eric::agent
