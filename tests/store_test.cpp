// Durable-store tests: WAL framing and recovery (CRC rejection, torn-tail
// truncation, group commit under concurrency), atomic snapshots with
// fallback, registry persistence (crash-restart reconstruction, WAL
// compaction, configuration fingerprints), and campaign-journal resume
// with the exactly-once property across a simulated crash.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <thread>

#include "fleet/campaign_journal.h"
#include "fleet/deployment_engine.h"
#include "obs/metrics.h"
#include "store/fs_util.h"
#include "store/record_io.h"
#include "store/snapshot.h"
#include "store/wal.h"
#include "support/rng.h"

namespace eric {
namespace {

namespace fs = std::filesystem;

std::string MakeTempDir(const char* tag) {
  static std::atomic<uint64_t> counter{0};
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("eric-store-" + std::string(tag) + "-" +
                        std::to_string(counter.fetch_add(1)));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<uint8_t> Payload(std::initializer_list<uint8_t> bytes) {
  return std::vector<uint8_t>(bytes);
}

Result<std::vector<store::WalRecord>> ReplayAll(const std::string& path,
                                                uint64_t fingerprint = 0,
                                                store::WalRecoveryInfo* info =
                                                    nullptr) {
  std::vector<store::WalRecord> records;
  auto replayed = store::Wal::Replay(
      path,
      [&records](const store::WalRecord& record) -> Status {
        records.push_back(record);
        return Status::Ok();
      },
      fingerprint);
  if (!replayed.ok()) return replayed.status();
  if (info != nullptr) *info = *replayed;
  return records;
}

void FlipByteAt(const std::string& path, uint64_t offset) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good());
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
}

// --- record_io ----------------------------------------------------------------

TEST(RecordIoTest, RoundTripAndOverrunDetection) {
  store::RecordWriter writer;
  writer.U8(7);
  writer.U32(0xDEADBEEFu);
  writer.U64(0x1122334455667788ull);
  writer.Str("fleet");
  writer.Bytes(Payload({1, 2, 3}));

  store::RecordReader reader(writer.bytes());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  std::string text;
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(reader.U8(&u8));
  EXPECT_TRUE(reader.U32(&u32));
  EXPECT_TRUE(reader.U64(&u64));
  EXPECT_TRUE(reader.Str(&text));
  EXPECT_TRUE(reader.Bytes(&bytes));
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x1122334455667788ull);
  EXPECT_EQ(text, "fleet");
  EXPECT_EQ(bytes, Payload({1, 2, 3}));
  EXPECT_TRUE(reader.Exhausted());

  // Reading past the end poisons the reader instead of overrunning.
  EXPECT_FALSE(reader.U8(&u8));
  EXPECT_FALSE(reader.ok());
}

TEST(RecordIoTest, TruncatedStringIsRejected) {
  store::RecordWriter writer;
  writer.Str("durable");
  std::vector<uint8_t> bytes = writer.Take();
  bytes.pop_back();  // claimed length now exceeds the payload
  store::RecordReader reader(bytes);
  std::string text;
  EXPECT_FALSE(reader.Str(&text));
  EXPECT_FALSE(reader.ok());
}

// --- Crc32 --------------------------------------------------------------------

TEST(Crc32Test, KnownVectorAndSensitivity) {
  // The classic check value: CRC32("123456789") = 0xCBF43926.
  const std::string check = "123456789";
  EXPECT_EQ(store::Crc32(std::span<const uint8_t>(
                reinterpret_cast<const uint8_t*>(check.data()), check.size())),
            0xCBF43926u);
  EXPECT_EQ(store::Crc32({}), 0u);

  auto bytes = Payload({1, 2, 3, 4});
  const uint32_t before = store::Crc32(bytes);
  bytes[2] ^= 1;
  EXPECT_NE(store::Crc32(bytes), before);
}

// The CRC-32 definition, one bit at a time: reflected polynomial
// 0xEDB88320, register inverted on entry and exit. The oracle for every
// table-driven way of computing store::Crc32Extend.
uint32_t BitwiseCrc32Extend(uint32_t crc, std::span<const uint8_t> data) {
  uint32_t state = ~crc;
  for (uint8_t byte : data) {
    state ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      state = (state >> 1) ^ ((state & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return ~state;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  Xoshiro256 rng(0xC4C32);
  std::vector<uint8_t> buffer(300 + 8);
  for (auto& byte : buffer) byte = static_cast<uint8_t>(rng.Next());
  const std::string check = "123456789";
  EXPECT_EQ(BitwiseCrc32Extend(0, {reinterpret_cast<const uint8_t*>(
                                       check.data()),
                                   check.size()}),
            0xCBF43926u);

  // Every length 0..300 at every start offset 0..7 (so word loads meet
  // every alignment), from 0 and from a random running value.
  int mismatches = 0;
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 300; ++length) {
      const std::span<const uint8_t> data(buffer.data() + offset, length);
      const auto initial = static_cast<uint32_t>(rng.Next());
      mismatches += store::Crc32(data) != BitwiseCrc32Extend(0, data);
      mismatches += store::Crc32Extend(initial, data) !=
                    BitwiseCrc32Extend(initial, data);
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Crc32Test, ChainedExtendEqualsOneCall) {
  Xoshiro256 rng(0xC4A1);
  std::vector<uint8_t> buffer(300);
  for (auto& byte : buffer) byte = static_cast<uint8_t>(rng.Next());
  const std::span<const uint8_t> all(buffer);
  const uint32_t whole = store::Crc32(all);
  ASSERT_EQ(whole, BitwiseCrc32Extend(0, all));

  // One split at every point, then random three-way splits from a
  // random running value.
  int mismatches = 0;
  for (size_t split = 0; split <= all.size(); ++split) {
    mismatches += store::Crc32Extend(store::Crc32(all.first(split)),
                                     all.subspan(split)) != whole;
  }
  for (int trial = 0; trial < 200; ++trial) {
    size_t a = rng.NextBounded(all.size() + 1);
    size_t b = rng.NextBounded(all.size() + 1);
    if (a > b) std::swap(a, b);
    const auto initial = static_cast<uint32_t>(rng.Next());
    uint32_t chained = store::Crc32Extend(initial, all.first(a));
    chained = store::Crc32Extend(chained, all.subspan(a, b - a));
    chained = store::Crc32Extend(chained, all.subspan(b));
    mismatches += chained != BitwiseCrc32Extend(initial, all);
  }
  EXPECT_EQ(mismatches, 0);
}

// --- Wal ----------------------------------------------------------------------

// A directory fsync that could not run is an error, not a silent
// success: the entries it should have made durable may not be.
TEST(FsUtilTest, SyncDirOnMissingDirectoryFails) {
  const std::string dir = MakeTempDir("syncdir");
  EXPECT_TRUE(store::SyncDir(dir).ok());
  EXPECT_TRUE(store::SyncParentDir(dir + "/file").ok());

  const Status missing = store::SyncDir(dir + "/missing");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.code(), ErrorCode::kInternal);
  EXPECT_NE(missing.message().find("missing"), std::string::npos);
  EXPECT_FALSE(store::SyncParentDir(dir + "/missing/file").ok());
}

// An atomic replace pays two syncs, the file's and its directory's, and
// store_fsyncs counts both.
TEST(FsUtilTest, WriteFileAtomicCountsFileAndDirectorySync) {
  const std::string dir = MakeTempDir("fsyncs");
  const obs::Counter& fsyncs =
      obs::MetricsRegistry::Global().GetCounter("store_fsyncs");
  const uint64_t before = fsyncs.value();
  const std::vector<uint8_t> bytes = Payload({1, 2, 3});
  ASSERT_TRUE(store::WriteFileAtomic(dir + "/file", bytes).ok());
  EXPECT_EQ(fsyncs.value() - before, 2u);
}

// Close makes the tail durable with one sync and says whether it worked;
// a second Close has nothing left to sync.
TEST(WalTest, CloseSyncsOnceAndReportsIt) {
  const std::string path = MakeTempDir("wal-close") + "/test.wal";
  store::WalOptions options;
  options.sync = store::SyncMode::kNever;
  store::Wal wal;
  ASSERT_TRUE(wal.Open(path, options).ok());
  ASSERT_TRUE(wal.Append(1, Payload({1})).ok());
  const obs::Counter& fsyncs =
      obs::MetricsRegistry::Global().GetCounter("store_fsyncs");
  const uint64_t before = fsyncs.value();
  ASSERT_TRUE(wal.Close().ok());
  EXPECT_EQ(fsyncs.value() - before, 1u);
  EXPECT_FALSE(wal.is_open());
  EXPECT_TRUE(wal.Close().ok());
  EXPECT_EQ(fsyncs.value() - before, 1u);
}

TEST(WalTest, AppendReplayRoundTrip) {
  const std::string dir = MakeTempDir("wal-roundtrip");
  const std::string path = dir + "/test.wal";
  {
    store::Wal wal;
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.Append(1, Payload({0xAA})).ok());
    ASSERT_TRUE(wal.Append(2, Payload({0xBB, 0xCC})).ok());
    ASSERT_TRUE(wal.Append(3, {}).ok());  // empty payloads are legal
    EXPECT_EQ(wal.appended(), 3u);
  }
  store::WalRecoveryInfo info;
  auto records = ReplayAll(path, 0, &info);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].type, 1);
  EXPECT_EQ((*records)[0].payload, Payload({0xAA}));
  EXPECT_EQ((*records)[1].type, 2);
  EXPECT_EQ((*records)[1].payload, Payload({0xBB, 0xCC}));
  EXPECT_EQ((*records)[2].type, 3);
  EXPECT_TRUE((*records)[2].payload.empty());
  EXPECT_EQ(info.records, 3u);
  EXPECT_FALSE(info.tail_corrupted);
  EXPECT_EQ(info.bytes_truncated, 0u);
}

TEST(WalTest, MissingFileIsAnEmptyLog) {
  auto records = ReplayAll(MakeTempDir("wal-missing") + "/never-created.wal");
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

TEST(WalTest, FingerprintMismatchRefused) {
  const std::string path = MakeTempDir("wal-fp") + "/test.wal";
  {
    store::Wal wal;
    ASSERT_TRUE(wal.Open(path, {}, /*fingerprint=*/111).ok());
    ASSERT_TRUE(wal.Append(1, Payload({1})).ok());
  }
  EXPECT_EQ(ReplayAll(path, /*fingerprint=*/222).status().code(),
            ErrorCode::kFailedPrecondition);
  store::Wal wal;
  EXPECT_EQ(wal.Open(path, {}, /*fingerprint=*/222).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(wal.Open(path, {}, /*fingerprint=*/111).ok());
}

TEST(WalTest, TornTailIsTruncatedAndLogStaysAppendable) {
  const std::string path = MakeTempDir("wal-torn") + "/test.wal";
  {
    store::Wal wal;
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.Append(1, Payload({1, 2, 3, 4})).ok());
    ASSERT_TRUE(wal.Append(2, Payload({5, 6, 7, 8})).ok());
    ASSERT_TRUE(wal.Append(3, Payload({9, 10, 11, 12})).ok());
  }
  // A crash mid-write leaves a partial final record.
  const auto full_size = fs::file_size(path);
  fs::resize_file(path, full_size - 2);

  store::WalRecoveryInfo info;
  auto records = ReplayAll(path, 0, &info);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);
  EXPECT_TRUE(info.tail_corrupted);
  EXPECT_GT(info.bytes_truncated, 0u);
  // The torn bytes are physically gone: the next replay is clean...
  store::WalRecoveryInfo again;
  ASSERT_TRUE(ReplayAll(path, 0, &again).ok());
  EXPECT_FALSE(again.tail_corrupted);
  // ...and appends land after the last good record.
  {
    store::Wal wal;
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.Append(4, Payload({42})).ok());
  }
  auto reopened = ReplayAll(path);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(reopened->size(), 3u);
  EXPECT_EQ((*reopened)[2].type, 4);
}

TEST(WalTest, BitFlipFailsCrcAndPoisonsTheTail) {
  const std::string path = MakeTempDir("wal-flip") + "/test.wal";
  // Fixed payload sizes so the corruption offset is computable: header 16,
  // frame = 9 + payload.
  {
    store::Wal wal;
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.Append(1, Payload({1, 1, 1, 1})).ok());
    ASSERT_TRUE(wal.Append(2, Payload({2, 2, 2, 2})).ok());
    ASSERT_TRUE(wal.Append(3, Payload({3, 3, 3, 3})).ok());
  }
  // Flip one payload byte inside record 2 (offset 16 + 13 + 9 + 1).
  FlipByteAt(path, 16 + 13 + 9 + 1);

  store::WalRecoveryInfo info;
  auto records = ReplayAll(path, 0, &info);
  ASSERT_TRUE(records.ok());
  // CRC can tell record 2 is damaged but not whether record 3 was framed
  // relative to damaged bytes: everything from the corruption on is tail.
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].type, 1);
  EXPECT_TRUE(info.tail_corrupted);
  EXPECT_EQ(info.bytes_truncated, 2 * (9u + 4u));
  EXPECT_EQ(fs::file_size(path), 16u + 13u);
}

TEST(WalTest, GroupCommitConcurrentAppendsAllDurable) {
  const std::string path = MakeTempDir("wal-group") + "/test.wal";
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  {
    store::WalOptions options;
    options.sync = store::SyncMode::kGroupCommit;
    options.group_commit_window_us = 200;
    store::Wal wal;
    ASSERT_TRUE(wal.Open(path, options).ok());
    std::atomic<int> errors{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          store::RecordWriter rec;
          rec.U32(static_cast<uint32_t>(t * kPerThread + i));
          if (!wal.Append(1, rec.bytes()).ok()) ++errors;
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(errors.load(), 0);
    EXPECT_EQ(wal.appended(), static_cast<uint64_t>(kThreads * kPerThread));
  }
  auto records = ReplayAll(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), static_cast<size_t>(kThreads * kPerThread));
  // Every append made it intact, none duplicated or interleaved torn.
  std::set<uint32_t> seen;
  for (const auto& record : *records) {
    store::RecordReader rec(record.payload);
    uint32_t value = 0;
    ASSERT_TRUE(rec.U32(&value));
    EXPECT_TRUE(seen.insert(value).second);
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kThreads * kPerThread));
}

TEST(WalTest, TruncateAllCompacts) {
  const std::string path = MakeTempDir("wal-compact") + "/test.wal";
  store::Wal wal;
  ASSERT_TRUE(wal.Open(path).ok());
  ASSERT_TRUE(wal.Append(1, Payload({1})).ok());
  ASSERT_TRUE(wal.Append(2, Payload({2})).ok());
  ASSERT_TRUE(wal.TruncateAll().ok());
  ASSERT_TRUE(wal.Append(3, Payload({3})).ok());
  ASSERT_TRUE(wal.Close().ok());
  auto records = ReplayAll(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].type, 3);
}

// --- Snapshots ----------------------------------------------------------------

TEST(SnapshotTest, WriteLoadRoundTripRetiringOlder) {
  const std::string dir = MakeTempDir("snap-roundtrip");
  ASSERT_TRUE(store::WriteSnapshot(dir, "reg", 1, 9, Payload({1, 1})).ok());
  ASSERT_TRUE(store::WriteSnapshot(dir, "reg", 2, 9, Payload({2, 2})).ok());

  auto loaded = store::LoadLatestSnapshot(dir, "reg", 9);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->found);
  EXPECT_EQ(loaded->sequence, 2u);
  EXPECT_EQ(loaded->payload, Payload({2, 2}));
  // The older snapshot was retired by the newer write.
  EXPECT_FALSE(fs::exists(dir + "/reg-1.snap"));
}

TEST(SnapshotTest, CorruptLatestFallsBackToPrevious) {
  const std::string dir = MakeTempDir("snap-fallback");
  ASSERT_TRUE(store::WriteSnapshot(dir, "reg", 1, 0, Payload({1})).ok());
  // Handcraft a newer corrupt file (WriteSnapshot would have retired the
  // old one, so recreate the crash case directly).
  ASSERT_TRUE(store::WriteSnapshot(dir, "tmp", 2, 0, Payload({2})).ok());
  fs::rename(dir + "/tmp-2.snap", dir + "/reg-2.snap");
  FlipByteAt(dir + "/reg-2.snap", fs::file_size(dir + "/reg-2.snap") - 1);

  auto loaded = store::LoadLatestSnapshot(dir, "reg", 0);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->found);
  EXPECT_EQ(loaded->sequence, 1u);
  EXPECT_EQ(loaded->payload, Payload({1}));
}

TEST(SnapshotTest, AllSnapshotsCorruptFailsClosed) {
  // Compaction leaves exactly one snapshot with empty WALs behind it:
  // if that file rots, recovery must refuse rather than silently
  // resurrect an empty fleet.
  const std::string dir = MakeTempDir("snap-allcorrupt");
  ASSERT_TRUE(store::WriteSnapshot(dir, "reg", 3, 0, Payload({9, 9})).ok());
  FlipByteAt(dir + "/reg-3.snap", fs::file_size(dir + "/reg-3.snap") - 1);
  EXPECT_EQ(store::LoadLatestSnapshot(dir, "reg", 0).status().code(),
            ErrorCode::kCorruptPackage);
}

TEST(SnapshotTest, MissingAndMismatchedSnapshots) {
  const std::string dir = MakeTempDir("snap-missing");
  auto loaded = store::LoadLatestSnapshot(dir, "reg", 0);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->found);

  ASSERT_TRUE(store::WriteSnapshot(dir, "reg", 1, 7, Payload({1})).ok());
  EXPECT_EQ(store::LoadLatestSnapshot(dir, "reg", 8).status().code(),
            ErrorCode::kFailedPrecondition);
}

// --- DeviceRegistry persistence -----------------------------------------------

constexpr const char* kTinyProgram = R"(
  fn main() {
    var sum = 0;
    var i = 1;
    while (i <= 10) { sum = sum + i * i; i = i + 1; }
    return sum;
  }
)";
constexpr int64_t kTinyProgramResult = 385;

fleet::RegistryConfig TestRegistryConfig() {
  fleet::RegistryConfig config;
  config.key_config.domain = "store.test.v1";
  return config;
}

/// The registry's storage fingerprint, reproduced field-for-field: it
/// binds snapshot and WAL files to a configuration. The schema version
/// is deliberately NOT part of it, or old files could never load. The
/// leading 16 is the shard count the older sharded layout was written
/// under.
uint64_t RegistryStorageFingerprint(const fleet::RegistryConfig& config) {
  store::RecordWriter fp;
  fp.U64(16);
  fp.U64(config.secret_seed);
  fp.U64(config.key_config.epoch);
  fp.U64(config.key_config.environment_binding);
  fp.Str(config.key_config.domain);
  fp.U8(static_cast<uint8_t>(config.cipher));
  return store::Fnv1a64(fp.bytes());
}

/// A legacy delivery-manifest body {u64 version, bytes keyfp[, u8 isa]},
/// as WAL types 3/5 and v3/v4 snapshots carried it.
void WriteLegacyManifest(store::RecordWriter& rec, uint64_t version,
                         std::optional<uint8_t> isa) {
  crypto::Sha256Digest keyfp{};
  keyfp[9] = 0x99;
  rec.U64(version);
  rec.Bytes(std::vector<uint8_t>(keyfp.begin(), keyfp.end()));
  if (isa) rec.U8(*isa);
}

TEST(RegistryPersistenceTest, FleetSurvivesRestart) {
  const std::string dir = MakeTempDir("reg-restart");
  fleet::GroupId group_a = 0, group_b = 0;
  std::vector<fleet::DeviceId> devices;
  fleet::DeviceId solo = 0, revoked = 0;
  crypto::Key256 group_a_key{};

  {
    fleet::DeviceRegistry registry(TestRegistryConfig());
    ASSERT_TRUE(registry.OpenStorage(dir).ok());
    group_a = registry.CreateGroup("line-a");
    group_b = registry.CreateGroup("line-b");
    for (uint64_t i = 0; i < 10; ++i) {
      auto id = registry.Enroll(0x5709E000 + i,
                                i % 2 == 0 ? group_a : group_b);
      ASSERT_TRUE(id.ok());
      devices.push_back(*id);
    }
    auto solo_id = registry.Enroll(0x5709EFFF);
    ASSERT_TRUE(solo_id.ok());
    solo = *solo_id;
    revoked = devices[3];
    ASSERT_TRUE(registry.Revoke(revoked).ok());
    group_a_key = *registry.GroupKey(group_a);
  }  // daemon dies

  fleet::DeviceRegistry recovered(TestRegistryConfig());
  ASSERT_TRUE(recovered.OpenStorage(dir).ok());
  const auto info = recovered.storage_info();
  EXPECT_TRUE(info.attached);
  EXPECT_EQ(info.devices_recovered, 11u);
  EXPECT_EQ(info.groups_recovered, 2u);
  EXPECT_EQ(info.corrupt_tails, 0u);

  const auto stats = recovered.Stats();
  EXPECT_EQ(stats.devices, 11u);
  EXPECT_EQ(stats.groups, 2u);
  EXPECT_EQ(stats.revoked, 1u);

  // Identity, grouping, and status reconstructed exactly.
  auto revoked_info = recovered.Lookup(revoked);
  ASSERT_TRUE(revoked_info.ok());
  EXPECT_EQ(revoked_info->status, fleet::DeviceStatus::kRevoked);
  auto solo_info = recovered.Lookup(solo);
  ASSERT_TRUE(solo_info.ok());
  EXPECT_EQ(solo_info->group, fleet::kNoGroup);
  auto members = recovered.GroupMembers(group_a);
  ASSERT_TRUE(members.ok());
  EXPECT_EQ(members->size(), 5u);

  // Keys re-derive identically: a package sealed under the pre-crash
  // group key validates and runs on a recovered member.
  EXPECT_EQ(*recovered.GroupKey(group_a), group_a_key);
  fleet::PackageCache cache;
  auto artifact = cache.GetOrBuild(kTinyProgram, group_a_key,
                                   recovered.key_config(),
                                   core::EncryptionPolicy::Full());
  ASSERT_TRUE(artifact.ok());
  auto run = recovered.Dispatch(members->front(), (*artifact)->wire);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->exec.exit_code, kTinyProgramResult);
  // And the revoked device still refuses dispatch.
  EXPECT_EQ(recovered.Dispatch(revoked, (*artifact)->wire).status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(recovered.GroupMembers(group_b)->size(), 5u);
}

TEST(RegistryPersistenceTest, FreshStateDirHoldsOneRegistryLog) {
  const std::string dir = MakeTempDir("reg-one-log");
  {
    fleet::DeviceRegistry registry(TestRegistryConfig());
    ASSERT_TRUE(registry.OpenStorage(dir).ok());
    const auto group = registry.CreateGroup("g");
    for (uint64_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(registry.Enroll(0x0E106 + i, group).ok());
    }
    ASSERT_TRUE(registry.RotateGroupEpoch(group).ok());
  }
  std::vector<std::string> logs;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".wal") {
      logs.push_back(entry.path().filename().string());
    }
  }
  EXPECT_EQ(logs, std::vector<std::string>{"registry.wal"});
  fleet::DeviceRegistry recovered(TestRegistryConfig());
  ASSERT_TRUE(recovered.OpenStorage(dir).ok());
  // The group create, 20 enrollments and the epoch bump, in one log.
  EXPECT_EQ(recovered.storage_info().wal_records_replayed, 22u);
  EXPECT_EQ(recovered.storage_info().snapshots_written, 0u);
}

TEST(RegistryPersistenceTest, SnapshotCompactsWalAndRecoversWithTail) {
  const std::string dir = MakeTempDir("reg-compact");
  {
    fleet::DeviceRegistry registry(TestRegistryConfig());
    ASSERT_TRUE(registry.OpenStorage(dir).ok());
    const auto group = registry.CreateGroup("g");
    std::vector<fleet::DeviceId> ids;
    for (uint64_t i = 0; i < 8; ++i) {
      auto id = registry.Enroll(0xC09AC7 + i, group);
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    ASSERT_TRUE(registry.Snapshot().ok());
    // Post-snapshot tail: three more mutations.
    ASSERT_TRUE(registry.Enroll(0xC09AD0, group).ok());
    ASSERT_TRUE(registry.Enroll(0xC09AD1, group).ok());
    ASSERT_TRUE(registry.Revoke(ids[0]).ok());
  }
  fleet::DeviceRegistry recovered(TestRegistryConfig());
  ASSERT_TRUE(recovered.OpenStorage(dir).ok());
  const auto info = recovered.storage_info();
  EXPECT_TRUE(info.snapshot_loaded);
  EXPECT_EQ(info.wal_records_replayed, 3u);  // compaction dropped the rest
  EXPECT_EQ(info.devices_recovered, 10u);
  EXPECT_EQ(recovered.Stats().revoked, 1u);
}

TEST(RegistryPersistenceTest, EpochBumpSurvivesRestartViaWalReplay) {
  const std::string dir = MakeTempDir("reg-epoch");
  fleet::GroupId rotating = 0, steady = 0;
  std::vector<fleet::DeviceId> members;
  crypto::Key256 old_key{}, new_key{};
  {
    fleet::DeviceRegistry registry(TestRegistryConfig());
    ASSERT_TRUE(registry.OpenStorage(dir).ok());
    rotating = registry.CreateGroup("rotating");
    steady = registry.CreateGroup("steady");
    for (uint64_t i = 0; i < 4; ++i) {
      auto id = registry.Enroll(0xE70C4000 + i, rotating);
      ASSERT_TRUE(id.ok());
      members.push_back(*id);
    }
    ASSERT_TRUE(registry.Enroll(0xE70C4FFF, steady).ok());
    old_key = *registry.GroupKey(rotating);
    auto rotation = registry.RotateGroupEpoch(rotating);
    ASSERT_TRUE(rotation.ok());
    ASSERT_TRUE(rotation->rotated);
    new_key = *registry.GroupKey(rotating);
    ASSERT_FALSE(new_key == old_key);
  }  // daemon dies after the bump

  fleet::DeviceRegistry recovered(TestRegistryConfig());
  ASSERT_TRUE(recovered.OpenStorage(dir).ok());
  const auto info = recovered.storage_info();
  EXPECT_EQ(info.epoch_bumps_replayed, 1u);
  EXPECT_EQ(info.orphan_epoch_bumps_dropped, 0u);
  auto epoch = recovered.GroupEpoch(rotating);
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 1u);
  auto steady_epoch = recovered.GroupEpoch(steady);
  ASSERT_TRUE(steady_epoch.ok());
  EXPECT_EQ(*steady_epoch, 0u);

  // The recovered fleet seals — and validates — under the new epoch; a
  // stale-epoch package is rejected by the replayed-rotation HDEs.
  EXPECT_EQ(*recovered.GroupKey(rotating), new_key);
  auto context = recovered.SealingContextFor(members.front());
  ASSERT_TRUE(context.ok());
  EXPECT_EQ(context->config.epoch, 1u);
  fleet::PackageCache cache;
  auto fresh = cache.GetOrBuild(kTinyProgram, context->key, context->config,
                                core::EncryptionPolicy::Full());
  ASSERT_TRUE(fresh.ok());
  crypto::KeyConfig stale_config = recovered.key_config();
  auto stale = cache.GetOrBuild(kTinyProgram, old_key, stale_config,
                                core::EncryptionPolicy::Full());
  ASSERT_TRUE(stale.ok());
  for (fleet::DeviceId member : members) {
    auto run = recovered.Dispatch(member, (*fresh)->wire);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->exec.exit_code, kTinyProgramResult);
    EXPECT_FALSE(recovered.Dispatch(member, (*stale)->wire).ok());
  }
}

TEST(RegistryPersistenceTest, EpochSurvivesSnapshotCompaction) {
  const std::string dir = MakeTempDir("reg-epoch-snap");
  fleet::GroupId group = 0;
  {
    fleet::DeviceRegistry registry(TestRegistryConfig());
    ASSERT_TRUE(registry.OpenStorage(dir).ok());
    group = registry.CreateGroup("g");
    for (uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(registry.Enroll(0x5A4E000 + i, group).ok());
    }
    ASSERT_TRUE(registry.RotateGroupEpochTo(group, 5).ok());
    // Compaction truncates the WALs: the epoch must ride the snapshot.
    ASSERT_TRUE(registry.Snapshot().ok());
  }
  fleet::DeviceRegistry recovered(TestRegistryConfig());
  ASSERT_TRUE(recovered.OpenStorage(dir).ok());
  const auto info = recovered.storage_info();
  EXPECT_TRUE(info.snapshot_loaded);
  EXPECT_EQ(info.epoch_bumps_replayed, 0u);  // the WAL was compacted
  auto epoch = recovered.GroupEpoch(group);
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 5u);
}

TEST(CampaignJournalTest, RotationBeginRoundTrip) {
  const std::string dir = MakeTempDir("journal-rotation");
  const std::vector<fleet::DeviceId> targets = {11, 12, 13, 14};
  {
    fleet::CampaignJournal journal;
    ASSERT_TRUE(journal.Open(dir).ok());
    ASSERT_TRUE(
        journal.BeginRotation(0xF1A9, targets, /*group=*/7,
                              /*target_epoch=*/3)
            .ok());
    fleet::TargetCheckpoint done;
    done.device = 12;
    done.ok = true;
    done.attempts = 1;
    journal.OnTargetCheckpoint(done);
    ASSERT_TRUE(journal.last_error().ok());
  }  // crash mid-rotation

  fleet::CampaignJournal reopened;
  ASSERT_TRUE(reopened.Open(dir).ok());
  const auto& recovered = reopened.recovered();
  EXPECT_TRUE(recovered.active);
  EXPECT_TRUE(recovered.rotation);
  EXPECT_EQ(recovered.rotation_group, 7u);
  EXPECT_EQ(recovered.rotation_epoch, 3u);
  EXPECT_EQ(recovered.campaign_fingerprint, 0xF1A9u);
  EXPECT_EQ(recovered.targets, targets);
  EXPECT_EQ(recovered.RemainingTargets(),
            (std::vector<fleet::DeviceId>{11, 13, 14}));

  // A plain Begin (after abandoning the rotation) leaves no rotation
  // marker for the next recovery to misread.
  ASSERT_TRUE(reopened.Abandon().ok());
  ASSERT_TRUE(reopened.Begin(0xBEEF, targets).ok());
}

TEST(CampaignJournalTest, PlainBeginRecoversWithoutRotationMarker) {
  const std::string dir = MakeTempDir("journal-plain");
  const std::vector<fleet::DeviceId> targets = {21, 22};
  {
    fleet::CampaignJournal journal;
    ASSERT_TRUE(journal.Open(dir).ok());
    ASSERT_TRUE(journal.Begin(0xBEEF, targets).ok());
  }
  fleet::CampaignJournal reopened;
  ASSERT_TRUE(reopened.Open(dir).ok());
  EXPECT_TRUE(reopened.recovered().active);
  EXPECT_FALSE(reopened.recovered().rotation);
  EXPECT_EQ(reopened.recovered().campaign_fingerprint, 0xBEEFu);
}

TEST(RegistryPersistenceTest, AutoSnapshotEveryNMutations) {
  const std::string dir = MakeTempDir("reg-auto");
  fleet::RegistryStorageOptions options;
  options.snapshot_every = 4;
  {
    fleet::DeviceRegistry registry(TestRegistryConfig());
    ASSERT_TRUE(registry.OpenStorage(dir, options).ok());
    const auto group = registry.CreateGroup("g");
    for (uint64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(registry.Enroll(0xA07A + i, group).ok());
    }
    EXPECT_GE(registry.storage_info().snapshots_written, 2u);
  }
  fleet::DeviceRegistry recovered(TestRegistryConfig());
  ASSERT_TRUE(recovered.OpenStorage(dir, options).ok());
  EXPECT_TRUE(recovered.storage_info().snapshot_loaded);
  EXPECT_EQ(recovered.Stats().devices, 10u);
}

TEST(RegistryPersistenceTest, CorruptWalTailLosesOnlyUnackedRecords) {
  const std::string dir = MakeTempDir("reg-corrupt");
  {
    fleet::DeviceRegistry registry(TestRegistryConfig());
    ASSERT_TRUE(registry.OpenStorage(dir).ok());
    for (uint64_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(registry.Enroll(0xBAD000 + i).ok());
    }
  }
  // Corrupt the FINAL record of the log (a torn write of the last
  // acknowledged mutation, as a dying disk would leave it).
  const std::string victim = dir + "/registry.wal";
  FlipByteAt(victim, fs::file_size(victim) - 1);

  fleet::DeviceRegistry recovered(TestRegistryConfig());
  ASSERT_TRUE(recovered.OpenStorage(dir).ok());
  const auto info = recovered.storage_info();
  EXPECT_EQ(info.corrupt_tails, 1u);
  EXPECT_GT(info.tail_bytes_truncated, 0u);
  // Exactly the one damaged enrollment is gone; the other five survive.
  EXPECT_EQ(info.devices_recovered, 5u);
}

TEST(RegistryPersistenceTest, LostGroupRecordIsRebuiltFromItsEnrollments) {
  const std::string dir = MakeTempDir("reg-lostgroup");
  const fleet::RegistryConfig config = TestRegistryConfig();
  fleet::DeviceRegistry reference(config);
  const fleet::GroupId group = reference.CreateGroup("line-x");
  const crypto::Key256 group_key = *reference.GroupKey(group);
  {
    // A log holding the group's enrollments but not its create record
    // (CreateGroup ignores a failed append).
    store::Wal wal;
    ASSERT_TRUE(wal.Open(dir + "/registry.wal", {},
                         RegistryStorageFingerprint(config))
                    .ok());
    for (uint64_t i = 0; i < 4; ++i) {
      store::RecordWriter enroll;
      enroll.U64(i + 1);
      enroll.U64(0x10057 + i);
      enroll.U64(group);
      enroll.U8(static_cast<uint8_t>(isa::IsaId::kRv64Gc));
      ASSERT_TRUE(wal.Append(4, enroll.bytes()).ok());
    }
  }

  fleet::DeviceRegistry recovered(config);
  ASSERT_TRUE(recovered.OpenStorage(dir).ok());
  // All four devices came back, the group was rebuilt from its id, and
  // the key matches (keys derive from the id, only the label is lost).
  EXPECT_EQ(recovered.Stats().devices, 4u);
  auto members = recovered.GroupMembers(group);
  ASSERT_TRUE(members.ok());
  EXPECT_EQ(members->size(), 4u);
  EXPECT_EQ(*recovered.GroupKey(group), group_key);
}

TEST(RegistryPersistenceTest, ConfigFingerprintGuardsRecovery) {
  const std::string dir = MakeTempDir("reg-config");
  {
    fleet::DeviceRegistry registry(TestRegistryConfig());
    ASSERT_TRUE(registry.OpenStorage(dir).ok());
    ASSERT_TRUE(registry.Enroll(0xF00D).ok());
  }
  // A different KDF domain would re-derive different keys: refused.
  fleet::RegistryConfig other = TestRegistryConfig();
  other.key_config.domain = "store.test.v2";
  fleet::DeviceRegistry mismatched(other);
  EXPECT_EQ(mismatched.OpenStorage(dir).code(),
            ErrorCode::kFailedPrecondition);
}

TEST(RegistryPersistenceTest, OpenStorageRequiresEmptyRegistry) {
  fleet::DeviceRegistry registry(TestRegistryConfig());
  ASSERT_TRUE(registry.Enroll(0xE0).ok());
  EXPECT_EQ(registry.OpenStorage(MakeTempDir("reg-nonempty")).code(),
            ErrorCode::kFailedPrecondition);
}

TEST(RegistryPersistenceTest, RevokeReEnrollSemanticsSurviveReplay) {
  const std::string dir = MakeTempDir("reg-reenroll");
  fleet::DeviceId first = 0, replacement = 0;
  fleet::GroupId group = 0;
  {
    fleet::DeviceRegistry registry(TestRegistryConfig());
    ASSERT_TRUE(registry.OpenStorage(dir).ok());
    group = registry.CreateGroup("g");
    auto id = registry.Enroll(0xD0D0, group);
    ASSERT_TRUE(id.ok());
    first = *id;
    ASSERT_TRUE(registry.Revoke(first).ok());
    auto again = registry.Enroll(0xD0D0, group);  // same silicon, new record
    ASSERT_TRUE(again.ok());
    replacement = *again;
    EXPECT_NE(first, replacement);
  }
  fleet::DeviceRegistry recovered(TestRegistryConfig());
  ASSERT_TRUE(recovered.OpenStorage(dir).ok());
  EXPECT_EQ(recovered.Lookup(first)->status, fleet::DeviceStatus::kRevoked);
  EXPECT_EQ(recovered.Lookup(replacement)->status,
            fleet::DeviceStatus::kEnrolled);
  auto members = recovered.GroupMembers(group);
  ASSERT_TRUE(members.ok());
  EXPECT_EQ(members->size(), 2u);  // revocation is a soft delete
}

// --- CampaignJournal ----------------------------------------------------------

fleet::TargetCheckpoint MakeCheckpoint(fleet::DeviceId device, bool ok,
                                       bool revoked = false,
                                       bool skipped = false) {
  fleet::TargetCheckpoint checkpoint;
  checkpoint.device = device;
  checkpoint.ok = ok;
  checkpoint.revoked = revoked;
  checkpoint.skipped = skipped;
  checkpoint.attempts = skipped ? 0 : 1;
  return checkpoint;
}

TEST(CampaignJournalTest, CrashMidCampaignResumesWithRemainingTargets) {
  const std::string dir = MakeTempDir("journal-crash");
  const std::vector<fleet::DeviceId> targets{11, 12, 13, 14, 15, 16};
  {
    fleet::CampaignJournal journal;
    ASSERT_TRUE(journal.Open(dir).ok());
    EXPECT_FALSE(journal.recovered().active);
    ASSERT_TRUE(journal.Begin(0xCAFE, targets).ok());
    journal.OnTargetCheckpoint(MakeCheckpoint(11, true));
    journal.OnTargetCheckpoint(MakeCheckpoint(12, false));
    journal.OnTargetCheckpoint(MakeCheckpoint(13, false, /*revoked=*/true));
    // Skipped targets must stay resumable: not recorded.
    journal.OnTargetCheckpoint(
        MakeCheckpoint(14, false, false, /*skipped=*/true));
    ASSERT_TRUE(journal.last_error().ok());
  }  // crash

  fleet::CampaignJournal resumed;
  ASSERT_TRUE(resumed.Open(dir).ok());
  const auto& state = resumed.recovered();
  EXPECT_TRUE(state.active);
  EXPECT_EQ(state.campaign_fingerprint, 0xCAFEu);
  EXPECT_EQ(state.targets, targets);
  EXPECT_EQ(state.completed.size(), 3u);
  EXPECT_EQ(state.delivered, 1u);
  EXPECT_EQ(state.failed, 1u);
  EXPECT_EQ(state.revoked, 1u);
  EXPECT_EQ(state.RemainingTargets(),
            (std::vector<fleet::DeviceId>{14, 15, 16}));

  // A fresh Begin is refused while the interrupted campaign is live...
  EXPECT_EQ(resumed.Begin(0xFEED, targets).code(),
            ErrorCode::kFailedPrecondition);
  // ...finish it and the journal reports nothing active afterwards.
  resumed.OnTargetCheckpoint(MakeCheckpoint(14, true));
  resumed.OnTargetCheckpoint(MakeCheckpoint(15, true));
  resumed.OnTargetCheckpoint(MakeCheckpoint(16, true));
  ASSERT_TRUE(resumed.Complete().ok());

  fleet::CampaignJournal after;
  ASSERT_TRUE(after.Open(dir).ok());
  EXPECT_FALSE(after.recovered().active);
  ASSERT_TRUE(after.Begin(0xFEED, targets).ok());  // now allowed
  // A freshly begun campaign is just as live as a resumed one: a second
  // Begin must not truncate its checkpoints.
  EXPECT_EQ(after.Begin(0xBEEF, targets).code(),
            ErrorCode::kFailedPrecondition);
}

TEST(CampaignJournalTest, AbandonDropsInterruptedCampaign) {
  const std::string dir = MakeTempDir("journal-abandon");
  const std::vector<fleet::DeviceId> targets{1, 2};
  {
    fleet::CampaignJournal journal;
    ASSERT_TRUE(journal.Open(dir).ok());
    ASSERT_TRUE(journal.Begin(1, targets).ok());
  }
  fleet::CampaignJournal journal;
  ASSERT_TRUE(journal.Open(dir).ok());
  EXPECT_TRUE(journal.recovered().active);
  ASSERT_TRUE(journal.Abandon().ok());
  fleet::CampaignJournal after;
  ASSERT_TRUE(after.Open(dir).ok());
  EXPECT_FALSE(after.recovered().active);
}

TEST(CampaignJournalTest, TornJournalTailRecoversToLastCheckpoint) {
  const std::string dir = MakeTempDir("journal-torn");
  const std::vector<fleet::DeviceId> torn_targets{1, 2, 3};
  {
    fleet::CampaignJournal journal;
    ASSERT_TRUE(journal.Open(dir).ok());
    ASSERT_TRUE(journal.Begin(7, torn_targets).ok());
    journal.OnTargetCheckpoint(MakeCheckpoint(1, true));
    journal.OnTargetCheckpoint(MakeCheckpoint(2, true));
  }
  const std::string path = dir + "/campaign.wal";
  fs::resize_file(path, fs::file_size(path) - 3);  // torn final checkpoint

  fleet::CampaignJournal journal;
  ASSERT_TRUE(journal.Open(dir).ok());
  EXPECT_TRUE(journal.recovered().active);
  EXPECT_EQ(journal.recovered().completed.size(), 1u);
  EXPECT_EQ(journal.recovered().RemainingTargets(),
            (std::vector<fleet::DeviceId>{2, 3}));
}

// The end-to-end exactly-once property, in process: a campaign "crashes"
// (cancel + journal teardown) partway, a second process resumes from the
// journal, and across both runs every target is delivered exactly once.
TEST(CampaignJournalTest, EngineCrashResumeDeliversExactlyOnce) {
  const std::string dir = MakeTempDir("journal-engine");

  fleet::DeviceRegistry registry(TestRegistryConfig());
  const auto group = registry.CreateGroup("fleet");
  std::vector<fleet::DeviceId> targets;
  for (uint64_t i = 0; i < 10; ++i) {
    auto id = registry.Enroll(0xE2E00 + i, group);
    ASSERT_TRUE(id.ok());
    targets.push_back(*id);
  }
  fleet::PackageCache cache;
  fleet::DeploymentEngine engine(registry, cache);

  fleet::CampaignConfig campaign;
  campaign.source = kTinyProgram;
  campaign.devices = targets;
  campaign.workers = 1;  // deterministic checkpoint count before "crash"

  // A sink that forwards to the journal and kills the daemon (cancels)
  // after the 4th durable checkpoint.
  struct CrashingSink : fleet::CampaignCheckpointSink {
    fleet::CampaignJournal* journal = nullptr;
    fleet::CampaignControl* control = nullptr;
    std::atomic<int> checkpoints{0};
    void OnTargetCheckpoint(
        const fleet::TargetCheckpoint& checkpoint) override {
      journal->OnTargetCheckpoint(checkpoint);
      if (checkpoints.fetch_add(1) + 1 == 4) control->Cancel();
    }
  };

  std::set<fleet::DeviceId> first_run_delivered;
  {
    fleet::CampaignJournal journal;
    ASSERT_TRUE(journal.Open(dir).ok());
    ASSERT_TRUE(journal.Begin(0xD15A57E2, targets).ok());

    fleet::CampaignControl control;
    CrashingSink sink;
    sink.journal = &journal;
    sink.control = &control;
    control.AttachCheckpointSink(&sink);
    fleet::DispatchGovernor governor({}, &control);
    fleet::CampaignConfig crashed = campaign;
    crashed.governor = &governor;

    auto report = engine.Run(crashed);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->succeeded, 4u);
    EXPECT_EQ(report->skipped, 6u);
    for (const auto& outcome : report->outcomes) {
      if (outcome.ok) first_run_delivered.insert(outcome.device);
    }
    ASSERT_TRUE(journal.last_error().ok());
  }  // crash: journal closed mid-campaign, no Complete()

  // Restart: recover the journal, resume over the remaining targets.
  fleet::CampaignJournal journal;
  ASSERT_TRUE(journal.Open(dir).ok());
  ASSERT_TRUE(journal.recovered().active);
  EXPECT_EQ(journal.recovered().completed.size(), 4u);
  const auto remaining = journal.recovered().RemainingTargets();
  EXPECT_EQ(remaining.size(), 6u);

  fleet::CampaignControl control;
  control.AttachCheckpointSink(&journal);
  fleet::DispatchGovernor governor({}, &control);
  fleet::CampaignConfig resumed = campaign;
  resumed.devices = remaining;
  resumed.governor = &governor;
  auto report = engine.Run(resumed);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->succeeded, 6u);
  ASSERT_TRUE(journal.Complete().ok());

  // Exactly once: the two delivery sets partition the fleet.
  std::set<fleet::DeviceId> second_run_delivered;
  for (const auto& outcome : report->outcomes) {
    if (outcome.ok) second_run_delivered.insert(outcome.device);
  }
  EXPECT_EQ(first_run_delivered.size() + second_run_delivered.size(),
            targets.size());
  for (fleet::DeviceId device : second_run_delivered) {
    EXPECT_FALSE(first_run_delivered.contains(device))
        << "device " << device << " delivered twice";
  }
}

// --- Legacy delivery manifests ----------------------------------------------

// Older registries logged "device D runs build B" as shard-WAL records of
// types 3 (no ISA) and 5 (with ISA). A device's own slot records that
// now, so replay checks such records for damage and drops them.
TEST(RegistryPersistenceTest, LegacyManifestWalRecordsAreDropped) {
  const std::string dir = MakeTempDir("reg-legacy-manifest");
  const fleet::RegistryConfig config = TestRegistryConfig();
  fleet::DeviceId device = 0;
  {
    fleet::DeviceRegistry registry(config);
    ASSERT_TRUE(registry.OpenStorage(dir).ok());
    device = *registry.Enroll(0x3A61F, registry.CreateGroup("g"));
  }
  {
    // Append one record of each legacy type to each of the older
    // layout's 16 shard logs: one names the device, the other none.
    for (size_t shard = 0; shard < 16; ++shard) {
      store::Wal wal;
      ASSERT_TRUE(wal.Open(dir + "/shard-" + std::to_string(shard) + ".wal",
                           {}, RegistryStorageFingerprint(config))
                      .ok());
      store::RecordWriter type3;
      type3.U64(device);
      WriteLegacyManifest(type3, 0x11, std::nullopt);
      ASSERT_TRUE(wal.Append(3, type3.bytes()).ok());
      store::RecordWriter type5;
      type5.U64(device + 100);  // never enrolled
      WriteLegacyManifest(type5, 0x22,
                          static_cast<uint8_t>(isa::IsaId::kRv32I));
      ASSERT_TRUE(wal.Append(5, type5.bytes()).ok());
    }
  }

  fleet::DeviceRegistry recovered(config);
  ASSERT_TRUE(recovered.OpenStorage(dir).ok());
  const auto info = recovered.storage_info();
  EXPECT_EQ(info.devices_recovered, 1u);
  // The group create, the enrollment and every legacy record.
  EXPECT_EQ(info.wal_records_replayed, 2u + 2 * 16);
  EXPECT_EQ(info.corrupt_tails, 0u);
  // The device never ran an image; a dropped manifest does not make it.
  EXPECT_EQ(recovered.DeliveredVersion(device).status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(recovered.DeliveredVersion(device + 100).status().code(),
            ErrorCode::kNotFound);
}

TEST(RegistryPersistenceTest, DamagedLegacyManifestRecordRefusesRecovery) {
  // A CRC-valid type-5 record with a bad body is damage, as it always
  // was: a short fingerprint, an unknown ISA byte, or trailing bytes.
  const fleet::RegistryConfig config = TestRegistryConfig();
  struct Damaged {
    const char* what;
    std::vector<uint8_t> body;
  };
  store::RecordWriter short_fp;
  short_fp.U64(1);
  short_fp.U64(0x22);
  short_fp.Bytes(std::vector<uint8_t>(31, 0));
  short_fp.U8(static_cast<uint8_t>(isa::IsaId::kRv64Gc));
  store::RecordWriter unknown_isa;
  unknown_isa.U64(1);
  WriteLegacyManifest(unknown_isa, 0x22, 9);
  store::RecordWriter trailing;
  trailing.U64(1);
  WriteLegacyManifest(trailing, 0x22, static_cast<uint8_t>(isa::IsaId::kRv64Gc));
  trailing.U8(0);
  const Damaged damaged[] = {
      {"31-byte fingerprint", short_fp.bytes()},
      {"unknown isa byte", unknown_isa.bytes()},
      {"trailing byte", trailing.bytes()},
  };
  for (const Damaged& d : damaged) {
    SCOPED_TRACE(d.what);
    const std::string dir = MakeTempDir("reg-legacy-damaged");
    {
      fleet::DeviceRegistry registry(config);
      ASSERT_TRUE(registry.OpenStorage(dir).ok());
      ASSERT_TRUE(registry.Enroll(0x3A620).ok());
    }
    {
      store::Wal wal;
      ASSERT_TRUE(wal.Open(dir + "/shard-0.wal", {},
                           RegistryStorageFingerprint(config))
                      .ok());
      ASSERT_TRUE(wal.Append(5, d.body).ok());
    }
    fleet::DeviceRegistry recovered(config);
    EXPECT_EQ(recovered.OpenStorage(dir).code(), ErrorCode::kCorruptPackage);
  }
}

TEST(RegistryPersistenceTest, SnapshotV4WithManifestsStillLoads) {
  // Back-compat: a v4 snapshot (device ISA byte, then an optional
  // manifest with its own ISA byte) loads with its devices intact and
  // its manifests dropped, and the next snapshot is written as v5.
  const std::string dir = MakeTempDir("reg-snap-v4");
  const fleet::RegistryConfig config = TestRegistryConfig();

  store::RecordWriter snap;
  snap.U32(4);  // schema version: ISAs and manifests
  snap.U64(1);  // group count
  snap.U64(1);
  snap.Str("line-a");
  snap.U64(1);  // group epoch
  snap.U64(2);  // device count
  snap.U64(1);
  snap.U64(0x5EED1);
  snap.U64(1);  // group 1
  snap.U8(0);   // enrolled
  snap.U8(static_cast<uint8_t>(isa::IsaId::kRv64Gc));
  snap.U8(0);   // no manifest
  snap.U64(2);
  snap.U64(0x5EED2);
  snap.U64(1);
  snap.U8(0);
  snap.U8(static_cast<uint8_t>(isa::IsaId::kRv32I));
  snap.U8(1);  // has manifest
  WriteLegacyManifest(snap, 0x77, static_cast<uint8_t>(isa::IsaId::kRv32I));
  ASSERT_TRUE(store::WriteSnapshot(dir, "registry", 1,
                                   RegistryStorageFingerprint(config),
                                   snap.bytes())
                  .ok());

  fleet::DeviceRegistry recovered(config);
  ASSERT_TRUE(recovered.OpenStorage(dir).ok());
  EXPECT_TRUE(recovered.storage_info().snapshot_loaded);
  EXPECT_EQ(recovered.Stats().devices, 2u);
  EXPECT_EQ(recovered.Lookup(1)->isa, isa::IsaId::kRv64Gc);
  EXPECT_EQ(recovered.Lookup(2)->isa, isa::IsaId::kRv32I);
  EXPECT_EQ(recovered.DeliveredVersion(2).status().code(),
            ErrorCode::kFailedPrecondition);

  ASSERT_TRUE(recovered.Snapshot().ok());
  fleet::DeviceRegistry again(config);
  ASSERT_TRUE(again.OpenStorage(dir).ok());
  EXPECT_EQ(again.Stats().devices, 2u);
  EXPECT_EQ(again.Lookup(2)->isa, isa::IsaId::kRv32I);
  EXPECT_EQ(*again.GroupMembers(1), (std::vector<fleet::DeviceId>{1, 2}));
}

TEST(RegistryPersistenceTest, SnapshotV2WithoutManifestsStillLoads) {
  // Back-compat: a state dir snapshotted before the manifest schema
  // (v2: groups carry epochs, devices end at the status byte) must load
  // with every device simply manifest-less.
  const std::string dir = MakeTempDir("reg-snap-v2");
  const fleet::RegistryConfig config = TestRegistryConfig();
  const uint64_t fingerprint = RegistryStorageFingerprint(config);

  // A v2 snapshot: one group at epoch 2, two devices (one revoked).
  store::RecordWriter snap;
  snap.U32(2);  // schema version
  snap.U64(1);  // group count
  snap.U64(1);
  snap.Str("line-a");
  snap.U64(2);  // group epoch
  snap.U64(2);  // device count
  snap.U64(1);
  snap.U64(0x5EED1);
  snap.U64(1);  // group 1
  snap.U8(0);   // enrolled
  snap.U64(2);
  snap.U64(0x5EED2);
  snap.U64(1);
  snap.U8(1);  // revoked
  ASSERT_TRUE(
      store::WriteSnapshot(dir, "registry", 1, fingerprint, snap.bytes())
          .ok());

  fleet::DeviceRegistry recovered(config);
  ASSERT_TRUE(recovered.OpenStorage(dir).ok());
  EXPECT_TRUE(recovered.storage_info().snapshot_loaded);
  EXPECT_EQ(recovered.Stats().devices, 2u);
  EXPECT_EQ(recovered.Stats().revoked, 1u);
  EXPECT_EQ(*recovered.GroupEpoch(1), 2u);
  EXPECT_EQ(recovered.DeliveredVersion(1).status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(recovered.DeliveredVersion(2).status().code(),
            ErrorCode::kFailedPrecondition);

  // And the recovered fleet round-trips through the current snapshot.
  ASSERT_TRUE(recovered.Snapshot().ok());
  fleet::DeviceRegistry again(config);
  ASSERT_TRUE(again.OpenStorage(dir).ok());
  EXPECT_EQ(again.Stats().devices, 2u);
  EXPECT_EQ(again.Stats().revoked, 1u);
  EXPECT_EQ(*again.GroupEpoch(1), 2u);
}

TEST(CampaignJournalTest, OutcomeFormSurvivesReplay) {
  const std::string dir = MakeTempDir("journal-form");
  const std::vector<fleet::DeviceId> targets = {31, 32, 33};
  {
    fleet::CampaignJournal journal;
    ASSERT_TRUE(journal.Open(dir).ok());
    ASSERT_TRUE(journal.Begin(0xD17A, targets).ok());
    fleet::TargetCheckpoint as_delta;
    as_delta.device = 31;
    as_delta.ok = true;
    as_delta.delta = true;
    as_delta.attempts = 1;
    journal.OnTargetCheckpoint(as_delta);
    fleet::TargetCheckpoint as_full;
    as_full.device = 32;
    as_full.ok = true;
    as_full.attempts = 2;
    journal.OnTargetCheckpoint(as_full);
    ASSERT_TRUE(journal.last_error().ok());
  }  // crash mid-campaign

  fleet::CampaignJournal reopened;
  ASSERT_TRUE(reopened.Open(dir).ok());
  const auto& recovered = reopened.recovered();
  EXPECT_TRUE(recovered.active);
  EXPECT_EQ(recovered.delivered, 2u);
  EXPECT_EQ(recovered.delta_delivered, 1u);
  EXPECT_EQ(recovered.RemainingTargets(),
            (std::vector<fleet::DeviceId>{33}));
}

// --- Legacy sharded layout ----------------------------------------------------

/// Asserts that two registries hold the same fleet: every device's
/// enrollment fields, status, conversion mask and sealing context, and
/// every group's epoch, key and member order.
void ExpectSameFleet(const fleet::DeviceRegistry& expected,
                     const fleet::DeviceRegistry& actual) {
  EXPECT_EQ(actual.Stats().devices, expected.Stats().devices);
  EXPECT_EQ(actual.Stats().revoked, expected.Stats().revoked);
  EXPECT_EQ(actual.Stats().groups, expected.Stats().groups);
  ASSERT_EQ(actual.AllDevices(), expected.AllDevices());
  for (fleet::DeviceId id : expected.AllDevices()) {
    SCOPED_TRACE("device " + std::to_string(id));
    const auto want = expected.Lookup(id);
    const auto got = actual.Lookup(id);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->device_seed, want->device_seed);
    EXPECT_EQ(got->group, want->group);
    EXPECT_EQ(got->status, want->status);
    EXPECT_EQ(got->isa, want->isa);
    EXPECT_EQ(got->conversion_mask, want->conversion_mask);
    const auto want_sealing = expected.SealingContextFor(id);
    const auto got_sealing = actual.SealingContextFor(id);
    ASSERT_TRUE(want_sealing.ok());
    ASSERT_TRUE(got_sealing.ok());
    EXPECT_EQ(got_sealing->key, want_sealing->key);
    EXPECT_EQ(got_sealing->config.epoch, want_sealing->config.epoch);
  }
  for (fleet::GroupId group = 1; group <= expected.Stats().groups; ++group) {
    SCOPED_TRACE("group " + std::to_string(group));
    EXPECT_EQ(*actual.GroupEpoch(group), *expected.GroupEpoch(group));
    EXPECT_EQ(*actual.GroupKey(group), *expected.GroupKey(group));
    EXPECT_EQ(*actual.GroupMembers(group), *expected.GroupMembers(group));
  }
}

// Older registries kept a groups.wal (1 = group create, 2 = epoch bump)
// and sixteen shard-K.wal logs, each device's records in shard
// SplitMix64(id) % 16. A directory in that layout, written here by hand
// on top of a v5 snapshot, must recover the fleet an in-memory registry
// builds from the same history.
TEST(RegistryPersistenceTest, LegacyShardedLayoutRecovers) {
  const std::string dir = MakeTempDir("reg-legacy-layout");
  fleet::RegistryConfig config;
  config.key_config.domain = "store.test.legacy";
  const uint64_t fingerprint = RegistryStorageFingerprint(config);
  constexpr uint8_t kRv64 = static_cast<uint8_t>(isa::IsaId::kRv64Gc);
  constexpr uint8_t kRv32 = static_cast<uint8_t>(isa::IsaId::kRv32I);

  // The snapshot: groups 1 (epoch 0) and 2 (epoch 2); devices 1 and 2,
  // and a revoked solo device 3.
  store::RecordWriter snap;
  snap.U32(5);
  snap.U64(2);
  snap.U64(1);
  snap.Str("line-a");
  snap.U64(0);
  snap.U64(2);
  snap.Str("line-b");
  snap.U64(2);
  snap.U64(3);
  const struct {
    uint64_t id, seed, group;
    uint8_t status, isa;
  } snapped[] = {{1, 0x1E6A1, 1, 0, kRv64},
                 {2, 0x1E6A2, 2, 0, kRv32},
                 {3, 0x1E6A3, fleet::kNoGroup, 1, kRv64}};
  for (const auto& d : snapped) {
    snap.U64(d.id);
    snap.U64(d.seed);
    snap.U64(d.group);
    snap.U8(d.status);
    snap.U8(d.isa);
  }
  ASSERT_TRUE(
      store::WriteSnapshot(dir, "registry", 1, fingerprint, snap.bytes())
          .ok());

  {
    // The group log: group 3 is created, group 1 bumps to epoch 1.
    store::Wal groups;
    ASSERT_TRUE(groups.Open(dir + "/groups.wal", {}, fingerprint).ok());
    store::RecordWriter create;
    create.U64(3);
    create.Str("line-c");
    ASSERT_TRUE(groups.Append(1, create.bytes()).ok());
    store::RecordWriter bump;
    bump.U64(1);
    bump.U64(1);
    ASSERT_TRUE(groups.Append(2, bump.bytes()).ok());
  }
  {
    // The shard logs, each record in its device's shard: enrollments of
    // devices 4 and 5 (type 4), a pre-ISA enrollment of device 6 (type
    // 1), legacy manifests (types 3 and 5), and revokes of 2 and 6.
    std::vector<std::unique_ptr<store::Wal>> shards;
    for (size_t shard = 0; shard < 16; ++shard) {
      shards.push_back(std::make_unique<store::Wal>());
      ASSERT_TRUE(shards.back()
                      ->Open(dir + "/shard-" + std::to_string(shard) + ".wal",
                             {}, fingerprint)
                      .ok());
    }
    const auto append = [&shards](fleet::DeviceId id, uint8_t type,
                                  const store::RecordWriter& rec) {
      ASSERT_TRUE(
          shards[SplitMix64(id).Next() % 16]->Append(type, rec.bytes()).ok());
    };
    store::RecordWriter enroll4;
    enroll4.U64(4);
    enroll4.U64(0x1E6A4);
    enroll4.U64(3);
    enroll4.U8(kRv32);
    append(4, 4, enroll4);
    store::RecordWriter manifest4;
    manifest4.U64(4);
    WriteLegacyManifest(manifest4, 0x44, kRv32);
    append(4, 5, manifest4);
    store::RecordWriter enroll5;
    enroll5.U64(5);
    enroll5.U64(0x1E6A5);
    enroll5.U64(1);
    enroll5.U8(kRv64);
    append(5, 4, enroll5);
    store::RecordWriter manifest5;
    manifest5.U64(5);
    WriteLegacyManifest(manifest5, 0x55, std::nullopt);
    append(5, 3, manifest5);
    store::RecordWriter enroll6;
    enroll6.U64(6);
    enroll6.U64(0x1E6A6);
    enroll6.U64(fleet::kNoGroup);
    append(6, 1, enroll6);
    for (fleet::DeviceId id : {fleet::DeviceId{2}, fleet::DeviceId{6}}) {
      store::RecordWriter revoke;
      revoke.U64(id);
      append(id, 2, revoke);
    }
  }

  // The same history, built in memory.
  fleet::DeviceRegistry reference(config);
  ASSERT_EQ(reference.CreateGroup("line-a"), 1u);
  ASSERT_EQ(reference.CreateGroup("line-b"), 2u);
  ASSERT_EQ(reference.CreateGroup("line-c"), 3u);
  ASSERT_EQ(*reference.Enroll(0x1E6A1, 1), 1u);
  ASSERT_EQ(*reference.Enroll(0x1E6A2, 2, isa::IsaId::kRv32I), 2u);
  ASSERT_EQ(*reference.Enroll(0x1E6A3), 3u);
  ASSERT_EQ(*reference.Enroll(0x1E6A4, 3, isa::IsaId::kRv32I), 4u);
  ASSERT_EQ(*reference.Enroll(0x1E6A5, 1), 5u);
  ASSERT_EQ(*reference.Enroll(0x1E6A6), 6u);
  ASSERT_TRUE(reference.RotateGroupEpochTo(1, 1).ok());
  ASSERT_TRUE(reference.RotateGroupEpochTo(2, 2).ok());
  for (fleet::DeviceId id : {2, 3, 6}) {
    ASSERT_TRUE(reference.Revoke(id).ok());
  }

  {
    fleet::DeviceRegistry recovered(config);
    ASSERT_TRUE(recovered.OpenStorage(dir).ok());
    // The older logs were folded into a snapshot and removed.
    EXPECT_FALSE(fs::exists(dir + "/groups.wal"));
    for (size_t shard = 0; shard < 16; ++shard) {
      EXPECT_FALSE(
          fs::exists(dir + "/shard-" + std::to_string(shard) + ".wal"));
    }
    EXPECT_TRUE(fs::exists(dir + "/registry.wal"));
    const auto info = recovered.storage_info();
    EXPECT_TRUE(info.snapshot_loaded);
    EXPECT_EQ(info.snapshot_sequence, 1u);
    EXPECT_EQ(info.snapshots_written, 1u);
    EXPECT_EQ(info.wal_records_replayed, 9u);
    EXPECT_EQ(info.epoch_bumps_replayed, 1u);
    EXPECT_EQ(info.corrupt_tails, 0u);
    EXPECT_EQ(info.orphan_revokes_dropped, 0u);
    ExpectSameFleet(reference, recovered);

    // The recovered endpoints took the replayed epoch bump: a package
    // sealed under device 5's context runs on it.
    const auto sealing = recovered.SealingContextFor(5);
    ASSERT_TRUE(sealing.ok());
    ASSERT_EQ(sealing->config.epoch, 1u);
    fleet::PackageCache cache;
    auto artifact = cache.GetOrBuild(kTinyProgram, sealing->key,
                                     sealing->config,
                                     core::EncryptionPolicy::Full());
    ASSERT_TRUE(artifact.ok());
    auto run = recovered.Dispatch(5, (*artifact)->wire);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->exec.exit_code, kTinyProgramResult);

    // Mutations after the reopen are logged and survive the next one.
    ASSERT_EQ(*recovered.Enroll(0x1E6A7, 3), 7u);
    ASSERT_TRUE(recovered.Revoke(4).ok());
  }
  ASSERT_EQ(*reference.Enroll(0x1E6A7, 3), 7u);
  ASSERT_TRUE(reference.Revoke(4).ok());

  fleet::DeviceRegistry again(config);
  ASSERT_TRUE(again.OpenStorage(dir).ok());
  EXPECT_EQ(again.storage_info().snapshot_sequence, 2u);
  EXPECT_EQ(again.storage_info().wal_records_replayed, 2u);
  EXPECT_EQ(again.storage_info().snapshots_written, 0u);
  ExpectSameFleet(reference, again);
}

// --- Per-device ISA persistence ----------------------------------------------

TEST(RegistryPersistenceTest, DeviceIsaSurvivesRestartViaWalReplay) {
  const std::string dir = MakeTempDir("reg-isa-wal");
  fleet::DeviceId rv64 = 0, rv32 = 0;
  {
    fleet::DeviceRegistry registry(TestRegistryConfig());
    ASSERT_TRUE(registry.OpenStorage(dir).ok());
    const auto group = registry.CreateGroup("mixed");
    rv64 = *registry.Enroll(0x15AA64, group);
    rv32 = *registry.Enroll(0x15AA32, group, isa::IsaId::kRv32I);
  }  // daemon dies before any snapshot: recovery is pure WAL replay

  fleet::DeviceRegistry recovered(TestRegistryConfig());
  ASSERT_TRUE(recovered.OpenStorage(dir).ok());
  EXPECT_EQ(recovered.storage_info().wal_records_replayed, 3u);
  EXPECT_EQ(recovered.Lookup(rv64)->isa, isa::IsaId::kRv64Gc);
  EXPECT_EQ(recovered.Lookup(rv32)->isa, isa::IsaId::kRv32I);
}

TEST(RegistryPersistenceTest, DeviceIsaSurvivesSnapshotCompaction) {
  const std::string dir = MakeTempDir("reg-isa-snap");
  fleet::DeviceId rv32 = 0;
  {
    fleet::DeviceRegistry registry(TestRegistryConfig());
    ASSERT_TRUE(registry.OpenStorage(dir).ok());
    rv32 = *registry.Enroll(0x15AB32, fleet::kNoGroup, isa::IsaId::kRv32I);
    // Compaction truncates the WALs: the ISA must ride the snapshot's
    // device fields.
    ASSERT_TRUE(registry.Snapshot().ok());
  }
  fleet::DeviceRegistry recovered(TestRegistryConfig());
  ASSERT_TRUE(recovered.OpenStorage(dir).ok());
  const auto info = recovered.storage_info();
  EXPECT_TRUE(info.snapshot_loaded);
  EXPECT_EQ(info.wal_records_replayed, 0u);  // the WAL was compacted
  EXPECT_EQ(recovered.Lookup(rv32)->isa, isa::IsaId::kRv32I);
}

TEST(RegistryPersistenceTest, SnapshotV3WithoutIsaStillLoads) {
  // Back-compat: a state dir snapshotted before per-device ISAs
  // (v3: devices end at the manifest, no isa bytes anywhere) must load
  // as an all-RV64GC fleet — that is the only ISA that existed then.
  const std::string dir = MakeTempDir("reg-snap-v3");
  const fleet::RegistryConfig config = TestRegistryConfig();
  const uint64_t fingerprint = RegistryStorageFingerprint(config);

  // A v3 snapshot: one group, one manifest-less device, one device with
  // a delivery manifest (checked for damage, then dropped).
  store::RecordWriter snap;
  snap.U32(3);  // schema version: manifests yes, ISAs no
  snap.U64(1);  // group count
  snap.U64(1);
  snap.Str("line-a");
  snap.U64(1);  // group epoch
  snap.U64(2);  // device count
  snap.U64(1);
  snap.U64(0x5EED1);
  snap.U64(1);  // group 1
  snap.U8(0);   // enrolled
  snap.U8(0);   // no manifest
  snap.U64(2);
  snap.U64(0x5EED2);
  snap.U64(1);
  snap.U8(0);
  snap.U8(1);  // has manifest
  WriteLegacyManifest(snap, 0x77, std::nullopt);
  ASSERT_TRUE(
      store::WriteSnapshot(dir, "registry", 1, fingerprint, snap.bytes())
          .ok());

  fleet::DeviceRegistry recovered(config);
  ASSERT_TRUE(recovered.OpenStorage(dir).ok());
  EXPECT_TRUE(recovered.storage_info().snapshot_loaded);
  EXPECT_EQ(recovered.Stats().devices, 2u);
  EXPECT_EQ(recovered.Lookup(1)->isa, isa::IsaId::kRv64Gc);
  EXPECT_EQ(recovered.Lookup(2)->isa, isa::IsaId::kRv64Gc);
  EXPECT_EQ(recovered.DeliveredVersion(2).status().code(),
            ErrorCode::kFailedPrecondition);

  // A fresh rv32 enrollment on the recovered fleet round-trips through
  // the current snapshot alongside the migrated devices.
  const auto rv32 = recovered.Enroll(0x5EED3, 1, isa::IsaId::kRv32I);
  ASSERT_TRUE(rv32.ok());
  ASSERT_TRUE(recovered.Snapshot().ok());
  fleet::DeviceRegistry again(config);
  ASSERT_TRUE(again.OpenStorage(dir).ok());
  EXPECT_EQ(again.Lookup(*rv32)->isa, isa::IsaId::kRv32I);
  EXPECT_EQ(again.Lookup(1)->isa, isa::IsaId::kRv64Gc);
}

TEST(RegistryPersistenceTest, SnapshotNamingUnknownIsaFailsClosed) {
  // A v4 snapshot whose device claims an ISA no backend implements must
  // refuse to load — defaulting would dispatch wrong-ISA images forever.
  const std::string dir = MakeTempDir("reg-snap-bad-isa");
  const fleet::RegistryConfig config = TestRegistryConfig();
  const uint64_t fingerprint = RegistryStorageFingerprint(config);

  store::RecordWriter snap;
  snap.U32(4);  // a schema with device ISA bytes
  snap.U64(0);  // no groups
  snap.U64(1);  // one device
  snap.U64(1);
  snap.U64(0x5EED9);
  snap.U64(0);  // kNoGroup
  snap.U8(0);   // enrolled
  snap.U8(9);   // ISA byte no backend claims
  snap.U8(0);   // no manifest
  ASSERT_TRUE(
      store::WriteSnapshot(dir, "registry", 1, fingerprint, snap.bytes())
          .ok());

  fleet::DeviceRegistry recovered(config);
  EXPECT_EQ(recovered.OpenStorage(dir).code(), ErrorCode::kCorruptPackage);
}

TEST(CampaignJournalTest, BeginCountBeyondPayloadFailsClosed) {
  // A CRC-valid begin record whose target count cannot fit its payload
  // must be refused as damage, not trusted to size an allocation.
  const std::string dir = MakeTempDir("journal-count");
  {
    store::Wal wal;
    ASSERT_TRUE(wal.Open(dir + "/campaign.wal").ok());
    store::RecordWriter begin;
    begin.U64(0xB16);              // campaign fingerprint
    begin.U64(uint64_t{1} << 61);  // target count
    begin.U64(7);                  // the one target id actually present
    ASSERT_TRUE(wal.Append(/*kRecBegin=*/1, begin.bytes()).ok());
  }
  fleet::CampaignJournal journal;
  EXPECT_EQ(journal.Open(dir).code(), ErrorCode::kCorruptPackage);
}

TEST(CampaignJournalTest, CraftedRecordsFailClosed) {
  // CRC-valid records the journal never writes: unknown outcome kinds,
  // delivery forms and watchdog actions, and trailing bytes after any
  // record's last field. Each must refuse recovery, not be guessed at.
  struct Crafted {
    const char* what;
    uint8_t type;
    std::vector<uint8_t> payload;
  };
  const auto outcome = [](uint8_t kind, uint8_t form, size_t trailing) {
    store::RecordWriter rec;  // type 5: {device, kind, attempts, form}
    rec.U64(7);
    rec.U8(kind);
    rec.U32(1);
    rec.U8(form);
    for (size_t i = 0; i < trailing; ++i) rec.U8(0);
    return rec.bytes();
  };
  const auto watchdog = [](uint8_t action) {
    store::RecordWriter rec;  // type 6: {action, 3 x double bits, slo}
    rec.U8(action);
    rec.U64(0);
    rec.U64(0);
    rec.U64(0);
    rec.Str("slo");
    return rec.bytes();
  };
  store::RecordWriter padded_begin;  // type 1: {fingerprint, n, n ids}
  padded_begin.U64(0xB16);
  padded_begin.U64(1);
  padded_begin.U64(7);
  padded_begin.U32(0);
  store::RecordWriter legacy_outcome;  // type 2: {device, kind, attempts}
  legacy_outcome.U64(7);
  legacy_outcome.U8(1);
  legacy_outcome.U32(1);
  legacy_outcome.U8(0);
  const Crafted crafted[] = {
      {"outcome kind 9", 5, outcome(9, 0, 0)},
      {"outcome kind 0", 5, outcome(0, 0, 0)},
      {"outcome form 7", 5, outcome(1, 7, 0)},
      {"outcome form 7 + 8 trailing bytes", 5, outcome(1, 7, 8)},
      {"outcome + 8 trailing bytes", 5, outcome(1, 0, 8)},
      {"legacy outcome + trailing byte", 2, legacy_outcome.bytes()},
      {"watchdog action 42", 6, watchdog(42)},
      {"begin + trailing bytes", 1, padded_begin.bytes()},
      {"end with a payload", 3, {0}},
  };
  for (const Crafted& c : crafted) {
    SCOPED_TRACE(c.what);
    const std::string dir = MakeTempDir("journal-crafted");
    {
      store::Wal wal;
      ASSERT_TRUE(wal.Open(dir + "/campaign.wal").ok());
      if (c.type != 1) {
        store::RecordWriter begin;
        begin.U64(0xB16);
        begin.U64(1);
        begin.U64(7);
        ASSERT_TRUE(wal.Append(/*kRecBegin=*/1, begin.bytes()).ok());
      }
      ASSERT_TRUE(wal.Append(c.type, c.payload).ok());
    }
    fleet::CampaignJournal journal;
    EXPECT_EQ(journal.Open(dir).code(), ErrorCode::kCorruptPackage);
  }

  // The same records as the journal writes them still replay.
  const std::string dir = MakeTempDir("journal-crafted-ok");
  {
    store::Wal wal;
    ASSERT_TRUE(wal.Open(dir + "/campaign.wal").ok());
    store::RecordWriter begin;
    begin.U64(0xB16);
    begin.U64(1);
    begin.U64(7);
    ASSERT_TRUE(wal.Append(1, begin.bytes()).ok());
    ASSERT_TRUE(wal.Append(5, outcome(1, 1, 0)).ok());
    ASSERT_TRUE(wal.Append(6, watchdog(2)).ok());
  }
  fleet::CampaignJournal journal;
  ASSERT_TRUE(journal.Open(dir).ok());
  EXPECT_EQ(journal.recovered().delta_delivered, 1u);
  EXPECT_TRUE(journal.recovered().watchdog_abort);
}

TEST(RegistryPersistenceTest, WalRecordWithTrailingBytesFailsClosed) {
  // Every registry WAL record decodes to exactly its payload: bytes left
  // over after the last field are damage, whichever log carries them.
  const fleet::RegistryConfig config = TestRegistryConfig();
  const uint64_t fingerprint = RegistryStorageFingerprint(config);

  store::RecordWriter group_create;  // group create: {id, label}
  group_create.U64(2);
  group_create.Str("padded");
  group_create.U64(0);  // 8 trailing bytes
  store::RecordWriter enroll;  // type 4: {id, seed, group, isa}
  enroll.U64(2);
  enroll.U64(0x7A11);
  enroll.U64(1);
  enroll.U8(static_cast<uint8_t>(isa::IsaId::kRv64Gc));
  enroll.U64(0);  // 8 trailing bytes
  const struct {
    const char* log;
    uint8_t type;
    const std::vector<uint8_t>& payload;
  } cases[] = {{"registry.wal", 6, group_create.bytes()},
               {"registry.wal", 4, enroll.bytes()},
               {"groups.wal", 1, group_create.bytes()},
               {"shard-0.wal", 4, enroll.bytes()}};

  for (const auto& padded : cases) {
    const std::string dir = MakeTempDir("reg-trailing");
    {
      fleet::DeviceRegistry registry(config);
      ASSERT_TRUE(registry.OpenStorage(dir).ok());
      ASSERT_TRUE(registry.Enroll(0x7A10, registry.CreateGroup("line")).ok());
    }
    {
      store::Wal wal;
      ASSERT_TRUE(wal.Open(dir + "/" + padded.log, {}, fingerprint).ok());
      ASSERT_TRUE(wal.Append(padded.type, padded.payload).ok());
    }
    fleet::DeviceRegistry recovered(config);
    EXPECT_EQ(recovered.OpenStorage(dir).code(), ErrorCode::kCorruptPackage)
        << padded.log;
  }
}

}  // namespace
}  // namespace eric
