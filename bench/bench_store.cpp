// Durable-store throughput: what fsync policy costs on the append path,
// and what cold-start recovery costs as the fleet grows.
//
// Part 1 — append throughput by sync policy. Four worker threads append
// fixed-size records under each policy: fsync-per-append (the durability
// ceiling), group commit at several gather windows (one fsync covers a
// batch of concurrent appends), and no-fsync (the OS-cache floor). After
// each run the log is replayed to prove every acknowledged record is
// present and intact — throughput that loses records is not throughput.
//
// Part 2 — cold-start recovery vs fleet size. A registry state directory
// is populated by enrollment, then reopened cold: once replaying the raw
// enrollment WAL, once from a snapshot. Recovery re-simulates each
// device's silicon (PUF enrollment + conversion-mask provisioning), so
// both paths are dominated by the same per-device work — the snapshot's
// value is compaction, not CPU — and the honest headline is the
// recovery/enroll ratio, which should sit near 1.
//
// Part 3 — durable writes per delivered target. A durable fleet runs one
// journaled campaign (the eric_fleetd --state-dir pipeline) and counts
// the store_durable_writes it makes per delivered target, leaving out
// the journal's begin and end records, which are per campaign. The count
// is deterministic, so unlike the timings above it travels across hosts.
//
// Part 4 — CRC-32 speed. The CPU time of store::Crc32 over a fixed
// 64 KiB buffer over that of a bench-local byte-at-a-time table loop
// computing the same CRC: the median ratio of alternating passes
// (crc32.vs_bytewise_ratio). Both sides run on the same host, so the
// ratio travels where the absolute throughput does not.
//
// Emits BENCH_store.json for the perf-trajectory tooling.
//
//   bench_store [--quick] [--out FILE]
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "fleet/campaign_journal.h"
#include "fleet/campaign_scheduler.h"
#include "fleet/deployment_engine.h"
#include "fleet/device_registry.h"
#include "obs/metrics.h"
#include "store/record_io.h"
#include "store/wal.h"
#include "support/bench_json.h"
#include "support/stopwatch.h"
#include "cpu_probe.h"

using namespace eric;

namespace {

namespace fs = std::filesystem;

struct AppendPoint {
  std::string mode;
  uint32_t window_us = 0;
  double appends_per_second = 0;
  uint64_t records = 0;
  bool intact = false;  ///< replay found every record undamaged
};

struct RecoveryPoint {
  size_t devices = 0;
  double enroll_ms = 0;
  double wal_recovery_ms = 0;   ///< cold start replaying the raw WAL
  double snap_recovery_ms = 0;  ///< cold start from a snapshot
  double ratio = 0;             ///< snapshot recovery / enrollment
};

std::string FreshDir(const char* tag, int index) {
  const fs::path dir = fs::temp_directory_path() /
                       ("eric-bench-store-" + std::to_string(::getpid()) +
                        "-" + tag + "-" + std::to_string(index));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

AppendPoint BenchAppends(const std::string& mode_name,
                         const store::WalOptions& options, size_t threads,
                         size_t total_appends, int index) {
  AppendPoint point;
  point.mode = mode_name;
  point.window_us = options.sync == store::SyncMode::kGroupCommit
                        ? options.group_commit_window_us
                        : 0;
  const std::string dir = FreshDir("append", index);
  const std::string path = dir + "/bench.wal";

  {
    store::Wal wal;
    if (!wal.Open(path, options).ok()) return point;
    std::atomic<size_t> errors{0};
    const size_t per_thread = total_appends / threads;
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        // 64-byte payload: roughly one registry enrollment record plus
        // headroom.
        store::RecordWriter rec;
        for (int i = 0; i < 8; ++i) rec.U64(0x5709EBE9C + t);
        for (size_t i = 0; i < per_thread; ++i) {
          if (!wal.Append(1, rec.bytes()).ok()) ++errors;
        }
      });
    }
    for (auto& worker : workers) worker.join();
    const double wall_ms = MillisecondsSince(start);
    point.records = wal.appended();
    if (errors.load() == 0 && wall_ms > 0) {
      point.appends_per_second =
          static_cast<double>(point.records) / (wall_ms / 1000.0);
    }
  }

  // Acknowledged throughput must be durable throughput.
  uint64_t replayed = 0;
  auto recovered = store::Wal::Replay(
      path,
      [&replayed](const store::WalRecord& record) -> Status {
        if (record.payload.size() != 64) {
          return Status(ErrorCode::kCorruptPackage, "payload damaged");
        }
        ++replayed;
        return Status::Ok();
      });
  point.intact = recovered.ok() && !recovered->tail_corrupted &&
                 replayed == point.records;
  fs::remove_all(dir);
  return point;
}

/// Durable-write requests per delivered target of one journaled campaign
/// over a fresh durable fleet of `devices`; negative when any step fails
/// or a target is not delivered.
double DurableWritesPerDelivery(const fleet::RegistryConfig& config,
                                size_t devices, int index) {
  const std::string dir = FreshDir("campaign", index);
  double per_delivery = -1;
  [&] {
    fleet::DeviceRegistry registry(config);
    if (!registry.OpenStorage(dir).ok()) return;
    const fleet::GroupId group = registry.CreateGroup("bench");
    fleet::CampaignConfig campaign;
    campaign.source = "fn main() { return 42; }";
    campaign.workers = 2;
    for (size_t i = 0; i < devices; ++i) {
      auto id = registry.Enroll(0xD3B1E000 + i, group);
      if (!id.ok()) return;
      campaign.devices.push_back(*id);
    }
    fleet::PackageCache cache;
    fleet::DeploymentEngine engine(registry, cache);
    fleet::CampaignJournal journal;
    if (!journal.Open(dir).ok()) return;
    const obs::Counter& writes =
        obs::MetricsRegistry::Global().GetCounter("store_durable_writes");
    const uint64_t before = writes.value();
    if (!journal
             .Begin(fleet::ProgramVersionFingerprint(campaign.source,
                                                     campaign.policy,
                                                     campaign.compile_options),
                    campaign.devices)
             .ok()) {
      return;
    }
    fleet::CampaignControl control;
    control.AttachCheckpointSink(&journal);
    journal.CancelCampaignOnError(&control);
    fleet::CampaignScheduler scheduler(engine, registry);
    auto report = scheduler.Run(campaign, fleet::SchedulerConfig{}, &control);
    if (!report.ok() || !journal.Complete().ok() ||
        report->succeeded != devices) {
      return;
    }
    constexpr uint64_t kBeginAndEnd = 2;
    per_delivery = static_cast<double>(writes.value() - before - kBeginAndEnd) /
                   static_cast<double>(report->succeeded);
  }();
  fs::remove_all(dir);
  return per_delivery;
}

// The byte-at-a-time table loop store::Crc32 is compared against.
uint32_t BytewiseCrc32(std::span<const uint8_t> data) {
  static const std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t entry = i;
      for (int bit = 0; bit < 8; ++bit) {
        entry = (entry >> 1) ^ ((entry & 1u) ? 0xEDB88320u : 0u);
      }
      table[i] = entry;
    }
    return table;
  }();
  uint32_t state = 0xFFFFFFFFu;
  for (uint8_t byte : data) {
    state = (state >> 8) ^ kTable[(state ^ byte) & 0xFFu];
  }
  return state ^ 0xFFFFFFFFu;
}

struct CrcSpeed {
  double crc32_mb_per_s = 0;
  double bytewise_mb_per_s = 0;
  double vs_bytewise_ratio = 0;  ///< median CPU-time ratio of the pairs
  bool agree = false;            ///< both loops computed the same CRC
};

CrcSpeed BenchCrc32() {
  constexpr size_t kBytes = 64 * 1024;
  constexpr int kRepsPerPass = 64;
  constexpr int kPairs = 9;
  std::vector<uint8_t> buffer(kBytes);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto& byte : buffer) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    byte = static_cast<uint8_t>(x);
  }
  CrcSpeed speed;
  speed.agree = store::Crc32(buffer) == BytewiseCrc32(buffer);
  // Keeps the compiler from dropping the timed loops.
  static volatile uint32_t sink = 0;
  const auto pass = [&](uint32_t (*crc)(std::span<const uint8_t>)) {
    const double before = bench::ProcessCpuMs();
    uint32_t acc = 0;
    for (int rep = 0; rep < kRepsPerPass; ++rep) acc ^= crc(buffer);
    sink = acc;
    return bench::ProcessCpuMs() - before;
  };
  std::vector<double> crc_ms, bytewise_ms, ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    double ours, theirs;
    if (pair % 2 == 0) {
      ours = pass(store::Crc32);
      theirs = pass(BytewiseCrc32);
    } else {
      theirs = pass(BytewiseCrc32);
      ours = pass(store::Crc32);
    }
    crc_ms.push_back(ours);
    bytewise_ms.push_back(theirs);
    ratios.push_back(theirs > 0 ? ours / theirs : 0);
  }
  const double pass_mb = kBytes * kRepsPerPass / 1e6;
  speed.crc32_mb_per_s = pass_mb / (bench::Median(crc_ms) / 1e3);
  speed.bytewise_mb_per_s = pass_mb / (bench::Median(bytewise_ms) / 1e3);
  speed.vs_bytewise_ratio = bench::Median(ratios);
  return speed;
}

}  // namespace

int main(int argc, char** argv) {
  size_t append_total = 8000;
  std::vector<size_t> fleet_sizes{100, 400, 1000};
  const char* out_path = "BENCH_store.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      append_total = 2000;
      fleet_sizes = {50, 100, 200};
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_store [--quick] [--out FILE]\n");
      return 2;
    }
  }
  constexpr size_t kThreads = 4;

  // --- Part 1: append throughput by sync policy -----------------------------
  std::printf("PART 1: WAL append throughput, %zu threads x %zu appends, "
              "64-byte records\n", kThreads, append_total / kThreads);
  struct ModeSpec {
    const char* name;
    store::SyncMode sync;
    uint32_t window_us;
  };
  const ModeSpec modes[] = {
      {"fsync-per-append", store::SyncMode::kEveryAppend, 0},
      {"group-commit", store::SyncMode::kGroupCommit, 0},
      {"group-commit", store::SyncMode::kGroupCommit, 200},
      {"group-commit", store::SyncMode::kGroupCommit, 1000},
      {"no-fsync", store::SyncMode::kNever, 0},
  };
  std::vector<AppendPoint> appends;
  bool all_intact = true;
  int index = 0;
  for (const auto& mode : modes) {
    store::WalOptions options;
    options.sync = mode.sync;
    options.group_commit_window_us = mode.window_us;
    AppendPoint point =
        BenchAppends(mode.name, options, kThreads, append_total, index++);
    all_intact = all_intact && point.intact;
    std::printf("  %-16s window %5u us  %9.0f appends/s  %s\n", point.mode.c_str(),
                point.window_us, point.appends_per_second,
                point.intact ? "(replay intact)" : "REPLAY DAMAGED");
    appends.push_back(point);
  }
  // Headline: what sharing fsyncs buys over paying one per record.
  const double group_commit_speedup =
      appends[0].appends_per_second > 0
          ? appends[1].appends_per_second / appends[0].appends_per_second
          : 0;
  std::printf("  group-commit over fsync-per-append: %.1fx %s\n\n",
              group_commit_speedup, all_intact ? "PASS" : "FAIL");

  // --- Part 2: cold-start recovery vs fleet size ----------------------------
  std::printf("PART 2: registry cold-start recovery vs fleet size\n");
  fleet::RegistryConfig config;
  config.key_config.domain = "bench.store.v1";
  std::vector<RecoveryPoint> recoveries;
  bool recovery_ok = true;
  for (size_t devices : fleet_sizes) {
    RecoveryPoint point;
    point.devices = devices;
    const std::string dir = FreshDir("recovery", index++);
    {
      fleet::DeviceRegistry registry(config);
      if (!registry.OpenStorage(dir).ok()) return 1;
      const fleet::GroupId group = registry.CreateGroup("bench");
      const auto start = std::chrono::steady_clock::now();
      for (size_t i = 0; i < devices; ++i) {
        if (!registry.Enroll(0xBE9C5000 + i, group).ok()) return 1;
      }
      point.enroll_ms = MillisecondsSince(start);
    }
    {
      // Cold start 1: replay the raw enrollment WAL.
      fleet::DeviceRegistry registry(config);
      if (!registry.OpenStorage(dir).ok()) return 1;
      const auto info = registry.storage_info();
      point.wal_recovery_ms = info.recovery_ms;
      recovery_ok = recovery_ok && info.devices_recovered == devices;
      if (!registry.Snapshot().ok()) return 1;  // compact for cold start 2
    }
    {
      // Cold start 2: load the snapshot (the log is now empty).
      fleet::DeviceRegistry registry(config);
      if (!registry.OpenStorage(dir).ok()) return 1;
      const auto info = registry.storage_info();
      point.snap_recovery_ms = info.recovery_ms;
      recovery_ok = recovery_ok && info.snapshot_loaded &&
                    info.devices_recovered == devices &&
                    info.wal_records_replayed == 0;
    }
    point.ratio = point.enroll_ms > 0
                      ? point.snap_recovery_ms / point.enroll_ms
                      : 0;
    std::printf("  %5zu devices  enroll %8.1f ms  recover(wal) %8.1f ms  "
                "recover(snap) %8.1f ms  ratio %.2f\n",
                devices, point.enroll_ms, point.wal_recovery_ms,
                point.snap_recovery_ms, point.ratio);
    recoveries.push_back(point);
    fs::remove_all(dir);
  }
  double max_ratio = 0;
  for (const auto& point : recoveries) {
    max_ratio = std::max(max_ratio, point.ratio);
  }
  // Recovery re-simulates enrollment, so it should cost about one
  // enrollment pass — flag anything past 3x as a recovery-path regression.
  const bool recovery_pass = recovery_ok && max_ratio < 3.0;
  std::printf("  worst recovery/enroll ratio: %.2f %s\n\n", max_ratio,
              recovery_pass ? "PASS" : "FAIL");

  // --- Part 3: durable writes per delivered target --------------------------
  constexpr size_t kCampaignDevices = 16;
  const double writes_per_delivery =
      DurableWritesPerDelivery(config, kCampaignDevices, index++);
  const bool campaign_pass = writes_per_delivery >= 0;
  std::printf("PART 3: journaled campaign over %zu durable devices\n"
              "  %.2f durable writes per delivered target %s\n\n",
              kCampaignDevices, writes_per_delivery,
              campaign_pass ? "PASS" : "FAIL");

  // --- Part 4: CRC-32 speed -------------------------------------------------
  const CrcSpeed crc = BenchCrc32();
  std::printf("PART 4: CRC-32 over a 64 KiB buffer\n"
              "  store::Crc32 %.0f MB/s, bytewise table %.0f MB/s, "
              "CPU-time ratio %.3f %s\n\n",
              crc.crc32_mb_per_s, crc.bytewise_mb_per_s,
              crc.vs_bytewise_ratio, crc.agree ? "PASS" : "FAIL");

  // --- JSON -----------------------------------------------------------------
  const bool pass = all_intact && recovery_pass && campaign_pass && crc.agree;
  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "store");
  json.Field("append_threads", kThreads);
  json.Field("append_total", append_total);
  json.Key("appends");
  json.BeginArray();
  for (const auto& point : appends) {
    json.BeginObject();
    json.Field("mode", point.mode);
    json.Field("window_us", point.window_us);
    json.Field("appends_per_second", point.appends_per_second);
    json.Field("records", point.records);
    json.Field("intact", point.intact);
    json.EndObject();
  }
  json.EndArray();
  json.Field("group_commit_speedup", group_commit_speedup);
  json.Key("recovery");
  json.BeginArray();
  for (const auto& point : recoveries) {
    json.BeginObject();
    json.Field("devices", point.devices);
    json.Field("enroll_ms", point.enroll_ms);
    json.Field("wal_recovery_ms", point.wal_recovery_ms);
    json.Field("snap_recovery_ms", point.snap_recovery_ms);
    json.Field("recovery_vs_enroll_ratio", point.ratio);
    json.EndObject();
  }
  json.EndArray();
  json.Field("recovery_max_ratio", max_ratio);
  json.Key("campaign");
  json.BeginObject();
  json.Field("devices", kCampaignDevices);
  json.Field("durable_writes_per_delivery", writes_per_delivery);
  json.EndObject();
  json.Key("crc32");
  json.BeginObject();
  json.Field("mb_per_s", crc.crc32_mb_per_s);
  json.Field("bytewise_mb_per_s", crc.bytewise_mb_per_s);
  json.Field("vs_bytewise_ratio", crc.vs_bytewise_ratio);
  json.EndObject();
  json.Field("pass", pass);
  json.EndObject();
  if (!json.WriteFile(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s\n", out_path);
  return pass ? 0 : 1;
}
