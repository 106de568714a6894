// Device-side update-agent economics: what a staged A/B apply costs,
// what a rollback costs, what the durable slot file adds on top of the
// image bytes, and how fast the chaos-soak's campaign loop turns over
// when every apply is a full stage/verify/flip/health cycle with crash
// injection in the mix.
//
// Headline metrics:
//
//   manifest.overhead_ratio   bytes of one slot record copy (header +
//                             payload) / stored image bytes.
//                             Deterministic (same sources, keys, and
//                             record framing on every host) and tightly
//                             gated: a record must stay a thin frame
//                             around the images, not a second copy of
//                             them.
//   manifest.file_vs_record_ratio
//                             slot file bytes / one record copy. The file
//                             holds two preallocated copies, so this is
//                             above 2 by design; deterministic and gated
//                             exactly, so the footprint cannot creep.
//   apply.durable_writes      durable-write requests (store_durable_writes)
//   rollback.durable_writes   per successful Apply (2: flip, commit) and
//                             per crash-rollback Recover() (1). Fully
//                             deterministic, tightly gated: the count is
//                             what sets the storage cost on any host.
//   apply.fsyncs              fsync/fdatasync syscalls (store_fsyncs) per
//   rollback.fsyncs           successful Apply and per crash-rollback
//                             Recover(), measured after two warm-up
//                             applies have created the slot file and
//                             filled both slots. Deterministic and gated
//                             exactly: a sync is what a write costs.
//   rollback.vs_apply_ratio   mean crash-rollback Recover() wall time vs
//                             mean successful Apply wall time. Both sides
//                             persist the manifest, so the ratio is
//                             machine-portable but fsync-noisy — gated
//                             generously. A rollback must never be an
//                             order of magnitude dearer than the apply it
//                             undoes.
//   soak.campaigns_per_second fleet campaign rounds (with agent applies
//                             and probabilistic crash injection) per
//                             second — reported for trend-watching, not
//                             gated (pure wall time).
//
//   bench_agent [--quick] [--out FILE]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "agent/update_agent.h"
#include "fleet/deployment_engine.h"
#include "fleet/package_cache.h"
#include "obs/metrics.h"
#include "support/bench_json.h"
#include "support/stopwatch.h"
#include "workloads/workloads.h"

using namespace eric;

namespace fs = std::filesystem;

int main(int argc, char** argv) {
  size_t devices = 16, apply_iters = 60, soak_rounds = 10;
  const char* out_path = "BENCH_agent.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      devices = 6;
      apply_iters = 20;
      soak_rounds = 4;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_agent [--quick] [--out FILE]\n");
      return 2;
    }
  }

  const fs::path work_dir =
      fs::temp_directory_path() / "eric-bench-agent";
  std::error_code ec;
  fs::remove_all(work_dir, ec);
  fs::create_directories(work_dir);

  // Real sealed wire images (the bytes an agent actually stores), built
  // once through the same cache the fleet path uses.
  const std::string v1 = workloads::MakeSyntheticRelease(3);
  const std::string v2 = workloads::MakeSyntheticRelease(5);
  fleet::RegistryConfig registry_config;
  registry_config.key_config.domain = "bench.agent.v1";
  fleet::DeviceRegistry registry(registry_config);
  const fleet::GroupId group = registry.CreateGroup("agent");
  std::vector<fleet::DeviceId> targets;
  for (size_t d = 0; d < devices; ++d) {
    auto id = registry.Enroll(0xA6E27000 + d, group);
    if (!id.ok()) {
      std::fprintf(stderr, "enroll failed: %s\n",
                   id.status().ToString().c_str());
      return 1;
    }
    targets.push_back(*id);
  }
  fleet::PackageCache cache;
  auto sealing = registry.SealingContextFor(targets.front());
  if (!sealing.ok()) return 1;
  auto v1_artifact = cache.GetOrBuild(v1, sealing->key, sealing->config,
                                      core::EncryptionPolicy::Full());
  auto v2_artifact = cache.GetOrBuild(v2, sealing->key, sealing->config,
                                      core::EncryptionPolicy::Full());
  if (!v1_artifact.ok() || !v2_artifact.ok()) return 1;
  const crypto::Sha256Digest key_fp =
      fleet::FingerprintKey(sealing->key);

  // --- apply latency: alternating versions, full staged cycle ---------
  const std::string manifest = (work_dir / "slots-bench.bin").string();
  agent::UpdateAgent agent(1, manifest);
  const auto healthy = [](std::span<const uint8_t>) { return Status::Ok(); };
  const obs::Counter& durable_writes =
      obs::MetricsRegistry::Global().GetCounter("store_durable_writes");
  const obs::Counter& fsyncs =
      obs::MetricsRegistry::Global().GetCounter("store_fsyncs");
  // Warm-up: the first apply creates the slot file and the second fills
  // the other slot, so every measured apply is the steady state.
  if (!agent.Apply((*v2_artifact)->wire, 2, key_fp, healthy).ok() ||
      !agent.Apply((*v1_artifact)->wire, 1, key_fp, healthy).ok()) {
    std::fprintf(stderr, "warm-up apply failed\n");
    return 1;
  }
  uint64_t apply_writes = 0, apply_syncs = 0;
  double apply_total_us = 0;
  for (size_t i = 0; i < apply_iters; ++i) {
    const auto& wire =
        i % 2 == 0 ? (*v1_artifact)->wire : (*v2_artifact)->wire;
    const uint64_t writes_before = durable_writes.value();
    const uint64_t syncs_before = fsyncs.value();
    const auto start = std::chrono::steady_clock::now();
    Status applied = agent.Apply(wire, 1 + i % 2, key_fp, healthy);
    apply_total_us += MicrosecondsSince(start);
    apply_writes += durable_writes.value() - writes_before;
    apply_syncs += fsyncs.value() - syncs_before;
    if (!applied.ok()) {
      std::fprintf(stderr, "apply failed: %s\n",
                   applied.ToString().c_str());
      return 1;
    }
  }
  const double apply_us = apply_total_us / apply_iters;

  // Manifest overhead while both slots hold an image — the steady state.
  const auto state = agent.state();
  const uint64_t image_bytes =
      state.slots[0].image_bytes + state.slots[1].image_bytes;
  const uint64_t record_bytes = agent.record_bytes();
  const uint64_t capacity_bytes = agent.copy_capacity();
  const uint64_t file_bytes = fs::file_size(manifest, ec);
  const double overhead_ratio =
      image_bytes == 0 ? 0.0
                       : static_cast<double>(record_bytes) /
                             static_cast<double>(image_bytes);
  const double file_vs_record_ratio =
      record_bytes == 0 ? 0.0
                        : static_cast<double>(file_bytes) /
                              static_cast<double>(record_bytes);

  // --- rollback latency: crash-after-flip, then the recovery path -----
  uint64_t rollback_writes = 0, rollback_syncs = 0;
  double rollback_total_us = 0;
  for (size_t i = 0; i < apply_iters; ++i) {
    agent.ArmCrash(agent::CrashPoint::kAfterFlip);
    const auto& wire =
        i % 2 == 0 ? (*v2_artifact)->wire : (*v1_artifact)->wire;
    if (agent.Apply(wire, 10 + i, key_fp, healthy).ok()) {
      std::fprintf(stderr, "armed crash did not fire\n");
      return 1;
    }
    const uint64_t writes_before = durable_writes.value();
    const uint64_t syncs_before = fsyncs.value();
    const auto start = std::chrono::steady_clock::now();
    Status recovered = agent.Recover();
    rollback_total_us += MicrosecondsSince(start);
    rollback_writes += durable_writes.value() - writes_before;
    rollback_syncs += fsyncs.value() - syncs_before;
    if (!recovered.ok()) {
      std::fprintf(stderr, "recover failed: %s\n",
                   recovered.ToString().c_str());
      return 1;
    }
  }
  const double rollback_us = rollback_total_us / apply_iters;
  const double apply_durable_writes =
      static_cast<double>(apply_writes) / apply_iters;
  const double rollback_durable_writes =
      static_cast<double>(rollback_writes) / apply_iters;
  const double apply_fsyncs = static_cast<double>(apply_syncs) / apply_iters;
  const double rollback_fsyncs =
      static_cast<double>(rollback_syncs) / apply_iters;
  const double rollback_vs_apply =
      apply_us == 0 ? 0.0 : rollback_us / apply_us;

  // --- soak-loop throughput: campaign rounds with chaos in the mix ----
  registry.SetAgentCrashInjection(0.05, 0xA6E27);
  fleet::DeploymentEngine engine(registry, cache);
  uint64_t soak_succeeded = 0, soak_targets = 0;
  const auto soak_start = std::chrono::steady_clock::now();
  for (size_t round = 0; round < soak_rounds; ++round) {
    fleet::CampaignConfig campaign;
    campaign.source = round % 2 == 0 ? v1 : v2;
    campaign.devices = targets;
    campaign.workers = 4;
    campaign.max_attempts = 3;  // crash injection needs retry headroom
    campaign.campaign_seed = 0xA6E20000ull + round;
    if (round > 0) {
      campaign.delta = true;
      campaign.delta_base_source = round % 2 == 0 ? v2 : v1;
    }
    auto report = engine.Run(campaign);
    if (!report.ok()) {
      std::fprintf(stderr, "soak round %zu failed: %s\n", round,
                   report.status().ToString().c_str());
      return 1;
    }
    soak_succeeded += report->succeeded;
    soak_targets += report->targets;
  }
  const double soak_wall_s =
      MicrosecondsSince(soak_start) / 1e6;
  const double campaigns_per_second =
      soak_wall_s == 0 ? 0.0 : static_cast<double>(soak_rounds) / soak_wall_s;

  uint64_t crash_recoveries = 0, rollbacks = 0;
  for (fleet::DeviceId id : targets) {
    auto inspection = registry.InspectAgent(id);
    if (!inspection.ok() || !inspection->active_crc_valid) {
      std::fprintf(stderr, "post-soak inspection failed for device %llu\n",
                   static_cast<unsigned long long>(id));
      return 1;
    }
    crash_recoveries += inspection->state.counters.crash_recoveries;
    rollbacks += inspection->state.counters.rollbacks;
  }

  const bool pass = overhead_ratio > 0 && overhead_ratio <= 1.25 &&
                    rollback_vs_apply <= 3.0 &&
                    soak_succeeded == soak_targets;

  std::printf("apply: %.1f us mean over %zu staged cycles (image %zu "
              "bytes), %.2f durable writes and %.2f fsyncs each\n",
              apply_us, apply_iters, (*v1_artifact)->wire.size(),
              apply_durable_writes, apply_fsyncs);
  std::printf("rollback: %.1f us mean crash-recovery (%.3fx apply), %.2f "
              "durable writes and %.2f fsyncs each\n",
              rollback_us, rollback_vs_apply, rollback_durable_writes,
              rollback_fsyncs);
  std::printf("manifest: %llu-byte record over %llu image bytes (%.3fx); "
              "file %llu bytes, two %llu-byte copies (%.3fx the record)\n",
              static_cast<unsigned long long>(record_bytes),
              static_cast<unsigned long long>(image_bytes), overhead_ratio,
              static_cast<unsigned long long>(file_bytes),
              static_cast<unsigned long long>(capacity_bytes),
              file_vs_record_ratio);
  std::printf("soak loop: %zu rounds x %zu devices in %.2f s (%.2f "
              "campaigns/s; %llu crash recoveries, %llu rollbacks)\n",
              soak_rounds, devices, soak_wall_s, campaigns_per_second,
              static_cast<unsigned long long>(crash_recoveries),
              static_cast<unsigned long long>(rollbacks));
  std::printf("%s\n", pass ? "PASS" : "FAIL");

  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "agent");
  json.Field("devices", devices);
  json.Field("apply_iters", apply_iters);
  json.Key("apply");
  json.BeginObject();
  json.Field("mean_us", apply_us);
  json.Field("image_bytes", (*v1_artifact)->wire.size());
  json.Field("durable_writes", apply_durable_writes);
  json.Field("fsyncs", apply_fsyncs);
  json.EndObject();
  json.Key("rollback");
  json.BeginObject();
  json.Field("mean_us", rollback_us);
  json.Field("vs_apply_ratio", rollback_vs_apply);
  json.Field("durable_writes", rollback_durable_writes);
  json.Field("fsyncs", rollback_fsyncs);
  json.EndObject();
  json.Key("manifest");
  json.BeginObject();
  json.Field("record_bytes", record_bytes);
  json.Field("capacity_bytes", capacity_bytes);
  json.Field("file_bytes", file_bytes);
  json.Field("image_bytes", image_bytes);
  json.Field("overhead_ratio", overhead_ratio);
  json.Field("file_vs_record_ratio", file_vs_record_ratio);
  json.EndObject();
  json.Key("soak");
  json.BeginObject();
  json.Field("rounds", soak_rounds);
  json.Field("campaigns_per_second", campaigns_per_second);
  json.Field("succeeded", soak_succeeded);
  json.Field("targets", soak_targets);
  json.Field("crash_recoveries", crash_recoveries);
  json.Field("rollbacks", rollbacks);
  json.EndObject();
  json.Field("pass", pass);
  json.EndObject();
  if (!json.WriteFile(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  fs::remove_all(work_dir, ec);
  return pass ? 0 : 1;
}
