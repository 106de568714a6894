// Delta-package economics: what patch deployment saves on the wire, and
// what patching costs against a cold seal.
//
// The deploy path's dominant fleet-scale cost for a small program change
// is re-shipping the full sealed image to every device. This bench pins
// the delta pipeline's numbers on a release pair that differs by one
// loop bound (a fraction of a percent of the instructions — the "small
// (<=5%) mutation" the pipeline exists for), plus an append-heavy pair
// (a whole new stage function) whose delta is several times bigger —
// reported, not gated, to keep the codec's worst direction visible.
//
// Headline metrics (deterministic, machine-portable, gated in CI):
//
//   wire.delta_vs_full_ratio   encoded delta bytes / full package bytes
//                              for the small mutation; acceptance <= 0.35.
//   campaign.bytes_ratio       bytes shipped by the delta campaign /
//                              what the same deliveries would have cost
//                              as full packages (equal to the wire ratio
//                              when every target patches).
//   campaign.delta_fraction    deliveries that went out as deltas.
//   campaign.address_sha256_blocks_per_target
//                              SHA-256 compressions the package cache
//                              spent deriving cache addresses
//                              (fleet_cache_address_sha256_blocks)
//                              during the delta campaign, per target.
//
// patch.vs_cold_seal_ratio (device-side ApplyDelta vs compile+seal from
// a cold cache) is wall-time based — reported for the README story, not
// gated.
//
//   bench_delta [--quick] [--out FILE]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fleet/deployment_engine.h"
#include "obs/metrics.h"
#include "pkg/delta.h"
#include "support/bench_json.h"
#include "support/stopwatch.h"
#include "workloads/workloads.h"

using namespace eric;

int main(int argc, char** argv) {
  size_t devices = 32, workers = 4;
  const char* out_path = "BENCH_delta.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      devices = 8;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_delta [--quick] [--out FILE]\n");
      return 2;
    }
  }

  // The shared synthetic release pair: one loop bound apart (small
  // mutation), plus the append-heavy variant.
  const std::string v1 = workloads::MakeSyntheticRelease(3);
  const std::string v2 = workloads::MakeSyntheticRelease(5);
  const std::string v2_append = workloads::MakeSyntheticRelease(3, true);

  fleet::RegistryConfig registry_config;
  registry_config.key_config.domain = "bench.delta.v1";
  fleet::DeviceRegistry registry(registry_config);
  const fleet::GroupId group = registry.CreateGroup("delta");
  std::vector<fleet::DeviceId> targets;
  for (size_t d = 0; d < devices; ++d) {
    auto id = registry.Enroll(0xDE17AB00 + d, group);
    if (!id.ok()) {
      std::fprintf(stderr, "enroll failed: %s\n",
                   id.status().ToString().c_str());
      return 1;
    }
    targets.push_back(*id);
  }

  fleet::PackageCache cache;
  fleet::DeploymentEngine engine(registry, cache);

  fleet::CampaignConfig campaign;
  campaign.source = v1;
  campaign.devices = targets;
  campaign.workers = workers;

  // Release v1 lands everywhere (cold: one compile, one seal).
  auto first = engine.Run(campaign);
  if (!first.ok() || first->succeeded != devices) {
    std::fprintf(stderr, "v1 campaign failed\n");
    return 1;
  }

  // The v2 delta campaign: every manifest matches, every target patches.
  fleet::CampaignConfig update = campaign;
  update.source = v2;
  update.delta = true;
  update.delta_base_source = v1;
  const obs::Counter& address_blocks =
      obs::MetricsRegistry::Global().GetCounter(
          "fleet_cache_address_sha256_blocks");
  const uint64_t address_blocks_before = address_blocks.value();
  auto second = engine.Run(update);
  const double address_blocks_per_target =
      static_cast<double>(address_blocks.value() - address_blocks_before) /
      static_cast<double>(devices);
  if (!second.ok() || second->succeeded != devices) {
    std::fprintf(stderr, "v2 delta campaign failed\n");
    return 1;
  }
  const double campaign_bytes_ratio =
      second->bytes_full_equivalent == 0
          ? 0.0
          : static_cast<double>(second->bytes_shipped) /
                static_cast<double>(second->bytes_full_equivalent);
  const double delta_fraction =
      second->deliveries == 0
          ? 0.0
          : static_cast<double>(second->delta_deliveries) /
                static_cast<double>(second->deliveries);

  // Codec-level numbers on the group key's sealed wires.
  auto sealing = registry.SealingContextFor(targets.front());
  if (!sealing.ok()) return 1;
  auto v1_artifact = cache.GetOrBuild(v1, sealing->key, sealing->config,
                                      campaign.policy);
  auto v2_artifact = cache.GetOrBuild(v2, sealing->key, sealing->config,
                                      campaign.policy);
  auto append_artifact = cache.GetOrBuild(v2_append, sealing->key,
                                          sealing->config, campaign.policy);
  if (!v1_artifact.ok() || !v2_artifact.ok() || !append_artifact.ok()) {
    return 1;
  }
  pkg::DeltaStats small_stats;
  const auto small_delta = pkg::EncodeDelta((*v1_artifact)->wire,
                                            (*v2_artifact)->wire,
                                            &small_stats);
  const double wire_ratio =
      static_cast<double>(small_delta.size()) /
      static_cast<double>((*v2_artifact)->wire.size());
  const auto append_delta = pkg::EncodeDelta((*v1_artifact)->wire,
                                             (*append_artifact)->wire);
  const double append_ratio =
      static_cast<double>(append_delta.size()) /
      static_cast<double>((*append_artifact)->wire.size());

  // Patch cost vs a cold seal: device-side ApplyDelta against the Fig 6
  // pipeline run from an empty cache.
  constexpr int kPatchIters = 200;
  const auto patch_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kPatchIters; ++i) {
    auto applied = pkg::ApplyDelta((*v1_artifact)->wire, small_delta);
    if (!applied.ok() || applied->size() != (*v2_artifact)->wire.size()) {
      std::fprintf(stderr, "patch round-trip failed\n");
      return 1;
    }
  }
  const double apply_us = MicrosecondsSince(patch_start) / kPatchIters;
  const auto seal_start = std::chrono::steady_clock::now();
  fleet::PackageCache cold_cache;
  auto cold = cold_cache.GetOrBuild(v2, sealing->key, sealing->config,
                                    campaign.policy);
  if (!cold.ok()) return 1;
  const double cold_seal_us = MicrosecondsSince(seal_start);
  const double patch_vs_cold =
      cold_seal_us == 0 ? 0.0 : apply_us / cold_seal_us;

  const bool pass = wire_ratio <= 0.35 && campaign_bytes_ratio <= 0.35 &&
                    second->delta_deliveries == devices &&
                    second->delta_fallbacks == 0 &&
                    second->succeeded == devices;

  std::printf("fleet: %zu devices, full package %zu bytes\n", devices,
              (*v2_artifact)->wire.size());
  std::printf("small mutation: delta %zu bytes (%.3fx full; %llu copy / "
              "%llu literal bytes)\n",
              small_delta.size(), wire_ratio,
              static_cast<unsigned long long>(small_stats.copy_bytes),
              static_cast<unsigned long long>(small_stats.literal_bytes));
  std::printf("append mutation: delta %zu bytes (%.3fx full — the "
              "worst-direction reference)\n",
              append_delta.size(), append_ratio);
  std::printf("campaign: %llu deltas / %llu full, %llu of %llu bytes "
              "shipped (%.3fx)\n",
              static_cast<unsigned long long>(second->delta_deliveries),
              static_cast<unsigned long long>(second->full_deliveries),
              static_cast<unsigned long long>(second->bytes_shipped),
              static_cast<unsigned long long>(second->bytes_full_equivalent),
              campaign_bytes_ratio);
  std::printf("campaign: %.2f cache-address SHA-256 blocks per target\n",
              address_blocks_per_target);
  std::printf("patch: %.1f us apply vs %.1f us cold compile+seal "
              "(%.3fx)\n", apply_us, cold_seal_us, patch_vs_cold);
  std::printf("%s\n", pass ? "PASS" : "FAIL");

  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "delta");
  json.Field("devices", devices);
  json.Key("wire");
  json.BeginObject();
  json.Field("full_bytes", (*v2_artifact)->wire.size());
  json.Field("delta_bytes", small_delta.size());
  json.Field("delta_vs_full_ratio", wire_ratio);
  json.Field("copy_bytes", small_stats.copy_bytes);
  json.Field("literal_bytes", small_stats.literal_bytes);
  json.EndObject();
  json.Key("campaign");
  json.BeginObject();
  json.Field("delta_deliveries", second->delta_deliveries);
  json.Field("full_deliveries", second->full_deliveries);
  json.Field("delta_fallbacks", second->delta_fallbacks);
  json.Field("bytes_shipped", second->bytes_shipped);
  json.Field("bytes_full_equivalent", second->bytes_full_equivalent);
  json.Field("bytes_ratio", campaign_bytes_ratio);
  json.Field("delta_fraction", delta_fraction);
  json.Field("address_sha256_blocks_per_target", address_blocks_per_target);
  json.EndObject();
  json.Key("append_mutation");
  json.BeginObject();
  json.Field("delta_bytes", append_delta.size());
  json.Field("delta_vs_full_ratio", append_ratio);
  json.EndObject();
  json.Key("patch");
  json.BeginObject();
  json.Field("apply_us", apply_us);
  json.Field("cold_seal_us", cold_seal_us);
  json.Field("vs_cold_seal_ratio", patch_vs_cold);
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
