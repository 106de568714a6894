// Key-epoch rotation cost: what invalidation and re-sealing actually
// charge, and what targeted invalidation saves the rest of the fleet.
//
// The paper's group-key mechanism makes every sealed artifact a function
// of (program, key, policy); a key-epoch bump therefore invalidates a
// whole group's artifacts at once. This bench measures the deployment
// story around that cliff:
//
//   cold      deployment across G groups from an empty cache — one
//             compile, G seals.
//   warm      immediate redeploy — every artifact served from cache.
//   rotate    RotationCampaign on ONE group: epoch bump + member KMU
//             re-provisioning, targeted invalidation (only that group's
//             artifacts drop), and the re-seal redeploy of the group.
//   hot check redeploy of the untouched groups — all cache hits, proving
//             targeted invalidation (vs Clear()) kept them hot.
//
// Headline ratios (machine-portable; both sides measured on this host):
//
//   invalidation.targeted_fraction   invalidated / resident artifacts —
//                                    deterministic, 1/G by construction.
//   reseal.vs_cold_ratio             rotated group's per-device redeploy
//                                    wall over the cold per-device wall,
//                                    each side the median of 9 runs;
//                                    < 1 because the compile cache (key-
//                                    independent) survives rotation.
//   untouched_groups.hit_rate        artifact hit rate of the hot check —
//                                    deterministically 1.0.
//   puf.noise_draws_per_regen        noise votes that ran the Box–Muller
//                                    math (puf_noise_draws) per PUF key
//                                    regeneration, the work a key bump
//                                    repeats per member, over a fixed set
//                                    of device seeds — deterministic.
//
// Emits BENCH_rotation.json for the perf-trajectory gate.
//
//   bench_rotation [--quick] [--out FILE]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fleet/rotation_campaign.h"
#include "obs/metrics.h"
#include "puf/puf_key_generator.h"
#include "support/bench_json.h"
#include "workloads/workloads.h"
#include "cpu_probe.h"

using namespace eric;

namespace {

struct Scale {
  size_t groups = 4;
  size_t devices_per_group = 16;
  size_t workers = 4;
};

// Each side of reseal.vs_cold_ratio is the median wall time of this
// many runs: under --quick one redeploy is a few ms of four workers'
// thread timing, and single runs spread the ratio by a third.
constexpr size_t kRepetitions = 9;

// Regenerates the PUF key of a fixed set of devices after enrollment and
// counts the noise votes that ran the Box–Muller math. Runs on one thread
// after every campaign has finished, so only these calls move the counter.
struct PufRegenWork {
  uint64_t regenerations = 0;
  uint64_t noise_draws = 0;
  uint64_t key_mismatches = 0;
};

PufRegenWork MeasurePufRegenWork() {
  constexpr uint64_t kDevices = 16;
  constexpr int kRegenerations = 4;
  const obs::Counter& draws =
      obs::MetricsRegistry::Global().GetCounter("puf_noise_draws");
  PufRegenWork work;
  for (uint64_t d = 0; d < kDevices; ++d) {
    const puf::PufKeyGenerator pkg(0xB00B5 + d);
    Xoshiro256 rng(0x4EA54E11ull ^ d);
    const auto enrollment = pkg.Enroll(rng);
    for (int r = 0; r < kRegenerations; ++r) {
      const uint64_t before = draws.value();
      const crypto::Key256 key = pkg.RegenerateKey(enrollment.helper, rng);
      work.noise_draws += draws.value() - before;
      work.key_mismatches += key != enrollment.key;
      ++work.regenerations;
    }
  }
  return work;
}

}  // namespace

int main(int argc, char** argv) {
  Scale scale;
  const char* out_path = "BENCH_rotation.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      scale.groups = 3;
      scale.devices_per_group = 6;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_rotation [--quick] [--out FILE]\n");
      return 2;
    }
  }

  const auto* workload = workloads::FindWorkload("crc32");
  if (workload == nullptr) {
    std::fprintf(stderr, "crc32 workload missing\n");
    return 1;
  }

  fleet::RegistryConfig registry_config;
  registry_config.key_config.domain = "bench.rotation.v1";
  fleet::DeviceRegistry registry(registry_config);
  std::vector<fleet::GroupId> groups;
  std::vector<fleet::DeviceId> all_devices;
  for (size_t g = 0; g < scale.groups; ++g) {
    groups.push_back(registry.CreateGroup("group-" + std::to_string(g)));
    for (size_t d = 0; d < scale.devices_per_group; ++d) {
      auto id = registry.Enroll(0xB00B5 + g * 1000 + d, groups.back());
      if (!id.ok()) {
        std::fprintf(stderr, "enroll failed: %s\n",
                     id.status().ToString().c_str());
        return 1;
      }
      all_devices.push_back(*id);
    }
  }

  fleet::PackageCache cache;
  fleet::DeploymentEngine engine(registry, cache);

  fleet::CampaignConfig campaign;
  campaign.source = workload->source;
  campaign.policy = core::EncryptionPolicy::PartialRandom(0.5);
  campaign.devices = all_devices;
  campaign.workers = scale.workers;

  fleet::RotationConfig rotation_config;
  rotation_config.group = groups.front();
  rotation_config.campaign = campaign;
  rotation_config.campaign.devices.clear();  // redeploy the group only
  fleet::RotationCampaign rotation(engine, registry, cache);

  // Cold deploys and rotations alternate, so both sides of the ratio see
  // the same host conditions. Each repetition runs
  //   cold    one compile, one seal per group, from an empty cache, then
  //   rotate  the first group and redeploy it under the new epoch: the
  //           compile cache survives, the group's artifact is re-sealed.
  // The first rotation's invalidation is the one reported; every
  // rotation must drop exactly that group's one artifact.
  std::vector<double> cold_wall_ms;
  std::vector<double> reseal_wall_ms;
  fleet::CampaignReport cold;
  std::vector<fleet::RotationReport> rotations;
  size_t artifacts_before = 0;
  bool rotations_ok = true;
  for (size_t rep = 0; rep < kRepetitions; ++rep) {
    cache.Clear();
    auto run = engine.Run(campaign);
    if (!run.ok() || run->succeeded != run->targets) {
      std::fprintf(stderr, "cold campaign failed\n");
      return 1;
    }
    cold = std::move(*run);
    cold_wall_ms.push_back(cold.wall_ms);
    if (rep == 0) artifacts_before = cache.Stats().artifact_entries;

    auto rotated = rotation.Run(rotation_config);
    if (!rotated.ok()) {
      std::fprintf(stderr, "rotation failed: %s\n",
                   rotated.status().ToString().c_str());
      return 1;
    }
    const auto& rollout = rotated->rollout;
    rotations_ok = rotations_ok && rollout.targets > 0 &&
                   rollout.succeeded == rollout.targets &&
                   rotated->members_rekeyed == scale.devices_per_group &&
                   rotated->artifacts_invalidated == 1;  // one policy, key
    reseal_wall_ms.push_back(rollout.wall_ms);
    rotations.push_back(std::move(*rotated));
  }
  // Warm: everything from cache, the rotated group's new artifact too.
  auto warm = engine.Run(campaign);
  if (!warm.ok() || warm->cache_artifact_misses != 0) {
    std::fprintf(stderr, "warm campaign missed the cache\n");
    return 1;
  }
  const fleet::RotationReport* rotated = &rotations.front();
  const auto& reseal = rotated->rollout;

  // Hot check: the untouched groups still hit (per-wave attribution via a
  // fresh campaign over everyone but the rotated group).
  fleet::CampaignConfig untouched = campaign;
  untouched.devices.clear();
  for (size_t g = 1; g < groups.size(); ++g) {
    auto members = registry.GroupMembers(groups[g]);
    if (!members.ok()) return 1;
    untouched.devices.insert(untouched.devices.end(), members->begin(),
                             members->end());
  }
  auto hot = engine.Run(untouched);
  if (!hot.ok()) return 1;
  const uint64_t hot_requests =
      hot->cache_artifact_hits + hot->cache_artifact_misses;
  const double hot_hit_rate =
      hot_requests == 0
          ? 0.0
          : static_cast<double>(hot->cache_artifact_hits) / hot_requests;

  const double cold_median_ms = bench::Median(cold_wall_ms);
  const double reseal_median_ms = bench::Median(reseal_wall_ms);
  const double cold_per_device =
      cold_median_ms / static_cast<double>(cold.targets);
  const double reseal_per_device =
      reseal.targets == 0
          ? 0.0
          : reseal_median_ms / static_cast<double>(reseal.targets);
  const double reseal_vs_cold_ratio =
      cold_per_device == 0 ? 0.0 : reseal_per_device / cold_per_device;
  const double targeted_fraction =
      artifacts_before == 0
          ? 0.0
          : static_cast<double>(rotated->artifacts_invalidated) /
                static_cast<double>(artifacts_before);

  const PufRegenWork puf_work = MeasurePufRegenWork();
  const double noise_draws_per_regen =
      static_cast<double>(puf_work.noise_draws) /
      static_cast<double>(puf_work.regenerations);

  const bool pass =
      puf_work.key_mismatches == 0 && rotations_ok &&
      hot->cache_artifact_misses == 0 &&  // targeted, not Clear()
      reseal_vs_cold_ratio < 3.0;

  std::printf("fleet: %zu groups x %zu devices\n", scale.groups,
              scale.devices_per_group);
  std::printf("cold:   %.1f ms median of %zu (%zu seals each), warm: %.1f ms "
              "(0 seals)\n",
              cold_median_ms, kRepetitions,
              static_cast<size_t>(cold.cache_artifact_misses), warm->wall_ms);
  std::printf("rotate: epoch %llu -> %llu, %zu members re-keyed in %.2f ms, "
              "%zu / %zu artifacts invalidated in %.3f ms\n",
              static_cast<unsigned long long>(rotated->old_epoch),
              static_cast<unsigned long long>(rotated->new_epoch),
              rotated->members_rekeyed, rotated->bump_ms,
              rotated->artifacts_invalidated, artifacts_before,
              rotated->invalidate_ms);
  std::printf("reseal: %.1f ms median of %zu for %zu targets (%.3f ms/device, "
              "%.2fx cold), untouched groups hit rate %.2f\n",
              reseal_median_ms, kRepetitions, reseal.targets,
              reseal_per_device,
              reseal_vs_cold_ratio, hot_hit_rate);
  std::printf("puf:    %.1f noise draws per key regeneration over %llu "
              "regenerations, %llu key mismatches\n",
              noise_draws_per_regen,
              static_cast<unsigned long long>(puf_work.regenerations),
              static_cast<unsigned long long>(puf_work.key_mismatches));
  std::printf("%s\n", pass ? "PASS" : "FAIL");

  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "rotation");
  json.Field("groups", scale.groups);
  json.Field("devices_per_group", scale.devices_per_group);
  json.Field("workers", scale.workers);
  json.Key("cold");
  json.BeginObject();
  json.Field("wall_ms", cold_median_ms);
  json.Field("seals", cold.cache_artifact_misses);
  json.Field("per_device_ms", cold_per_device);
  json.EndObject();
  json.Key("invalidation");
  json.BeginObject();
  json.Field("artifacts_before", artifacts_before);
  json.Field("artifacts_invalidated", rotated->artifacts_invalidated);
  json.Field("targeted_fraction", targeted_fraction);
  json.Field("invalidate_ms", rotated->invalidate_ms);
  json.Field("bump_ms", rotated->bump_ms);
  json.Field("members_rekeyed", rotated->members_rekeyed);
  json.EndObject();
  json.Key("reseal");
  json.BeginObject();
  json.Field("wall_ms", reseal_median_ms);
  json.Field("targets", reseal.targets);
  json.Field("per_device_ms", reseal_per_device);
  json.Field("vs_cold_ratio", reseal_vs_cold_ratio);
  json.EndObject();
  json.Key("untouched_groups");
  json.BeginObject();
  json.Field("targets", hot->targets);
  json.Field("hit_rate", hot_hit_rate);
  json.Field("misses", hot->cache_artifact_misses);
  json.EndObject();
  json.Key("puf");
  json.BeginObject();
  json.Field("regenerations", puf_work.regenerations);
  json.Field("noise_draws_per_regen", noise_draws_per_regen);
  json.Field("key_mismatches", puf_work.key_mismatches);
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
