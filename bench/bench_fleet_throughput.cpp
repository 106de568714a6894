// Fleet throughput: the encrypt-once package cache vs naive per-device
// recompilation.
//
// The naive fleet loop (what the seed's fleet_deployment example did)
// re-runs compile + sign + encrypt + package for every device. With group
// keys the sealed artifact is byte-identical across the group, so the
// PackageCache does that work once and serves the rest from memory.
// Measured over a 1000-device single-group campaign; acceptance floor is
// 5x, expectation is orders of magnitude.
//
// Emits BENCH_fleet.json for the perf-trajectory tooling.
//
//   bench_fleet_throughput [--quick] [--devices N] [--out FILE]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/software_source.h"
#include "fleet/device_registry.h"
#include "fleet/package_cache.h"
#include "support/bench_json.h"
#include "support/stopwatch.h"
#include "workloads/workloads.h"

using namespace eric;

int main(int argc, char** argv) {
  size_t devices = 1000;
  const char* out_path = "BENCH_fleet.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      devices = 200;
    } else if (std::strcmp(argv[i], "--devices") == 0 && i + 1 < argc) {
      devices = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_fleet_throughput [--quick] [--devices N] "
                   "[--out FILE]\n");
      return 2;
    }
  }

  const auto* workload = workloads::FindWorkload("crc32");
  if (workload == nullptr) workload = &workloads::AllWorkloads().front();
  const auto policy = core::EncryptionPolicy::PartialRandom(0.5);

  // --- Enrollment -----------------------------------------------------------
  fleet::RegistryConfig registry_config;
  registry_config.key_config.domain = "bench.fleet.v1";
  fleet::DeviceRegistry registry(registry_config);
  const fleet::GroupId group = registry.CreateGroup("bench-fleet");

  std::printf("enrolling %zu devices into one group...\n", devices);
  const auto enroll_start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < devices; ++i) {
    auto id = registry.Enroll(0xBE9C000 + i, group);
    if (!id.ok()) {
      std::fprintf(stderr, "enroll failed: %s\n",
                   id.status().ToString().c_str());
      return 1;
    }
  }
  const double enroll_ms = MillisecondsSince(enroll_start);
  std::printf("enrolled in %.1f ms (%.0f devices/s)\n\n", enroll_ms,
              devices / (enroll_ms / 1000.0));

  auto group_key = registry.GroupKey(group);
  if (!group_key.ok()) return 1;

  // --- Naive per-device recompilation vs encrypt-once cache ----------------
  std::printf("seal-path throughput, %zu-device single-group campaign\n",
              devices);

  const auto naive_start = std::chrono::steady_clock::now();
  size_t naive_bytes = 0;
  core::SoftwareSource naive_source(*group_key, registry.key_config());
  for (size_t i = 0; i < devices; ++i) {
    auto built = naive_source.CompileAndPackage(workload->source, policy);
    if (!built.ok()) {
      std::fprintf(stderr, "naive build failed\n");
      return 1;
    }
    naive_bytes += pkg::Serialize(built->packaging.package).size();
  }
  const double naive_ms = MillisecondsSince(naive_start);

  fleet::PackageCache cache;
  const auto cached_start = std::chrono::steady_clock::now();
  size_t cached_bytes = 0;
  for (size_t i = 0; i < devices; ++i) {
    auto artifact = cache.GetOrBuild(workload->source, *group_key,
                                     registry.key_config(), policy);
    if (!artifact.ok()) {
      std::fprintf(stderr, "cached build failed\n");
      return 1;
    }
    cached_bytes += (*artifact)->wire.size();
  }
  const double cached_ms = MillisecondsSince(cached_start);
  const double speedup = naive_ms / cached_ms;
  const auto cache_stats = cache.Stats();

  std::printf("  naive:  %10.1f ms  (%.0f pkg/s, %zu bytes sealed)\n",
              naive_ms, devices / (naive_ms / 1000.0), naive_bytes);
  std::printf("  cached: %10.1f ms  (%.0f pkg/s, %llu hits / %llu misses)\n",
              cached_ms, devices / (cached_ms / 1000.0),
              static_cast<unsigned long long>(cache_stats.artifact_hits),
              static_cast<unsigned long long>(cache_stats.artifact_misses));
  std::printf("  speedup: %.1fx %s (acceptance floor: 5x)\n\n", speedup,
              speedup >= 5.0 ? "PASS" : "FAIL");

  // --- JSON -----------------------------------------------------------------
  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "fleet_throughput");
  json.Field("workload", workload->name);
  json.Field("policy", "partial-0.5");
  json.Field("devices", devices);
  json.Field("enroll_ms", enroll_ms);
  json.Key("seal_path");
  json.BeginObject();
  json.Field("naive_ms", naive_ms);
  json.Field("cached_ms", cached_ms);
  json.Field("speedup", speedup);
  json.Field("artifact_hits", cache_stats.artifact_hits);
  json.Field("artifact_misses", cache_stats.artifact_misses);
  json.Field("compile_misses", cache_stats.compile_misses);
  json.EndObject();
  json.Field("pass", speedup >= 5.0);
  json.EndObject();
  if (!json.WriteFile(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s\n", out_path);

  return speedup >= 5.0 ? 0 : 1;
}
