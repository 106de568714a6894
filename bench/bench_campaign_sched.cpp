// Campaign scheduler overhead and throttling: waved vs flat rollouts.
//
// The scheduler buys safety (canary gates, bounded blast radius) and
// control (rate limits, concurrency budgets, pause/resume) on top of the
// engine. This bench prices that: at 1000 devices it runs the same
// campaign three ways and reports wall time and peak simultaneously
// in-flight deliveries —
//
//   flat       one wave, no limits: the engine's raw throughput, with a
//              governor attached only to observe the in-flight peak.
//   waved      canary cohort + rolling waves with a promotion gate after
//              every wave; the wave barriers are the cost of staged
//              rollout.
//   throttled  waved plus a token-bucket rate limit and a per-group
//              concurrency budget; peak in-flight must collapse to the
//              budget.
//
// The gated number prices one wave barrier, not the whole campaign: a
// barrier idles the workers that finish a wave early, a cost fixed per
// wave, so "waved over flat" as a share of the campaign moved whenever
// per-delivery work got cheaper. per_wave.overhead_rounds is the waved
// run's extra wall time per barrier in units of one flat delivery round
// (flat wall / ceil(devices / workers)). Both sides scale with the
// per-delivery time, so the ratio is machine-portable. Flat and waved run
// as paired, interleaved repetitions after a warm-up (the first campaign
// pays compile and seal); the median pair is the metric and half the
// interquartile range of the pairs is reported as its noise floor.
//
// Emits BENCH_campaign_sched.json for the perf-trajectory tooling.
//
//   bench_campaign_sched [--quick] [--devices N] [--out FILE]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "fleet/campaign_scheduler.h"
#include "support/bench_json.h"

using namespace eric;

namespace {

/// One mode's measurements.
struct ModeResult {
  const char* mode = "";
  double wall_ms = 0;
  size_t peak_in_flight = 0;
  size_t succeeded = 0;
  uint64_t deliveries = 0;
  size_t waves = 0;
};

/// Value at quantile `q` (nearest rank) of `values`.
double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return values[static_cast<size_t>(q * (values.size() - 1) + 0.5)];
}

}  // namespace

int main(int argc, char** argv) {
  size_t devices = 1000;
  const char* out_path = "BENCH_campaign_sched.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      devices = 200;
    } else if (std::strcmp(argv[i], "--devices") == 0 && i + 1 < argc) {
      devices = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_campaign_sched [--quick] [--devices N] "
                   "[--out FILE]\n");
      return 2;
    }
  }

  // A small program keeps per-device simulator time low, so the numbers
  // isolate scheduling behaviour rather than interpreter speed.
  const char* source = R"(
    fn main() {
      var sum = 0;
      var i = 1;
      while (i <= 32) { sum = sum + i * i; i = i + 1; }
      return sum;
    }
  )";
  constexpr uint32_t kLatencyUs = 2000;
  constexpr size_t kWorkers = 8;
  constexpr size_t kGroupBudget = 4;
  constexpr size_t kRepetitions = 7;
  const double throttle_rate = static_cast<double>(devices) * 2.5;

  fleet::RegistryConfig registry_config;
  registry_config.key_config.domain = "bench.campaign_sched.v1";
  fleet::DeviceRegistry registry(registry_config);
  const fleet::GroupId group = registry.CreateGroup("sched-bench");
  std::printf("enrolling %zu devices...\n", devices);
  for (size_t i = 0; i < devices; ++i) {
    auto id = registry.Enroll(0x5CED000 + i, group);
    if (!id.ok()) {
      std::fprintf(stderr, "enroll failed: %s\n",
                   id.status().ToString().c_str());
      return 1;
    }
  }
  fleet::PackageCache cache;
  fleet::DeploymentEngine engine(registry, cache);
  fleet::CampaignScheduler scheduler(engine, registry);

  fleet::CampaignConfig campaign;
  campaign.source = source;
  campaign.policy = core::EncryptionPolicy::PartialRandom(0.5);
  campaign.group = group;
  campaign.workers = kWorkers;
  campaign.delivery_latency_us = kLatencyUs;

  auto run_mode = [&](const char* mode,
                      const fleet::SchedulerConfig& policy) -> ModeResult {
    ModeResult result;
    result.mode = mode;
    auto report = scheduler.Run(campaign, policy);
    if (!report.ok() || report->succeeded != devices) {
      std::fprintf(stderr, "%s campaign failed\n", mode);
      return result;
    }
    result.wall_ms = report->wall_ms;
    result.peak_in_flight = report->peak_in_flight;
    result.succeeded = report->succeeded;
    result.deliveries = report->deliveries;
    result.waves = report->waves.size();
    std::printf("  %-10s %4zu wave%s  wall %8.1f ms  peak %2zu in flight  "
                "%zu/%zu ok\n",
                mode, result.waves, result.waves == 1 ? " " : "s",
                result.wall_ms, result.peak_in_flight, result.succeeded,
                devices);
    return result;
  };

  std::printf("campaign: %zu devices, %zu workers, %u us delivery latency, "
              "%zu paired flat/waved repetitions\n",
              devices, kWorkers, kLatencyUs, kRepetitions);

  fleet::SchedulerConfig flat_policy;  // one wave, observation only
  fleet::SchedulerConfig waved_policy;
  waved_policy.canary_size = devices / 25;
  waved_policy.canary_failure_threshold = 0.1;
  waved_policy.wave_size = devices / 8;
  waved_policy.wave_failure_threshold = 0.1;

  (void)run_mode("warm-up", flat_policy);
  const double rounds =
      static_cast<double>((devices + kWorkers - 1) / kWorkers);
  ModeResult flat, waved;
  bool paired_ok = true;
  std::vector<double> flat_walls, waved_walls, overhead_rounds;
  for (size_t rep = 0; rep < kRepetitions; ++rep) {
    // Alternate which mode runs first so slow host drift cancels.
    if (rep % 2 == 0) {
      flat = run_mode("flat", flat_policy);
      waved = run_mode("waved", waved_policy);
    } else {
      waved = run_mode("waved", waved_policy);
      flat = run_mode("flat", flat_policy);
    }
    if (flat.succeeded != devices || waved.succeeded != devices ||
        waved.waves < 2) {
      paired_ok = false;
      break;
    }
    const double round_ms = flat.wall_ms / rounds;
    flat_walls.push_back(flat.wall_ms);
    waved_walls.push_back(waved.wall_ms);
    overhead_rounds.push_back((waved.wall_ms - flat.wall_ms) /
                              static_cast<double>(waved.waves - 1) /
                              round_ms);
  }

  fleet::SchedulerConfig throttled_policy = waved_policy;
  throttled_policy.limits.dispatch_rate = throttle_rate;
  throttled_policy.limits.dispatch_burst = 8.0;
  throttled_policy.limits.group_concurrency = kGroupBudget;
  ModeResult throttled = run_mode("throttled", throttled_policy);

  const size_t barriers = waved.waves > 0 ? waved.waves - 1 : 0;
  double per_wave_rounds = 0, per_wave_noise = 0, overhead_pct = 0;
  double flat_median_ms = 0, waved_median_ms = 0;
  if (paired_ok) {
    per_wave_rounds = Quantile(overhead_rounds, 0.5);
    per_wave_noise = (Quantile(overhead_rounds, 0.75) -
                      Quantile(overhead_rounds, 0.25)) / 2;
    flat_median_ms = Quantile(flat_walls, 0.5);
    waved_median_ms = Quantile(waved_walls, 0.5);
    overhead_pct = (waved_median_ms - flat_median_ms) / flat_median_ms * 100;
  }
  std::printf("\nper wave barrier: %+.3f flat delivery rounds "
              "(noise +/- %.3f; %zu barriers)\n",
              per_wave_rounds, per_wave_noise, barriers);
  std::printf("wave overhead over flat: %+.1f%% (medians %.1f vs %.1f ms)\n",
              overhead_pct, waved_median_ms, flat_median_ms);
  std::printf("throttled peak in flight: %zu (budget %zu)\n",
              throttled.peak_in_flight, kGroupBudget);

  const bool pass = paired_ok && throttled.succeeded == devices &&
                    throttled.peak_in_flight <= kGroupBudget;
  std::printf("result: %s\n", pass ? "PASS" : "FAIL");

  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "campaign_sched");
  json.Field("devices", devices);
  json.Field("workers", kWorkers);
  json.Field("delivery_latency_us", kLatencyUs);
  json.Key("modes");
  json.BeginArray();
  for (const ModeResult* result : {&flat, &waved, &throttled}) {
    json.BeginObject();
    json.Field("mode", result->mode);
    json.Field("wall_ms", result->wall_ms);
    json.Field("peak_in_flight", result->peak_in_flight);
    json.Field("succeeded", result->succeeded);
    json.Field("deliveries", result->deliveries);
    json.Field("waves", result->waves);
    json.EndObject();
  }
  json.EndArray();
  json.Field("repetitions", kRepetitions);
  json.Key("per_wave");
  json.BeginObject();
  json.Field("barriers", barriers);
  json.Field("overhead_rounds", per_wave_rounds);
  json.Field("noise_rounds", per_wave_noise);
  json.EndObject();
  json.Field("wave_overhead_pct", overhead_pct);
  json.Field("throttle_rate_per_s", throttle_rate);
  json.Field("group_concurrency_budget", kGroupBudget);
  json.Field("pass", pass);
  json.EndObject();
  if (!json.WriteFile(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s\n", out_path);
  return pass ? 0 : 1;
}
