// Observability tests: histogram percentiles against a sorted-vector
// oracle (property sweep over several duration distributions), the
// metrics registry hammered from many threads, trace-context
// propagation through a real faulty-channel campaign, and the snapshot
// exporter's on-disk artifacts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fleet/deployment_engine.h"
#include "fleet/dispatch_governor.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/bench_json.h"
#include "support/json_escape.h"

namespace eric::obs {
namespace {

// --- Histogram ---------------------------------------------------------------

TEST(HistogramTest, EmptySnapshot) {
  Histogram h;
  const auto snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.min_us, 0.0);
  EXPECT_EQ(snap.max_us, 0.0);
  EXPECT_EQ(snap.Percentile(0.5), 0.0);
  EXPECT_EQ(snap.Percentile(0.99), 0.0);
}

TEST(HistogramTest, SingleSampleIsEveryPercentile) {
  Histogram h;
  h.Record(123.0);  // microseconds
  const auto snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.min_us, 123.0);
  EXPECT_DOUBLE_EQ(snap.max_us, 123.0);
  // With min == max the clamp pins every quantile to the sample.
  EXPECT_DOUBLE_EQ(snap.Percentile(0.0), 123.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(0.5), 123.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(1.0), 123.0);
}

TEST(HistogramTest, NegativeAndZeroClampToBucketZero) {
  Histogram h;
  h.Record(-5.0);
  h.RecordNanos(0);
  const auto snap = h.Snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.max_us, 0.0);
  EXPECT_EQ(snap.Percentile(0.99), 0.0);
}

TEST(HistogramTest, BucketIndexIsBitWidthOfNanos) {
  Histogram h;
  const uint64_t samples[] = {1, 2, 3, 4, 7, 8, 1023, 1024};
  for (uint64_t ns : samples) h.RecordNanos(ns);
  const auto snap = h.Snapshot();
  std::vector<uint64_t> expected(Histogram::kBuckets, 0);
  for (uint64_t ns : samples) ++expected[std::bit_width(ns)];
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(snap.buckets[i], expected[i]) << "bucket " << i;
  }
}

TEST(HistogramTest, BucketUpperBoundsArePowersOfTwo) {
  // Bucket i's inclusive upper bound is (2^i - 1) ns; spot-check the
  // microsecond conversion the JSON snapshot publishes.
  EXPECT_DOUBLE_EQ(HistogramSnapshot::BucketUpperUs(0), 0.0);
  EXPECT_DOUBLE_EQ(HistogramSnapshot::BucketUpperUs(1), 0.001);
  EXPECT_DOUBLE_EQ(HistogramSnapshot::BucketUpperUs(11), 2.047);
}

// Rank-based oracle percentile matching the histogram's convention:
// rank = ceil(q * count), clamped to [1, count], 1-indexed into the
// sorted sample list.
double OraclePercentile(const std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted_us.size()));
  const size_t index = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(sorted_us.size())));
  return sorted_us[index - 1];
}

// Power-of-two buckets bound the relative quantile error by 2x: the
// estimate interpolates inside the bucket that holds the rank-th
// sample, and a bucket's bounds are within a factor of two.
void ExpectWithin2x(double estimate, double oracle_us) {
  EXPECT_GE(estimate, oracle_us / 2.0 - 1e-9);
  EXPECT_LE(estimate, oracle_us * 2.0 + 1e-9);
}

TEST(HistogramTest, PercentileSweepAgainstSortedOracle) {
  std::mt19937_64 rng(0xE41C0BDULL);
  struct Case {
    const char* name;
    std::function<uint64_t()> draw_ns;
  };
  std::uniform_int_distribution<uint64_t> uniform(0, 2'000'000);
  std::uniform_real_distribution<double> log_exp(0.0, 30.0);
  std::uniform_int_distribution<uint64_t> tiny(0, 3);
  const Case cases[] = {
      {"uniform_us", [&] { return uniform(rng); }},
      {"log_uniform", [&] { return static_cast<uint64_t>(
                                std::exp2(log_exp(rng))); }},
      {"mostly_zero", [&] { return tiny(rng) == 0 ? uniform(rng) : 0; }},
  };
  const double quantiles[] = {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0};

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Histogram h;
    std::vector<double> oracle_us;
    for (int i = 0; i < 5000; ++i) {
      const uint64_t ns = c.draw_ns();
      h.RecordNanos(ns);
      oracle_us.push_back(static_cast<double>(ns) / 1000.0);
    }
    std::sort(oracle_us.begin(), oracle_us.end());

    const auto snap = h.Snapshot();
    ASSERT_EQ(snap.count, oracle_us.size());
    uint64_t bucket_sum = 0;
    for (uint64_t b : snap.buckets) bucket_sum += b;
    EXPECT_EQ(bucket_sum, snap.count);
    EXPECT_DOUBLE_EQ(snap.min_us, oracle_us.front());
    EXPECT_DOUBLE_EQ(snap.max_us, oracle_us.back());

    double previous = -1.0;
    for (double q : quantiles) {
      SCOPED_TRACE(q);
      const double estimate = snap.Percentile(q);
      ExpectWithin2x(estimate, OraclePercentile(oracle_us, q));
      // Estimates are monotone in q and live inside [min, max].
      EXPECT_GE(estimate, previous);
      EXPECT_GE(estimate, snap.min_us);
      EXPECT_LE(estimate, snap.max_us);
      previous = estimate;
    }
  }
}

TEST(HistogramTest, ConcurrentRecordKeepsInvariants) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      std::mt19937_64 rng(0xBEEF + static_cast<uint64_t>(t));
      std::uniform_int_distribution<uint64_t> dist(0, 1'000'000);
      for (int i = 0; i < kPerThread; ++i) h.RecordNanos(dist(rng));
    });
  }
  for (auto& thread : threads) thread.join();

  const auto snap = h.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_sum = 0;
  for (uint64_t b : snap.buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, snap.count);
  EXPECT_LE(snap.min_us, snap.max_us);
  EXPECT_LE(snap.Percentile(0.5), snap.Percentile(0.99));
}

// --- Metric names ------------------------------------------------------------

TEST(MetricNameTest, ValidatesShape) {
  EXPECT_TRUE(IsValidMetricName("fleet_seal_us"));
  EXPECT_TRUE(IsValidMetricName("a"));
  EXPECT_TRUE(IsValidMetricName("x9_y"));
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("Fleet_seal"));   // uppercase
  EXPECT_FALSE(IsValidMetricName("_leading"));     // must start [a-z]
  EXPECT_FALSE(IsValidMetricName("9lives"));       // leading digit
  EXPECT_FALSE(IsValidMetricName("dotted.name"));  // no dots
  EXPECT_FALSE(IsValidMetricName(std::string(121, 'a')));
  EXPECT_TRUE(IsValidMetricName(std::string(120, 'a')));
}

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistryTest, SameNameReturnsSameInstrument) {
  auto& registry = MetricsRegistry::Global();
  EXPECT_EQ(&registry.GetCounter("obs_test_identity"),
            &registry.GetCounter("obs_test_identity"));
  EXPECT_EQ(&registry.GetHistogram("obs_test_identity_h"),
            &registry.GetHistogram("obs_test_identity_h"));
  EXPECT_EQ(&registry.GetGauge("obs_test_identity_g"),
            &registry.GetGauge("obs_test_identity_g"));
}

TEST(MetricsRegistryTest, ConcurrentLookupAndRecord) {
  auto& registry = MetricsRegistry::Global();
  constexpr int kThreads = 8;
  constexpr int kOps = 4000;
  // Fresh names per run: the global registry outlives this test, so the
  // assertion is over names only this test touches.
  const std::string prefix = "obs_test_hammer_";
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &prefix] {
      for (int i = 0; i < kOps; ++i) {
        // Resolve by name every iteration: the lookup path itself is
        // what this test hammers (ASan/UBSan cover the map + lock).
        registry.GetCounter(prefix + std::to_string(i % 5)).Add(1);
        registry.GetHistogram(prefix + "h").Record(static_cast<double>(i));
        registry.GetGauge(prefix + "g").Add(i % 2 == 0 ? 1 : -1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  uint64_t total = 0;
  for (int i = 0; i < 5; ++i) {
    total += registry.GetCounter(prefix + std::to_string(i)).value();
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * kOps);
  EXPECT_EQ(registry.GetHistogram(prefix + "h").count(),
            static_cast<uint64_t>(kThreads) * kOps);
  EXPECT_EQ(registry.GetGauge(prefix + "g").value(), 0);
}

TEST(MetricsRegistryTest, JsonSnapshotCarriesSchemaAndInstruments) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("obs_test_json_counter").Add(7);
  registry.GetHistogram("obs_test_json_hist").Record(42.0);

  JsonWriter json;
  registry.WriteJson(json);
  const std::string text = json.str();
  EXPECT_NE(text.find("\"schema\":\"eric.metrics.v1\""), std::string::npos);
  EXPECT_NE(text.find("\"obs_test_json_counter\""), std::string::npos);
  EXPECT_NE(text.find("\"obs_test_json_hist\""), std::string::npos);
  EXPECT_NE(text.find("\"p99_us\""), std::string::npos);
  // Sequence numbers strictly increase across snapshots.
  JsonWriter second;
  registry.WriteJson(second);
  EXPECT_NE(second.str(), text);
}

TEST(MetricsRegistryTest, PrometheusTextListsInstruments) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("obs_test_prom_counter").Add(1);
  registry.GetHistogram("obs_test_prom_hist").Record(10.0);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# TYPE obs_test_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_hist{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_hist_count"), std::string::npos);
}

// --- Trace collector ---------------------------------------------------------

TEST(TraceTest, SpanIsInertWhenDisabled) {
  auto& collector = TraceCollector::Global();
  collector.Disable();
  (void)collector.Drain();
  TraceScope scope(collector.BeginTrace(), 0);
  ScopedSpan span("inert");
  EXPECT_FALSE(span.active());
  EXPECT_EQ(span.span_id(), 0u);
}

TEST(TraceTest, SpanIsInertWithoutThreadContext) {
  auto& collector = TraceCollector::Global();
  collector.Enable();
  (void)collector.Drain();
  ScopedSpan span("no_context");  // no TraceScope installed
  EXPECT_FALSE(span.active());
  collector.Disable();
  EXPECT_TRUE(collector.Drain().empty());
}

TEST(TraceTest, NestedSpansFormAParentChain) {
  auto& collector = TraceCollector::Global();
  collector.Enable();
  (void)collector.Drain();
  const uint64_t trace = collector.BeginTrace();

  uint64_t outer_id = 0;
  {
    TraceScope scope(trace, /*parent_span=*/7);
    ScopedSpan outer("outer");
    ASSERT_TRUE(outer.active());
    outer_id = outer.span_id();
    EXPECT_EQ(CurrentParentSpanId(), outer_id);
    {
      ScopedSpan inner("inner");
      EXPECT_EQ(CurrentParentSpanId(), inner.span_id());
      inner.set_ok(false);
    }
    EXPECT_EQ(CurrentParentSpanId(), outer_id);
  }
  EXPECT_EQ(CurrentTraceId(), 0u);  // scope restored

  auto spans = collector.Drain();
  collector.Disable();
  ASSERT_EQ(spans.size(), 2u);  // inner emits first (destruction order)
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].parent_id, outer_id);
  EXPECT_FALSE(spans[0].ok);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].parent_id, 7u);
  EXPECT_TRUE(spans[1].ok);
  for (const auto& span : spans) {
    EXPECT_EQ(span.trace_id, trace);
    EXPECT_GE(span.duration_us, 0.0);
  }
}

TEST(TraceTest, BufferOverflowDropsAndCounts) {
  auto& collector = TraceCollector::Global();
  collector.Enable(/*max_spans=*/2);
  (void)collector.Drain();
  const uint64_t dropped_before = collector.spans_dropped();
  for (int i = 0; i < 5; ++i) {
    SpanRecord record;
    record.trace_id = 1;
    record.span_id = static_cast<uint64_t>(i + 1);
    record.name = "overflow";
    collector.Emit(std::move(record));
  }
  auto spans = collector.Drain();
  collector.Disable();
  EXPECT_EQ(spans.size(), 2u);
  EXPECT_EQ(collector.spans_dropped() - dropped_before, 3u);
}

// --- Span propagation through a real campaign --------------------------------

constexpr const char* kTraceProgram = R"(
  fn main() {
    var sum = 0;
    var i = 1;
    while (i <= 10) { sum = sum + i * i; i = i + 1; }
    return sum;
  }
)";

TEST(TraceCampaignTest, FaultyCampaignSpansReconstructDeliveryTree) {
  auto& collector = TraceCollector::Global();
  collector.Enable();
  (void)collector.Drain();

  fleet::DeviceRegistry registry;
  const fleet::GroupId group = registry.CreateGroup("traced");
  std::vector<fleet::DeviceId> devices;
  for (int i = 0; i < 6; ++i) {
    auto id = registry.Enroll(0x7A0 + static_cast<uint64_t>(i), group);
    ASSERT_TRUE(id.ok());
    devices.push_back(*id);
  }

  fleet::PackageCache cache;
  fleet::DeploymentEngine engine(registry, cache);
  fleet::CampaignConfig config;
  config.source = kTraceProgram;
  config.devices = devices;
  config.workers = 3;
  config.max_attempts = 4;
  config.channel.fault = net::ChannelFault::kRandomBitFlips;
  config.fault_rate = 0.5;

  auto report = engine.Run(config);
  auto spans = collector.Drain();
  collector.Disable();
  ASSERT_TRUE(report.ok());
  ASSERT_NE(report->trace_id, 0u);

  // Every span belongs to this campaign's trace, with unique ids.
  std::set<uint64_t> span_ids;
  for (const auto& span : spans) {
    EXPECT_EQ(span.trace_id, report->trace_id);
    EXPECT_TRUE(span_ids.insert(span.span_id).second);
  }

  auto ids_of = [&](const char* name) {
    std::set<uint64_t> ids;
    for (const auto& span : spans) {
      if (span.name == name) ids.insert(span.span_id);
    }
    return ids;
  };
  auto spans_of = [&](const char* name) {
    std::vector<const SpanRecord*> out;
    for (const auto& span : spans) {
      if (span.name == name) out.push_back(&span);
    }
    return out;
  };

  // One root: the campaign span, parented at 0.
  const auto campaigns = spans_of("campaign");
  ASSERT_EQ(campaigns.size(), 1u);
  EXPECT_EQ(campaigns[0]->parent_id, 0u);
  const uint64_t campaign_span = campaigns[0]->span_id;

  // One target span per device, all children of the campaign span.
  const auto targets = spans_of("target");
  EXPECT_EQ(targets.size(), devices.size());
  std::set<uint64_t> target_devices;
  for (const auto* span : targets) {
    EXPECT_EQ(span->parent_id, campaign_span);
    target_devices.insert(span->device);
  }
  EXPECT_EQ(target_devices.size(), devices.size());

  // Delivery attempts hang off targets; channel round-trips hang off
  // delivery attempts. Counts tie back to the campaign report.
  const auto target_ids = ids_of("target");
  const auto deliver_spans = spans_of("deliver");
  EXPECT_EQ(deliver_spans.size(), report->deliveries);
  size_t failed_attempts = 0;
  for (const auto* span : deliver_spans) {
    EXPECT_TRUE(target_ids.count(span->parent_id)) << "orphan deliver span";
    if (!span->ok) ++failed_attempts;
  }
  // Each delivered target's final attempt is its only ok one; failed
  // targets never produce an ok attempt.
  EXPECT_EQ(failed_attempts, report->deliveries - report->succeeded);

  const auto deliver_ids = ids_of("deliver");
  const auto channels = spans_of("channel");
  EXPECT_EQ(channels.size(), report->deliveries);
  for (const auto* span : channels) {
    EXPECT_TRUE(deliver_ids.count(span->parent_id)) << "orphan channel span";
  }

  // The encrypt-once cache compiles once and seals once (one group, one
  // key), inside some target's span tree.
  EXPECT_EQ(spans_of("compile").size(), 1u);
  EXPECT_EQ(spans_of("seal").size(), 1u);

  // Timing sanity: children start no earlier than the campaign root.
  for (const auto& span : spans) {
    if (span.span_id == campaign_span) continue;
    EXPECT_GE(span.start_us + 1e-3, campaigns[0]->start_us);
  }
}

// --- Export ------------------------------------------------------------------

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ExportTest, SnapshotWritesJsonAndPrometheusAtomically) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("obs_test_export_counter").Add(3);

  const std::string dir = ::testing::TempDir();
  const std::string json_path = dir + "/obs_test_metrics.json";
  const std::string prom_path = dir + "/obs_test_metrics.prom";
  ASSERT_TRUE(WriteMetricsSnapshot(json_path, prom_path).ok());

  const std::string json = ReadWholeFile(json_path);
  EXPECT_NE(json.find("eric.metrics.v1"), std::string::npos);
  EXPECT_NE(json.find("obs_test_export_counter"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  const std::string prom = ReadWholeFile(prom_path);
  EXPECT_NE(prom.find("obs_test_export_counter"), std::string::npos);
  // No leftover temp file: the write is tmp + rename.
  EXPECT_FALSE(std::ifstream(json_path + ".tmp").good());

  std::remove(json_path.c_str());
  std::remove(prom_path.c_str());
}

TEST(ExportTest, SnapshotFailsOnUnwritablePath) {
  EXPECT_FALSE(
      WriteMetricsSnapshot("/nonexistent-dir/obs_test/metrics.json").ok());
}

TEST(ExportTest, TraceJsonlAppendsOneObjectPerSpan) {
  auto& collector = TraceCollector::Global();
  collector.Enable();
  (void)collector.Drain();
  {
    TraceScope scope(collector.BeginTrace(), 0);
    ScopedSpan a("jsonl_a");
    ScopedSpan b("jsonl_b");
  }
  const std::string path = ::testing::TempDir() + "/obs_test_spans.jsonl";
  std::remove(path.c_str());
  ASSERT_TRUE(collector.AppendJsonl(path).ok());
  collector.Disable();

  const std::string text = ReadWholeFile(path);
  size_t lines = 0;
  for (char c : text) lines += c == '\n';
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(text.find("\"name\":\"jsonl_a\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"jsonl_b\""), std::string::npos);
  EXPECT_NE(text.find("\"ok\":true"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ExportTest, ExporterTicksAndFinalFlushes) {
  auto& registry = MetricsRegistry::Global();
  auto& ticker = registry.GetCounter("obs_test_exporter_ticks");

  const std::string path = ::testing::TempDir() + "/obs_test_live.json";
  MetricsExporter exporter;
  MetricsExporter::Options options;
  options.json_path = path;
  options.interval_seconds = 0.01;
  ASSERT_TRUE(exporter.Start(options).ok());
  EXPECT_TRUE(exporter.running());
  // Double start is refused while running.
  EXPECT_FALSE(exporter.Start(options).ok());

  ticker.Add(41);
  exporter.Stop();
  EXPECT_FALSE(exporter.running());

  // The final flush sees everything recorded before Stop().
  const std::string json = ReadWholeFile(path);
  EXPECT_NE(json.find("\"obs_test_exporter_ticks\":41"), std::string::npos);
  std::remove(path.c_str());
  std::remove((path + ".prom").c_str());
}

// --- Structured event log ----------------------------------------------------

TEST(EventLogTest, EmitRoundTripsAndTruncates) {
  EventLog log(8);
  log.Emit(EventSeverity::kWarn, "engine", "hello", 7, 42);
  const std::string longest(500, 'x');
  log.Emit(EventSeverity::kError, "a-subsystem-name-longer-than-the-field",
           longest);
  const auto snap = log.Snap();
  ASSERT_EQ(snap.events.size(), 2u);
  EXPECT_EQ(snap.appended, 2u);
  EXPECT_EQ(snap.dropped, 0u);
  EXPECT_EQ(snap.events[0].seq, 1u);
  EXPECT_EQ(snap.events[0].severity, EventSeverity::kWarn);
  EXPECT_EQ(snap.events[0].subsystem, "engine");
  EXPECT_EQ(snap.events[0].message, "hello");
  EXPECT_EQ(snap.events[0].device, 7u);
  EXPECT_EQ(snap.events[0].campaign, 42u);
  EXPECT_GE(snap.events[1].uptime_us, snap.events[0].uptime_us);
  // Fixed-width slots truncate, never overflow.
  EXPECT_EQ(snap.events[1].subsystem.size(), EventLog::kSubsystemBytes - 1);
  EXPECT_EQ(snap.events[1].message.size(), EventLog::kMessageBytes - 1);
  EXPECT_EQ(snap.events[1].message, longest.substr(0, EventLog::kMessageBytes - 1));
}

TEST(EventLogTest, OverflowKeepsNewestAndCountsDrops) {
  EventLog log(8);
  for (int i = 0; i < 20; ++i) {
    log.Emit(EventSeverity::kInfo, "t", "event " + std::to_string(i));
  }
  const auto snap = log.Snap();
  EXPECT_EQ(snap.appended, 20u);
  EXPECT_LE(snap.events.size(), 8u);
  EXPECT_EQ(snap.dropped, snap.appended - snap.events.size());
  // Only the newest ring-capacity worth of events survives, in order.
  uint64_t previous_seq = 12;  // 20 - 8
  for (const EventRecord& event : snap.events) {
    EXPECT_GT(event.seq, previous_seq);
    previous_seq = event.seq;
  }
}

TEST(EventLogTest, SnapCapIsNotCountedAsLoss) {
  EventLog log(16);
  for (int i = 0; i < 10; ++i) {
    log.Emit(EventSeverity::kInfo, "t", "e");
  }
  const auto capped = log.Snap(3);
  EXPECT_EQ(capped.events.size(), 3u);
  EXPECT_EQ(capped.events.back().seq, 10u);
  // The caller's cap hides events; it does not lose them.
  EXPECT_EQ(capped.dropped, 0u);
}

TEST(EventLogTest, EightThreadHammerNeverTearsARecord) {
  EventLog log(64);
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        // device/campaign/message all encode (thread, i): a torn record
        // shows up as a cross-field mismatch below.
        log.Emit(EventSeverity::kInfo, "hammer",
                 "t" + std::to_string(t) + "-i" + std::to_string(i),
                 static_cast<uint64_t>(t), i);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(log.appended(), kThreads * kPerThread);
  const auto snap = log.Snap();
  EXPECT_EQ(snap.appended, kThreads * kPerThread);
  EXPECT_LE(snap.events.size(), 64u);
  EXPECT_EQ(snap.dropped, snap.appended - snap.events.size());
  uint64_t previous_seq = 0;
  for (const EventRecord& event : snap.events) {
    EXPECT_GT(event.seq, previous_seq);  // strictly ordered, no duplicates
    previous_seq = event.seq;
    EXPECT_LT(event.device, static_cast<uint64_t>(kThreads));
    EXPECT_LT(event.campaign, kPerThread);
    EXPECT_EQ(event.subsystem, "hammer");
    EXPECT_EQ(event.message, "t" + std::to_string(event.device) + "-i" +
                                 std::to_string(event.campaign))
        << "torn record at seq " << event.seq;
  }
}

TEST(EventLogTest, SnapWhileFourThreadsEmitNeverTearsARecord) {
  // The exporter thread snapshots the global log while delivery workers
  // emit into it; every copied record must be whole and in order.
  EventLog log(64);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 2000;
  std::atomic<int> running{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, &running, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        log.Emit(EventSeverity::kInfo, "hammer",
                 "t" + std::to_string(t) + "-i" + std::to_string(i),
                 static_cast<uint64_t>(t), i);
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  size_t snaps = 0;
  while (running.load(std::memory_order_acquire) > 0 || snaps == 0) {
    const auto snap = log.Snap();
    ++snaps;
    uint64_t previous_seq = 0;
    for (const EventRecord& event : snap.events) {
      ASSERT_GT(event.seq, previous_seq);
      previous_seq = event.seq;
      ASSERT_LT(event.device, static_cast<uint64_t>(kThreads));
      ASSERT_EQ(event.subsystem, "hammer");
      ASSERT_EQ(event.message, "t" + std::to_string(event.device) + "-i" +
                                   std::to_string(event.campaign))
          << "torn record at seq " << event.seq;
    }
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(log.appended(), kThreads * kPerThread);
}

TEST(EventLogTest, FatalEmitDumpsFlightRecord) {
  EventLog log(16);
  log.Emit(EventSeverity::kWarn, "net", "prelude");
  const std::string path = ::testing::TempDir() + "/obs_test_flight.json";
  std::remove(path.c_str());
  log.SetFlightRecorderPath(path);
  EXPECT_EQ(log.flight_records_written(), 0u);
  log.Emit(EventSeverity::kFatal, "store", "wal poisoned (test)");
  EXPECT_EQ(log.flight_records_written(), 1u);
  const std::string flight = ReadWholeFile(path);
  EXPECT_NE(flight.find("eric.events.v1"), std::string::npos);
  EXPECT_NE(flight.find("wal poisoned (test)"), std::string::npos);
  EXPECT_NE(flight.find("prelude"), std::string::npos);
  EXPECT_NE(flight.find("\"severity\":\"fatal\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(EventLogTest, HostileMessageBytesStayEscapedInJson) {
  EventLog log(8);
  // Quotes, backslash, newline, a control byte, and a non-UTF8 byte.
  const std::string hostile = std::string("he said \"no\\go\"\nctl:") +
                              char(0x01) + "hi:" + char(0xFF);
  log.Emit(EventSeverity::kError, "net", hostile);
  JsonWriter json;
  WriteEventsJson(json, log.Snap(), log.capacity());
  const std::string text = json.str();
  EXPECT_NE(text.find("he said \\\"no\\\\go\\\"\\nctl:"), std::string::npos);
  EXPECT_NE(text.find("\\u0001"), std::string::npos);
  // The raw newline and control byte must not survive into the document.
  EXPECT_EQ(text.find('\n'), std::string::npos);
  EXPECT_EQ(text.find(char(0x01)), std::string::npos);
  // Non-UTF8 high bytes pass through opaquely (escaping is for structure).
  EXPECT_NE(text.find(char(0xFF)), std::string::npos);
}

TEST(EscapeTest, PromLabelEscapesStructuralBytes) {
  std::string out;
  AppendPromLabelEscaped(out, "a\"b\\c\nd");
  EXPECT_EQ(out, "a\\\"b\\\\c\\nd");
  EXPECT_EQ(PromLabelQuoted("x\"y"), "\"x\\\"y\"");
}

// --- SLO spec grammar ---------------------------------------------------------

TEST(SloSpecTest, ParsesFullRatioGrammar) {
  auto spec = ParseSloSpec(
      "failures=ratio(fleet_delivery_failures,fleet_delivery_attempts)"
      "<0.05@30s:pause;min=10");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name, "failures");
  EXPECT_EQ(spec->kind, SloKind::kRatio);
  EXPECT_EQ(spec->metric, "fleet_delivery_failures");
  EXPECT_EQ(spec->denominator, "fleet_delivery_attempts");
  EXPECT_DOUBLE_EQ(spec->threshold, 0.05);
  EXPECT_DOUBLE_EQ(spec->window_seconds, 30.0);
  EXPECT_EQ(spec->policy, BreachPolicy::kPause);
  EXPECT_EQ(spec->min_count, 10u);
}

TEST(SloSpecTest, DefaultsNamePolicyAndMin) {
  auto spec = ParseSloSpec("rate(agent_rollbacks)<2.5@30");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name, "agent_rollbacks_rate");
  EXPECT_EQ(spec->kind, SloKind::kRate);
  EXPECT_EQ(spec->policy, BreachPolicy::kLog);
  EXPECT_EQ(spec->min_count, 1u);
  EXPECT_DOUBLE_EQ(spec->window_seconds, 30.0);
}

TEST(SloSpecTest, ParsesQuantileKind) {
  auto spec = ParseSloSpec("p99(fleet_delivery_us)<50000@60s:abort");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->kind, SloKind::kQuantile);
  EXPECT_DOUBLE_EQ(spec->quantile, 0.99);
  EXPECT_EQ(spec->name, "fleet_delivery_us_p99");
  EXPECT_EQ(spec->policy, BreachPolicy::kAbort);
}

TEST(SloSpecTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",                                      // nothing
      "ratio(a,b)",                            // no threshold
      "ratio(a)<0.1@30s",                      // ratio needs a denominator
      "blend(a)<0.1@30s",                      // unknown kind
      "p0(a)<1@30s",                           // quantile out of range
      "p100(a)<1@30s",                         // quantile out of range
      "rate(a)<0@30s",                         // threshold must be > 0
      "rate(a)<-1@30s",                        // threshold must be > 0
      "rate(a)<1@0s",                          // window must be > 0
      "rate(a)<1@30s:detonate",                // unknown policy
      "rate(a)<1@30s;min=0",                   // min >= 1
      "rate(a)<1@30s;min=1.5",                 // min integral
      "rate(a)<1@30sXtrailing",                // trailing garbage
      "rate(bad name!)<1@30s",                 // invalid metric name
      "=rate(a)<1@30s",                        // empty name
      "ratio(a,b)<nan@30s",                    // a NaN threshold never breaches
      "ratio(a,b)<inf@30s",                    // threshold must be finite
      "ratio(a,b)<0.1@nans",                   // window must be finite
      "ratio(a,b)<0.1@infs",                   // window must be finite
      "pnan(h)<5@10s",                         // quantile must be finite
      "rate(a)<1@1s;min=1e30",                 // min must fit uint64_t
      "rate(a)<1@1s;min=inf",                  // min must be finite
  };
  for (const char* text : bad) {
    EXPECT_FALSE(ParseSloSpec(text).ok()) << "accepted: " << text;
  }
}

TEST(SloSpecTest, FormatRoundTripsThroughParse) {
  auto original = ParseSloSpec(
      "lat=p95(fleet_delivery_us)<2500@45s:pause;min=20");
  ASSERT_TRUE(original.ok());
  auto reparsed = ParseSloSpec(FormatSloSpec(*original));
  ASSERT_TRUE(reparsed.ok()) << FormatSloSpec(*original);
  EXPECT_EQ(reparsed->name, original->name);
  EXPECT_EQ(reparsed->kind, original->kind);
  EXPECT_EQ(reparsed->metric, original->metric);
  EXPECT_DOUBLE_EQ(reparsed->quantile, original->quantile);
  EXPECT_DOUBLE_EQ(reparsed->threshold, original->threshold);
  EXPECT_DOUBLE_EQ(reparsed->window_seconds, original->window_seconds);
  EXPECT_EQ(reparsed->policy, original->policy);
  EXPECT_EQ(reparsed->min_count, original->min_count);
}

TEST(SloSpecTest, LargestMinCountRoundTrips) {
  // The largest double below 2^64 still fits uint64_t exactly.
  auto spec = ParseSloSpec("rate(a)<1@1s;min=18446744073709549568");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->min_count, 18446744073709549568ull);
  auto reparsed = ParseSloSpec(FormatSloSpec(*spec));
  ASSERT_TRUE(reparsed.ok()) << FormatSloSpec(*spec);
  EXPECT_EQ(reparsed->min_count, spec->min_count);
}

// --- Windowed burn-rate math (hand-computed oracles) --------------------------

SloSpec RatioSpec(double threshold, double window, uint64_t min_count = 1) {
  SloSpec spec;
  spec.name = "test_ratio";
  spec.kind = SloKind::kRatio;
  spec.metric = "num";
  spec.denominator = "den";
  spec.threshold = threshold;
  spec.window_seconds = window;
  spec.min_count = min_count;
  return spec;
}

TEST(SloWindowTest, RatioBurnRateAgainstHandComputedSequence) {
  SloWindow window(RatioSpec(/*threshold=*/0.1, /*window=*/10.0));
  // t=0: baseline 0 failures / 0 attempts.
  auto state = window.Update(0.0, 0.0, 0.0);
  EXPECT_FALSE(state.breached);
  EXPECT_DOUBLE_EQ(state.observed, 0.0);
  // t=2: 2 failures over 40 attempts -> 0.05, half the budget.
  state = window.Update(2.0, 2.0, 40.0);
  EXPECT_DOUBLE_EQ(state.observed, 0.05);
  EXPECT_DOUBLE_EQ(state.burn_rate, 0.5);
  EXPECT_EQ(state.window_count, 40u);
  EXPECT_FALSE(state.breached);
  // t=4: 12 failures over 80 attempts -> 0.15, 1.5x budget. Breach.
  state = window.Update(4.0, 12.0, 80.0);
  EXPECT_DOUBLE_EQ(state.observed, 0.15);
  EXPECT_DOUBLE_EQ(state.burn_rate, 1.5);
  EXPECT_TRUE(state.breached);
}

TEST(SloWindowTest, OldSamplesRollOffTheWindow) {
  SloWindow window(RatioSpec(0.1, 10.0));
  (void)window.Update(0.0, 10.0, 100.0);   // an ugly past...
  (void)window.Update(5.0, 10.0, 100.0);   // ...that went quiet
  (void)window.Update(12.0, 10.0, 100.0);
  // t=16: the t=0 and t=5 samples are out of the 10s window; the
  // baseline is t=5 (the youngest sample at-or-before window start is
  // kept as the delta base)... actually t=5 <= 16-10=6, so t=5 drops
  // too and t=12 is the baseline. Delta vs t=12: 1 failure / 2 attempts.
  auto state = window.Update(16.0, 11.0, 102.0);
  EXPECT_DOUBLE_EQ(state.observed, 0.5);
  EXPECT_EQ(state.window_count, 2u);
  EXPECT_TRUE(state.breached);
}

TEST(SloWindowTest, CounterResetClearsTheWindow) {
  SloWindow window(RatioSpec(0.1, 30.0));
  (void)window.Update(0.0, 5.0, 50.0);
  (void)window.Update(1.0, 6.0, 60.0);
  // The process restarted: totals went backwards. The window must
  // restart at this sample instead of producing negative deltas.
  auto state = window.Update(2.0, 0.0, 3.0);
  EXPECT_DOUBLE_EQ(state.observed, 0.0);
  EXPECT_EQ(state.window_count, 0u);
  EXPECT_FALSE(state.breached);
  // Deltas rebuild from the post-reset baseline.
  state = window.Update(3.0, 2.0, 13.0);
  EXPECT_DOUBLE_EQ(state.observed, 0.2);
  EXPECT_EQ(state.window_count, 10u);
  EXPECT_TRUE(state.breached);
}

TEST(SloWindowTest, RateIsDeltaOverElapsed) {
  SloSpec spec;
  spec.name = "test_rate";
  spec.kind = SloKind::kRate;
  spec.metric = "num";
  spec.threshold = 4.0;
  spec.window_seconds = 60.0;
  SloWindow window(spec);
  (void)window.Update(0.0, 100.0);
  auto state = window.Update(2.0, 110.0);  // 10 events / 2 s
  EXPECT_DOUBLE_EQ(state.observed, 5.0);
  EXPECT_DOUBLE_EQ(state.burn_rate, 1.25);
  EXPECT_EQ(state.window_count, 10u);
  EXPECT_TRUE(state.breached);
}

TEST(SloWindowTest, MinCountGatesTheBreach) {
  SloWindow window(RatioSpec(0.1, 30.0, /*min_count=*/20));
  (void)window.Update(0.0, 0.0, 0.0);
  // 100% failure but only 5 attempts: not enough evidence to breach.
  auto state = window.Update(1.0, 5.0, 5.0);
  EXPECT_DOUBLE_EQ(state.observed, 1.0);
  EXPECT_FALSE(state.breached);
  // The 20th attempt arrives; now it breaches.
  state = window.Update(2.0, 20.0, 20.0);
  EXPECT_EQ(state.window_count, 20u);
  EXPECT_TRUE(state.breached);
}

TEST(SloWindowTest, QuantileOverWindowedBucketDeltas) {
  SloSpec spec;
  spec.name = "test_p50";
  spec.kind = SloKind::kQuantile;
  spec.metric = "lat";
  spec.quantile = 0.5;
  spec.threshold = 1000.0;
  spec.window_seconds = 60.0;
  SloWindow window(spec);
  // Build cumulative bucket arrays through a real Histogram so the
  // bucket layout matches what the monitor feeds from the registry.
  Histogram histogram;
  for (int i = 0; i < 100; ++i) histogram.Record(10.0);  // 10 us
  (void)window.UpdateBuckets(0.0, histogram.Snapshot().buckets);
  // The window's population is the *new* samples only: 100 at ~5000 us.
  for (int i = 0; i < 100; ++i) histogram.Record(5000.0);
  auto state = window.UpdateBuckets(1.0, histogram.Snapshot().buckets);
  EXPECT_EQ(state.window_count, 100u);
  // p50 of the delta population lies in the 5000 us sample's bucket,
  // nowhere near the pre-window 10 us samples.
  EXPECT_GT(state.observed, 1000.0);
  EXPECT_TRUE(state.breached);
  EXPECT_GT(state.burn_rate, 1.0);
}

// --- HealthMonitor ------------------------------------------------------------

TEST(HealthMonitorTest, BreachLatchesAndFiresActionOnce) {
  auto& registry = MetricsRegistry::Global();
  auto& failures = registry.GetCounter("obs_test_hm_failures");
  auto& attempts = registry.GetCounter("obs_test_hm_attempts");

  SloSpec spec;
  spec.name = "obs_test_hm";
  spec.kind = SloKind::kRatio;
  spec.metric = "obs_test_hm_failures";
  spec.denominator = "obs_test_hm_attempts";
  spec.threshold = 0.2;
  spec.window_seconds = 600.0;  // nothing rolls off mid-test
  spec.min_count = 5;
  spec.policy = BreachPolicy::kPause;

  HealthMonitor monitor;
  ASSERT_TRUE(monitor.AddSlo(spec).ok());
  EXPECT_FALSE(monitor.AddSlo(spec).ok());  // duplicate name refused
  std::vector<BreachInfo> breaches;
  monitor.SetBreachAction(
      [&](const BreachInfo& info) { breaches.push_back(info); });

  monitor.EvaluateNow();  // baseline
  attempts.Add(10);
  failures.Add(1);  // 0.1 <= 0.2: healthy
  monitor.EvaluateNow();
  EXPECT_TRUE(breaches.empty());

  attempts.Add(10);
  failures.Add(9);  // window now 10/20 = 0.5 > 0.2: breach
  monitor.EvaluateNow();
  ASSERT_EQ(breaches.size(), 1u);
  EXPECT_EQ(breaches[0].slo_name, "obs_test_hm");
  EXPECT_EQ(breaches[0].policy, BreachPolicy::kPause);
  EXPECT_DOUBLE_EQ(breaches[0].observed, 0.5);
  EXPECT_DOUBLE_EQ(breaches[0].burn_rate, 2.5);
  EXPECT_EQ(breaches[0].window_count, 20u);

  // Still breached, but the action is latched: it fired once.
  failures.Add(5);
  attempts.Add(5);
  monitor.EvaluateNow();
  EXPECT_EQ(breaches.size(), 1u);

  const auto reports = monitor.Report();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].state.breached);
  EXPECT_TRUE(reports[0].latched);
  EXPECT_GE(monitor.evaluations(), 4u);
}

TEST(HealthMonitorTest, JsonAndPrometheusRenderEscapedSloReport) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("obs_test_hm2_total").Add(3);

  SloSpec spec;
  // A hostile display name: quotes, backslash, newline. The API accepts
  // any non-empty name; both renderers must keep the documents well
  // formed anyway.
  spec.name = "evil \"quoted\\name\"\nwith newline";
  spec.kind = SloKind::kRate;
  spec.metric = "obs_test_hm2_total";
  spec.threshold = 100.0;
  spec.window_seconds = 60.0;
  HealthMonitor monitor;
  ASSERT_TRUE(monitor.AddSlo(spec).ok());
  monitor.EvaluateNow();

  JsonWriter json;
  monitor.WriteJson(json);
  const std::string text = json.str();
  EXPECT_NE(text.find("\"evaluations\":"), std::string::npos);
  EXPECT_NE(text.find("evil \\\"quoted\\\\name\\\"\\nwith newline"),
            std::string::npos);
  EXPECT_EQ(text.find('\n'), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"rate\""), std::string::npos);
  EXPECT_NE(text.find("\"policy\":\"log\""), std::string::npos);

  const std::string prom = monitor.PrometheusText();
  EXPECT_NE(prom.find("# TYPE eric_slo_burn_rate gauge"), std::string::npos);
  EXPECT_NE(prom.find("slo=\"evil \\\"quoted\\\\name\\\"\\nwith newline\""),
            std::string::npos);

  // Install/uninstall: the global renderers follow the live monitor.
  SetGlobalHealthMonitor(&monitor);
  EXPECT_NE(GlobalHealthPrometheusText().find("eric_slo_observed"),
            std::string::npos);
  SetGlobalHealthMonitor(nullptr);
  EXPECT_EQ(GlobalHealthPrometheusText(), "");
  JsonWriter empty;
  WriteGlobalHealthJson(empty);
  EXPECT_EQ(empty.str(), "{\"evaluations\":0,\"slos\":[]}");
}

// --- The closed loop: a live campaign auto-paused by an SLO breach ------------

TEST(HealthMonitorTest, FaultyCampaignIsAutoPausedByBreach) {
  fleet::DeviceRegistry registry;
  const fleet::GroupId group = registry.CreateGroup("watched");
  std::vector<fleet::DeviceId> devices;
  for (int i = 0; i < 12; ++i) {
    auto id = registry.Enroll(0x7B0 + static_cast<uint64_t>(i), group);
    ASSERT_TRUE(id.ok());
    devices.push_back(*id);
  }

  fleet::PackageCache cache;
  fleet::DeploymentEngine engine(registry, cache);
  fleet::CampaignConfig config;
  config.source = kTraceProgram;
  config.devices = devices;
  config.workers = 1;  // serial: the watchdog acts mid-campaign
  config.max_attempts = 1;
  config.channel.fault = net::ChannelFault::kRandomBitFlips;
  config.fault_rate = 1.0;  // every delivery fails: ratio pins at 1.0
  config.delivery_latency_us = 30000;

  fleet::CampaignControl control;
  fleet::DispatchGovernor governor({}, &control);
  config.governor = &governor;

  SloSpec spec;
  spec.name = "campaign_failures";
  spec.kind = SloKind::kRatio;
  spec.metric = "fleet_delivery_failures";
  spec.denominator = "fleet_delivery_attempts";
  spec.threshold = 0.05;
  spec.window_seconds = 30.0;
  spec.min_count = 2;
  spec.policy = BreachPolicy::kPause;

  HealthMonitor monitor;
  ASSERT_TRUE(monitor.AddSlo(spec).ok());
  std::atomic<int> breaches{0};
  monitor.SetBreachAction([&](const BreachInfo& info) {
    EXPECT_EQ(info.policy, BreachPolicy::kPause);
    breaches.fetch_add(1);
    control.Pause();
  });
  ASSERT_TRUE(monitor.Start(/*interval_seconds=*/0.01).ok());

  // Un-wedge the paused campaign once the pause is observed: cancelling
  // releases the dispatch gate and finalizes the remaining targets as
  // skipped — exactly what a daemon operator's kill does, minus the -9.
  std::thread unwedger([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!control.paused() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(control.paused()) << "watchdog never paused the campaign";
    control.Cancel();
  });

  auto report = engine.Run(config);
  unwedger.join();
  monitor.Stop();
  ASSERT_TRUE(report.ok());

  // The breach fired, paused dispatch, and the cancel finalized the
  // rest as skipped: the watchdog stopped a live campaign mid-flight.
  EXPECT_EQ(breaches.load(), 1);
  EXPECT_GT(report->skipped, 0u)
      << "campaign ran to completion before the watchdog acted";
  EXPECT_LT(report->failed + report->succeeded, devices.size());
  EXPECT_EQ(report->succeeded, 0u);  // fault rate 1.0, single attempt
}

}  // namespace
}  // namespace eric::obs
