// Live export: periodic, crash-safe snapshots of the metrics registry
// (JSON + Prometheus text) and JSONL span flushing, driven by one
// background thread inside eric_fleetd.
//
// Snapshots are written atomically (tmp + rename + parent fsync), so a
// reader polling the file — or one that outlives a kill -9 — sees
// either the previous complete snapshot or the new complete snapshot,
// never a torn one. The trace JSONL is append-only; only its final
// line can be truncated by a crash.
#pragma once

#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include "support/status.h"

namespace eric {
class JsonWriter;
}  // namespace eric

namespace eric::obs {

/// Atomically replaces `path` with `body` (store::WriteFileAtomic):
/// readers see the old file or the new one, never a torn hybrid. Shared
/// by the exporter and the flight recorder.
Status WriteFileAtomic(const std::string& path, const std::string& body);

/// Most recent events included in a snapshot's `events` section (the
/// ring may hold more; the flight record dumps everything readable).
inline constexpr size_t kSnapshotMaxEvents = 256;

/// Writes the composed telemetry snapshot object into `json`: the
/// registry's `eric.metrics.v1` sections plus the `events` section
/// (global EventLog, capped at kSnapshotMaxEvents) and the `health`
/// section (the installed HealthMonitor, empty when none). This is the
/// one writer behind the exporter file, the flight path, and the
/// `telemetry` block in fleetd reports.
void WriteSnapshotJson(JsonWriter& json);

/// Writes one metrics snapshot of the global registry to `json_path`
/// atomically; when `prom_path` is non-empty, also writes the
/// Prometheus text rendering there (same atomicity), with the
/// installed health monitor's SLO gauges appended.
Status WriteMetricsSnapshot(const std::string& json_path,
                            const std::string& prom_path = std::string());

/// Background exporter thread: every interval it snapshots the global
/// MetricsRegistry and flushes the global TraceCollector. Stop() (or
/// destruction) performs one final export so short campaigns always
/// leave a complete snapshot behind.
class MetricsExporter {
 public:
  /// What and how often to export. Empty paths disable that output.
  struct Options {
    /// JSON snapshot path (written atomically every tick).
    std::string json_path;
    /// Prometheus text path; empty = derive as json_path + ".prom"
    /// when json_path is set.
    std::string prom_path;
    /// Trace JSONL path (spans appended every tick).
    std::string trace_path;
    /// Seconds between exports (clamped to >= 0.01).
    double interval_seconds = 1.0;
  };

  MetricsExporter() = default;
  /// Stops the exporter thread (with its final export) if running.
  ~MetricsExporter() { Stop(); }
  /// Non-copyable: the object owns a thread.
  MetricsExporter(const MetricsExporter&) = delete;
  /// Non-copyable: the object owns a thread.
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// Starts the exporter thread; fails if already running or if the
  /// first snapshot cannot be written (bad path fails fast, not on a
  /// background thread mid-campaign).
  Status Start(Options options);

  /// Stops the thread after one final export. Safe to call twice.
  void Stop();

  /// True between a successful Start() and Stop().
  bool running() const { return running_; }

 private:
  void ExportOnce();

  Options options_;
  std::thread thread_;
  bool running_ = false;
  // Stop signalling: plain mutex + cv so Stop() wakes the sleeper
  // immediately instead of waiting out the interval.
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
};

}  // namespace eric::obs
