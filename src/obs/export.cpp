#include "obs/export.h"

#include <chrono>
#include <cstdio>

#include "obs/events.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/fs_util.h"
#include "support/bench_json.h"

namespace eric::obs {

Status WriteFileAtomic(const std::string& path, const std::string& body) {
  return store::WriteFileAtomic(
      path, {reinterpret_cast<const uint8_t*>(body.data()), body.size()});
}

void WriteSnapshotJson(JsonWriter& json) {
  json.BeginObject();
  MetricsRegistry::Global().WriteJsonSections(json);
  json.Key("events");
  EventLog& events = EventLog::Global();
  WriteEventsJson(json, events.Snap(kSnapshotMaxEvents), events.capacity());
  json.Key("health");
  WriteGlobalHealthJson(json);
  json.EndObject();
}

Status WriteMetricsSnapshot(const std::string& json_path,
                            const std::string& prom_path) {
  if (!json_path.empty()) {
    JsonWriter json;
    WriteSnapshotJson(json);
    Status status = WriteFileAtomic(json_path, json.str() + "\n");
    if (!status.ok()) return status;
  }
  if (!prom_path.empty()) {
    Status status =
        WriteFileAtomic(prom_path, MetricsRegistry::Global().PrometheusText() +
                                       GlobalHealthPrometheusText());
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

Status MetricsExporter::Start(Options options) {
  if (running_) {
    return Status(ErrorCode::kFailedPrecondition, "exporter already running");
  }
  if (options.json_path.empty() && options.trace_path.empty()) {
    return Status(ErrorCode::kInvalidArgument, "exporter has nothing to do");
  }
  if (!options.json_path.empty() && options.prom_path.empty()) {
    options.prom_path = options.json_path + ".prom";
  }
  if (options.interval_seconds < 0.01) options.interval_seconds = 0.01;
  options_ = std::move(options);
  stop_requested_ = false;

  // First export inline so a bad path is the caller's error, and so a
  // snapshot exists before the campaign's first delivery completes.
  Status status = WriteMetricsSnapshot(options_.json_path, options_.prom_path);
  if (!status.ok()) return status;

  thread_ = std::thread([this] {
    for (;;) {
      {
        std::unique_lock lock(mutex_);
        cv_.wait_for(lock,
                     std::chrono::duration<double>(options_.interval_seconds),
                     [this] { return stop_requested_; });
        if (stop_requested_) return;
      }
      ExportOnce();
    }
  });
  running_ = true;
  return Status::Ok();
}

void MetricsExporter::Stop() {
  if (!running_) return;
  {
    std::lock_guard lock(mutex_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  running_ = false;
  ExportOnce();  // final flush: the complete end-of-run state
}

void MetricsExporter::ExportOnce() {
  // Failures mid-run are swallowed deliberately: losing one telemetry
  // tick (disk full, path racing a cleanup) must not kill a campaign.
  (void)WriteMetricsSnapshot(options_.json_path, options_.prom_path);
  if (!options_.trace_path.empty()) {
    (void)TraceCollector::Global().AppendJsonl(options_.trace_path);
  }
}

}  // namespace eric::obs
