#include "obs/events.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "obs/export.h"
#include "support/bench_json.h"

namespace eric::obs {

namespace {

void CopyTruncated(char* dst, size_t dst_size, std::string_view src) {
  const size_t n = std::min(src.size(), dst_size - 1);
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

}  // namespace

std::string_view EventSeverityName(EventSeverity severity) {
  switch (severity) {
    case EventSeverity::kInfo: return "info";
    case EventSeverity::kWarn: return "warn";
    case EventSeverity::kError: return "error";
    case EventSeverity::kFatal: return "fatal";
  }
  return "unknown";
}

EventLog::EventLog(size_t capacity) {
  capacity_ = std::bit_ceil(std::max<size_t>(capacity, 2));
  slots_ = std::make_unique<Slot[]>(capacity_);
}

EventLog& EventLog::Global() {
  // Leaked for the same reason as MetricsRegistry::Global(): emitters
  // may run during static destruction.
  static EventLog* log = new EventLog();
  return *log;
}

void EventLog::Emit(EventSeverity severity, std::string_view subsystem,
                    std::string_view message, uint64_t device,
                    uint64_t campaign) {
  {
    std::lock_guard lock(mutex_);
    Slot& slot = slots_[head_++ & (capacity_ - 1)];
    slot.uptime_us = std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - epoch_)
                         .count();
    slot.severity = severity;
    slot.device = device;
    slot.campaign = campaign;
    CopyTruncated(slot.subsystem, kSubsystemBytes, subsystem);
    CopyTruncated(slot.message, kMessageBytes, message);
  }

  if (severity == EventSeverity::kFatal) {
    // The flight record is the black box: flush the ring while the
    // process still can. Failure is swallowed — the fatality that got
    // us here is already being reported through its own Status path.
    std::lock_guard lock(flight_mutex_);
    if (!flight_path_.empty()) {
      if (DumpFlightRecordLocked(flight_path_).ok()) {
        flight_records_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

uint64_t EventLog::appended() const {
  std::lock_guard lock(mutex_);
  return head_;
}

EventLog::Snapshot EventLog::Snap(size_t max_events) const {
  Snapshot snap;
  std::lock_guard lock(mutex_);
  snap.appended = head_;
  // Everything the ring wrapped over is lost; the caller's cap only
  // hides events, so it does not count as dropped.
  snap.dropped = head_ > capacity_ ? head_ - capacity_ : 0;
  uint64_t first = snap.dropped;
  if (max_events < head_ - first) first = head_ - max_events;
  snap.events.reserve(static_cast<size_t>(head_ - first));
  for (uint64_t index = first; index < head_; ++index) {
    const Slot& slot = slots_[index & (capacity_ - 1)];
    EventRecord& record = snap.events.emplace_back();
    record.seq = index + 1;
    record.uptime_us = slot.uptime_us;
    record.severity = slot.severity;
    record.device = slot.device;
    record.campaign = slot.campaign;
    record.subsystem = slot.subsystem;
    record.message = slot.message;
  }
  return snap;
}

void EventLog::SetFlightRecorderPath(std::string path) {
  std::lock_guard lock(flight_mutex_);
  flight_path_ = std::move(path);
}

Status EventLog::DumpFlightRecord(const std::string& path) const {
  std::lock_guard lock(flight_mutex_);
  return DumpFlightRecordLocked(path);
}

Status EventLog::DumpFlightRecordLocked(const std::string& path) const {
  JsonWriter json;
  json.BeginObject();
  json.Field("schema", "eric.events.v1");
  json.Key("events");
  WriteEventsJson(json, Snap(), capacity_);
  json.EndObject();
  return WriteFileAtomic(path, json.str() + "\n");
}

void WriteEventsJson(JsonWriter& json, const EventLog::Snapshot& snap,
                     size_t ring_capacity) {
  json.BeginObject();
  json.Field("ring_capacity", static_cast<uint64_t>(ring_capacity));
  json.Field("appended", snap.appended);
  json.Field("dropped", snap.dropped);
  json.Key("recent");
  json.BeginArray();
  for (const EventRecord& event : snap.events) {
    json.BeginObject();
    json.Field("seq", event.seq);
    json.Field("uptime_us", event.uptime_us);
    json.Field("severity", std::string(EventSeverityName(event.severity)));
    json.Field("subsystem", event.subsystem);
    json.Field("device", event.device);
    json.Field("campaign", event.campaign);
    json.Field("message", event.message);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
}

}  // namespace eric::obs
