// Structured event log: a bounded ring of fleet events (severity,
// subsystem, device/campaign ids, message) that the engine, agent,
// store, and channel feed on their failure paths, and that the exporter
// renders as the `events` snapshot section.
//
// Design constraints, in order:
//   1. Emitting stays cheap on a delivery worker: one mutex guards the
//      ring, held only to copy one fixed-size record in (Emit) or the
//      retained records out (Snap). Events are rare next to deliveries
//      (a fault path, not every step), so the lock is not contended.
//      When the ring wraps, the oldest events are overwritten and
//      counted as dropped — bounded memory beats a complete log on a
//      hot path.
//   2. Records are fixed-size (truncated messages, no allocation), so
//      an Emit is a lock, a few stores, and an unlock.
//   3. Fatal events are rare and precious: on a kFatal emit the log
//      dumps itself as a "flight record" JSON file (atomic write) so
//      the events leading up to a poisoned WAL or a dead journal
//      survive the process, whatever kills it next.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "support/status.h"

namespace eric {
class JsonWriter;
}  // namespace eric

namespace eric::obs {

/// Severity of a structured event, ordered least to most severe.
enum class EventSeverity : uint8_t {
  kInfo = 0,   ///< Lifecycle marker (campaign begun/finished).
  kWarn = 1,   ///< Degradation the system absorbed (fault, fallback).
  kError = 2,  ///< A target or component definitively failed.
  kFatal = 3,  ///< Durability is compromised; triggers the flight record.
};

/// Stable lowercase name of a severity ("info", "warn", "error",
/// "fatal") — the form used in snapshots and the flight record.
std::string_view EventSeverityName(EventSeverity severity);

/// One structured event as copied out of the ring by Snapshot().
struct EventRecord {
  /// Position in the process-wide emit order (starts at 1).
  uint64_t seq = 0;
  /// Microseconds since the event log's construction.
  double uptime_us = 0;
  /// Severity class of the event.
  EventSeverity severity = EventSeverity::kInfo;
  /// Emitting subsystem ("engine", "agent", "store", "net", "journal",
  /// "health"), truncated to the slot width.
  std::string subsystem;
  /// Device the event concerns; 0 when not device-bound.
  uint64_t device = 0;
  /// Campaign/trace id the event belongs to; 0 when none.
  uint64_t campaign = 0;
  /// Human-readable description, truncated to the slot width.
  std::string message;
};

/// Bounded ring of structured events. All methods are thread-safe and
/// serialize on one mutex.
class EventLog {
 public:
  /// Default ring capacity (power of two; events beyond it overwrite
  /// the oldest and count as dropped).
  static constexpr size_t kDefaultCapacity = 1024;
  /// Slot width for messages; longer messages are truncated, never
  /// rejected.
  static constexpr size_t kMessageBytes = 160;
  /// Slot width for subsystem names.
  static constexpr size_t kSubsystemBytes = 24;

  /// Constructs a ring with `capacity` slots (rounded up to a power of
  /// two, minimum 2).
  explicit EventLog(size_t capacity = kDefaultCapacity);

  /// The process-wide event log used by all instrumented subsystems.
  static EventLog& Global();

  /// Appends one event; when the ring is full the oldest event is
  /// overwritten. A kFatal severity additionally dumps the flight
  /// record if a path was configured.
  void Emit(EventSeverity severity, std::string_view subsystem,
            std::string_view message, uint64_t device = 0,
            uint64_t campaign = 0);

  /// Point-in-time copy of the ring contents and its loss accounting.
  struct Snapshot {
    /// Events ever appended (monotonic).
    uint64_t appended = 0;
    /// Events no longer readable: overwritten by ring wrap.
    uint64_t dropped = 0;
    /// Readable events, oldest first, seq strictly increasing.
    std::vector<EventRecord> events;
  };

  /// Copies out the most recent events (at most `max_events`), oldest
  /// first.
  Snapshot Snap(size_t max_events = SIZE_MAX) const;

  /// Total events ever appended.
  uint64_t appended() const;

  /// Ring capacity in slots.
  size_t capacity() const { return capacity_; }

  /// Sets (or clears, with "") the flight-record path. When set, every
  /// kFatal Emit atomically rewrites `path` with a JSON dump of the
  /// ring — the events leading up to the fatality.
  void SetFlightRecorderPath(std::string path);

  /// Writes the flight record (schema `eric.events.v1`) to `path` now,
  /// atomically. Used by the fatal path and by operators on demand.
  Status DumpFlightRecord(const std::string& path) const;

  /// Flight records written so far (for tests).
  uint64_t flight_records_written() const {
    return flight_records_.load(std::memory_order_relaxed);
  }

 private:
  /// The dump body; the caller holds flight_mutex_.
  Status DumpFlightRecordLocked(const std::string& path) const;

  // One fixed-size slot; the event with seq N lives in slot
  // (N - 1) mod capacity until a later event overwrites it.
  struct Slot {
    double uptime_us = 0;
    EventSeverity severity = EventSeverity::kInfo;
    uint64_t device = 0;
    uint64_t campaign = 0;
    char subsystem[kSubsystemBytes] = {};
    char message[kMessageBytes] = {};
  };

  size_t capacity_;
  mutable std::mutex mutex_;  ///< guards slots_ and head_
  std::unique_ptr<Slot[]> slots_;
  uint64_t head_ = 0;  ///< events ever appended
  std::atomic<uint64_t> flight_records_{0};
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();

  mutable std::mutex flight_mutex_;  ///< guards the path + dump serialization
  std::string flight_path_;
};

/// Renders an event snapshot as the `events` JSON section:
/// `{"ring_capacity":C,"appended":N,"dropped":D,"recent":[{seq,
/// uptime_us,severity,subsystem,device,campaign,message},...]}`.
/// Shared by the metrics exporter and the flight-record dump.
void WriteEventsJson(JsonWriter& json, const EventLog::Snapshot& snap,
                     size_t ring_capacity);

/// Appends one event to the global log — the one-liner the emitting
/// subsystems use.
inline void EmitEvent(EventSeverity severity, std::string_view subsystem,
                      std::string_view message, uint64_t device = 0,
                      uint64_t campaign = 0) {
  EventLog::Global().Emit(severity, subsystem, message, device, campaign);
}

}  // namespace eric::obs
