// Append-only write-ahead log with CRC32-framed records.
//
// The durability primitive under every piece of fleet state: the
// registry's mutations and the campaign checkpoints each own one of
// these. The contract is the classic WAL one —
//
//   append    a record is appended and, per the sync policy, made
//             durable before Append() returns. Appends are thread-safe.
//   replay    on startup the file is scanned front to back; every record
//             whose frame CRC verifies is handed to the caller in order.
//   torn tail a crash can leave a partially written (or, on a bad disk,
//             corrupted) final region. Replay detects it via the length
//             field and the CRC, truncates the file back to the last
//             good record, and reports what was dropped — recovery never
//             propagates bytes that were not durably framed.
//
// Group commit: with SyncMode::kGroupCommit, concurrent appenders share
// fsyncs. The first waiter becomes the batch leader, optionally sleeps a
// configurable window to gather more writes, then issues one fsync that
// covers every record written before it; followers just wait for the
// leader's sync to cover their sequence number. bench_store measures what
// the window buys at several settings.
//
// File layout:
//
//   header   "ERICWAL1" magic (8 bytes) | u64 fingerprint
//   record   u32 payload_len | u8 type | u32 crc32(type || payload) | payload
//
// The fingerprint binds a log to the configuration that wrote it (e.g.
// the registry's key-derivation parameters); opening with
// a different fingerprint fails instead of replaying records into a
// registry that would derive different keys.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <condition_variable>
#include <span>
#include <string>
#include <vector>

#include "support/status.h"

namespace eric::store {

/// CRC32 (IEEE 802.3, reflected, init/final 0xFFFFFFFF) over `data`.
/// The framing checksum for WAL records and snapshot payloads.
uint32_t Crc32(std::span<const uint8_t> data);

/// Continues a CRC32 across buffers, zlib-style:
/// `Crc32Extend(Crc32(a), b) == Crc32(a ‖ b)`, and `Crc32Extend(0, a)
/// == Crc32(a)` — so multi-part frames checksum without concatenating.
uint32_t Crc32Extend(uint32_t crc, std::span<const uint8_t> data);

/// When an Append becomes durable.
enum class SyncMode : uint8_t {
  kNever,        ///< never fsync (OS page cache only; fastest, weakest)
  kEveryAppend,  ///< fsync per record (strongest, serializes appenders)
  kGroupCommit,  ///< one fsync covers every record of a concurrent batch
};

/// Stable display name of a SyncMode.
std::string_view SyncModeName(SyncMode mode);

/// Durability policy for one log.
struct WalOptions {
  /// Sync policy applied by Append().
  SyncMode sync = SyncMode::kGroupCommit;
  /// Group-commit gather window, microseconds. 0 = the leader fsyncs
  /// immediately (batching still emerges from fsync latency: writers that
  /// arrive mid-fsync join the next batch). Ignored outside kGroupCommit.
  uint32_t group_commit_window_us = 0;
};

/// One replayed record: the type tag and payload exactly as appended.
struct WalRecord {
  uint8_t type = 0;              ///< client-defined record type tag
  std::vector<uint8_t> payload;  ///< CRC-verified payload bytes
};

/// What Replay() found and repaired.
struct WalRecoveryInfo {
  uint64_t records = 0;          ///< records replayed (CRC-verified)
  uint64_t bytes_truncated = 0;  ///< torn/corrupt tail bytes dropped
  bool tail_corrupted = false;   ///< true when truncation happened
};

/// The append-only log. One writer object per file; appends from any
/// thread. Replay is a static pass over a closed file.
class Wal {
 public:
  /// Constructs a closed log; Open() attaches it to a file.
  Wal() = default;
  /// Closes the log (final sync included; its result is dropped).
  ~Wal();
  /// Non-copyable: the object owns an fd and sync state.
  Wal(const Wal&) = delete;
  /// Non-copyable: the object owns an fd and sync state.
  Wal& operator=(const Wal&) = delete;

  /// Opens (creating if absent) the log at `path` for appending.
  /// A new file gets a header carrying `fingerprint`; an existing file's
  /// header must match it (kFailedPrecondition otherwise). An existing
  /// file should normally be Replay()ed first so a torn tail is repaired
  /// before new records land after it.
  Status Open(const std::string& path, const WalOptions& options = {},
              uint64_t fingerprint = 0);

  /// Appends one record and applies the sync policy. Thread-safe.
  Status Append(uint8_t type, std::span<const uint8_t> payload);

  /// Forces an fsync covering every record appended so far.
  Status Sync();

  /// Drops every record (compaction after a snapshot): truncates back to
  /// the file header and syncs.
  Status TruncateAll();

  /// Syncs and closes the file; kInternal if that last sync failed (the
  /// file is closed either way). Open() may be called again.
  Status Close();

  /// True while the log is open for appending.
  bool is_open() const { return fd_ >= 0; }
  /// Records appended through this object since Open().
  uint64_t appended() const { return written_seq_; }

  /// Scans `path` front to back, invoking `callback` for each CRC-valid
  /// record in order. A torn or corrupt tail is truncated off the file
  /// and reported in the returned info. A missing file is an empty log
  /// (zero records, no error). A callback failure aborts the replay and
  /// is returned as-is. `fingerprint` must match the file header.
  static Result<WalRecoveryInfo> Replay(
      const std::string& path,
      const std::function<Status(const WalRecord&)>& callback,
      uint64_t fingerprint = 0);

 private:
  Status SyncLocked(uint64_t my_seq);
  /// Marks the log unusable after a failed fsync (the on-disk tail is
  /// unknowable); every further append is refused until TruncateAll or
  /// reopen re-establishes a known tail.
  void Poison();

  int fd_ = -1;
  WalOptions options_;

  /// Serializes file writes; written_seq_ counts records on disk (in the
  /// OS cache) and end_offset_ the byte they run to. Both only move
  /// under this mutex; a failed write truncates back to end_offset_ so a
  /// torn frame can never sit in front of later, acknowledged records.
  std::mutex write_mutex_;
  uint64_t written_seq_ = 0;
  uint64_t end_offset_ = 0;
  /// Set when a failed write could not be rolled back or an fsync
  /// failed: the file tail (or its durability) is unknown, so every
  /// further append — and every pending group-commit acknowledgment —
  /// is refused. Atomic: group-commit waiters check it lock-free.
  std::atomic<bool> poisoned_{false};

  /// Group-commit state: the leader fsyncs, followers wait until
  /// synced_seq_ covers their record.
  std::mutex sync_mutex_;
  std::condition_variable sync_cv_;
  uint64_t synced_seq_ = 0;
  bool sync_in_progress_ = false;
};

}  // namespace eric::store
