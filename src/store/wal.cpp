#include "store/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cerrno>
#include <cstring>
#include <thread>

#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/fs_util.h"
#include "store/record_io.h"
#include "support/stopwatch.h"

namespace eric::store {

namespace {

constexpr char kMagic[8] = {'E', 'R', 'I', 'C', 'W', 'A', 'L', '1'};
constexpr size_t kHeaderSize = sizeof(kMagic) + 8;  // magic + fingerprint
constexpr size_t kFrameHeaderSize = 4 + 1 + 4;      // len + type + crc
/// Upper bound on a single record; a length field beyond this is treated
/// as tail corruption, not an allocation request.
constexpr uint32_t kMaxPayload = 64u << 20;

// Process-wide WAL telemetry, aggregated across every Wal instance
// (journal, registry store, epoch journal — the per-stream split is not
// worth per-instance registration). store_wal_append_us is the
// client-observed append latency including any group-commit wait;
// store_wal_fsync_us times the fsync syscall alone.
struct WalMetrics {
  obs::Counter& appends;
  obs::Counter& append_bytes;
  obs::Counter& fsyncs;
  obs::Counter& fsync_failures;
  obs::Histogram& append_us;
  obs::Histogram& fsync_us;

  static WalMetrics& Get() {
    static auto& registry = obs::MetricsRegistry::Global();
    static WalMetrics metrics{
        registry.GetCounter("store_wal_appends"),
        registry.GetCounter("store_wal_append_bytes"),
        registry.GetCounter("store_wal_fsyncs"),
        registry.GetCounter("store_wal_fsync_failures"),
        registry.GetHistogram("store_wal_append_us"),
        registry.GetHistogram("store_wal_fsync_us"),
    };
    return metrics;
  }
};

// fsync with the syscall timed into the histogram; all durability
// decisions stay with the caller.
int TimedFsync(int fd) {
  WalMetrics& metrics = WalMetrics::Get();
  const auto start = std::chrono::steady_clock::now();
  const int rc = SyncFd(fd);
  metrics.fsync_us.Record(MicrosecondsSince(start));
  metrics.fsyncs.Add();
  if (rc != 0) metrics.fsync_failures.Add();
  return rc;
}

}  // namespace

uint32_t Crc32Extend(uint32_t crc, std::span<const uint8_t> data) {
  // Standard reflected CRC-32 (polynomial 0xEDB88320), computed by
  // slicing-by-8 (Kounavis & Berry, IEEE Trans. Computers 2008): table k
  // maps a byte to its contribution once k more bytes have followed it,
  // so one step folds in eight bytes, read little-endian whatever the
  // host's byte order. The xor-in/xor-out make the running value
  // composable across calls, zlib-style.
  static constexpr auto kTables = [] {
    std::array<std::array<uint32_t, 256>, 8> tables{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t entry = i;
      for (int bit = 0; bit < 8; ++bit) {
        entry = (entry >> 1) ^ ((entry & 1u) ? 0xEDB88320u : 0u);
      }
      tables[0][i] = entry;
    }
    for (size_t k = 1; k < tables.size(); ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        const uint32_t prev = tables[k - 1][i];
        tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
      }
    }
    return tables;
  }();
  uint32_t state = crc ^ 0xFFFFFFFFu;
  const uint8_t* bytes = data.data();
  size_t left = data.size();
  for (; left >= 8; bytes += 8, left -= 8) {
    const uint32_t lo = LoadLe32(bytes) ^ state;
    const uint32_t hi = LoadLe32(bytes + 4);
    state = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
            kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; left > 0; ++bytes, --left) {
    state = (state >> 8) ^ kTables[0][(state ^ *bytes) & 0xFFu];
  }
  return state ^ 0xFFFFFFFFu;
}

uint32_t Crc32(std::span<const uint8_t> data) { return Crc32Extend(0, data); }

std::string_view SyncModeName(SyncMode mode) {
  switch (mode) {
    case SyncMode::kNever: return "never";
    case SyncMode::kEveryAppend: return "every-append";
    case SyncMode::kGroupCommit: return "group-commit";
  }
  return "unknown";
}

// A destructor cannot report the final sync's failure; a caller that
// needs it calls Close() first, after which this is a no-op.
Wal::~Wal() { (void)Close(); }

Status Wal::Open(const std::string& path, const WalOptions& options,
                 uint64_t fingerprint) {
  if (fd_ >= 0) {
    return Status(ErrorCode::kFailedPrecondition, "wal already open");
  }
  options_ = options;
  written_seq_ = 0;
  synced_seq_ = 0;
  end_offset_ = kHeaderSize;
  poisoned_ = false;

  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status(ErrorCode::kInternal,
                  "cannot open wal " + path + ": " + std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status(ErrorCode::kInternal, "cannot stat wal " + path);
  }
  if (st.st_size == 0) {
    // Fresh log: write the header and make it durable before any record.
    uint8_t header[kHeaderSize];
    std::memcpy(header, kMagic, sizeof(kMagic));
    StoreLe64(fingerprint, header + sizeof(kMagic));
    Status wrote = WriteAll(fd, header, sizeof(header));
    if (wrote.ok() && SyncFd(fd) != 0) {
      wrote = Status(ErrorCode::kInternal, "wal header fsync failed on " +
                                               path + ": " +
                                               std::strerror(errno));
    }
    if (wrote.ok()) wrote = SyncParentDir(path);
    if (!wrote.ok()) {
      // Back to empty, so the next Open writes and syncs the header again
      // instead of trusting one that may never have become durable.
      (void)::ftruncate(fd, 0);
      ::close(fd);
      return wrote;
    }
  } else {
    uint8_t header[kHeaderSize];
    const ssize_t got = ::pread(fd, header, sizeof(header), 0);
    if (got != static_cast<ssize_t>(sizeof(header)) ||
        std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
      ::close(fd);
      return Status(ErrorCode::kCorruptPackage,
                    "wal header missing or damaged: " + path);
    }
    if (LoadLe64(header + sizeof(kMagic)) != fingerprint) {
      ::close(fd);
      return Status(ErrorCode::kFailedPrecondition,
                    "wal fingerprint mismatch (log written under a "
                    "different configuration): " + path);
    }
    const off_t end = ::lseek(fd, 0, SEEK_END);
    if (end < 0) {
      ::close(fd);
      return Status(ErrorCode::kInternal, "cannot seek wal " + path);
    }
    end_offset_ = static_cast<uint64_t>(end);
  }
  fd_ = fd;
  return Status::Ok();
}

Status Wal::Append(uint8_t type, std::span<const uint8_t> payload) {
  if (fd_ < 0) {
    return Status(ErrorCode::kFailedPrecondition, "wal not open");
  }
  if (payload.size() > kMaxPayload) {
    return Status(ErrorCode::kInvalidArgument, "wal record too large");
  }
  WalMetrics& metrics = WalMetrics::Get();
  obs::ScopedSpan span("wal_append");
  const auto append_start = std::chrono::steady_clock::now();

  // Frame: len | type | crc(type || payload) | payload — assembled into
  // one buffer so a record lands in a single write() call. The CRC runs
  // incrementally over the type byte and the caller's payload, so the
  // payload is copied exactly once (into the frame).
  std::vector<uint8_t> frame(kFrameHeaderSize + payload.size());
  StoreLe32(static_cast<uint32_t>(payload.size()), frame.data());
  frame[4] = type;
  StoreLe32(Crc32Extend(Crc32Extend(0, {&type, 1}), payload),
            frame.data() + 5);
  std::copy(payload.begin(), payload.end(), frame.begin() + kFrameHeaderSize);

  uint64_t my_seq = 0;
  {
    std::lock_guard lock(write_mutex_);
    if (poisoned_.load(std::memory_order_acquire)) {
      span.set_ok(false);
      return Status(ErrorCode::kInternal,
                    "wal poisoned by an earlier unrecoverable write failure");
    }
    Status wrote = WriteAll(fd_, frame.data(), frame.size());
    if (!wrote.ok()) {
      // Roll the file back to the last good record so the failed frame
      // can never sit torn in front of later, acknowledged records. If
      // even that fails the tail is unknown: refuse all further appends.
      if (::ftruncate(fd_, static_cast<off_t>(end_offset_)) != 0 ||
          ::lseek(fd_, 0, SEEK_END) < 0) {
        Poison();
      }
      span.set_ok(false);
      return wrote;
    }
    end_offset_ += frame.size();
    my_seq = ++written_seq_;
  }

  Status result = Status::Ok();
  if (options_.sync != SyncMode::kNever) CountDurableWrite();
  switch (options_.sync) {
    case SyncMode::kNever:
      break;
    case SyncMode::kEveryAppend:
      if (TimedFsync(fd_) != 0) {
        Poison();
        result = Status(ErrorCode::kInternal, "wal fsync failed");
      } else if (poisoned_.load(std::memory_order_acquire)) {
        // If another thread's fsync failed between our write and our
        // fsync, our "success" is spurious (the kernel already consumed
        // the error): refuse the ack like every other path.
        result = Status(ErrorCode::kInternal,
                        "wal poisoned by an fsync failure");
      }
      break;
    case SyncMode::kGroupCommit:
      result = SyncLocked(my_seq);
      break;
  }
  // Client-observed append latency: frame write plus whatever the sync
  // mode cost (nothing, a private fsync, or a group-commit wait).
  metrics.appends.Add();
  metrics.append_bytes.Add(frame.size());
  metrics.append_us.Record(MicrosecondsSince(append_start));
  span.set_ok(result.ok());
  return result;
}

void Wal::Poison() {
  // After a failed fsync the kernel may have dropped the dirty pages the
  // error covered (the fsyncgate lesson): the on-disk tail is unknowable
  // and cannot be rolled back record by record — other threads' frames
  // may sit after ours. Refuse every further append and every pending
  // group-commit acknowledgment (a retried fsync on the same fd can
  // spuriously succeed because the kernel already consumed the error);
  // recovery replays whatever proves durable, and idempotent client
  // replay absorbs a record whose failure was reported to the caller.
  if (!poisoned_.exchange(true, std::memory_order_release)) {
    // First transition only: storage durability just died, which is
    // flight-record material — every snapshot and the crash dump must
    // show it.
    obs::EmitEvent(obs::EventSeverity::kFatal, "store",
                   "wal poisoned: on-disk tail unknowable after a failed "
                   "write/fsync; refusing further appends");
  }
}

Status Wal::SyncLocked(uint64_t my_seq) {
  std::unique_lock lock(sync_mutex_);
  while (synced_seq_ < my_seq) {
    // A record not yet covered by a *successful* fsync must not be
    // acknowledged once the log is poisoned — retrying the fsync could
    // "succeed" without the data being on disk.
    if (poisoned_.load(std::memory_order_acquire)) {
      return Status(ErrorCode::kInternal,
                    "wal poisoned by an fsync failure");
    }
    if (!sync_in_progress_) {
      // Become the batch leader: optionally gather more writers, then one
      // fsync covers every record written before it.
      sync_in_progress_ = true;
      lock.unlock();
      if (options_.group_commit_window_us > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(options_.group_commit_window_us));
      }
      uint64_t covered = 0;
      {
        std::lock_guard write_lock(write_mutex_);
        covered = written_seq_;
      }
      const bool ok = TimedFsync(fd_) == 0;
      if (!ok) Poison();
      lock.lock();
      sync_in_progress_ = false;
      if (!ok) {
        sync_cv_.notify_all();
        return Status(ErrorCode::kInternal, "wal fsync failed");
      }
      synced_seq_ = std::max(synced_seq_, covered);
      sync_cv_.notify_all();
    } else {
      sync_cv_.wait(lock, [&] {
        return synced_seq_ >= my_seq || !sync_in_progress_;
      });
    }
  }
  return Status::Ok();
}

Status Wal::Sync() {
  if (fd_ < 0) {
    return Status(ErrorCode::kFailedPrecondition, "wal not open");
  }
  // Snapshot the covered sequence BEFORE the fsync: records appended
  // while the fsync runs are not covered by it, and claiming they were
  // would let a concurrent group-commit waiter return without
  // durability.
  uint64_t covered = 0;
  {
    std::lock_guard write_lock(write_mutex_);
    covered = written_seq_;
  }
  if (TimedFsync(fd_) != 0) {
    Poison();
    return Status(ErrorCode::kInternal, "wal fsync failed");
  }
  if (poisoned_.load(std::memory_order_acquire)) {
    return Status(ErrorCode::kInternal, "wal poisoned by an fsync failure");
  }
  std::lock_guard lock(sync_mutex_);
  synced_seq_ = std::max(synced_seq_, covered);
  return Status::Ok();
}

Status Wal::TruncateAll() {
  if (fd_ < 0) {
    return Status(ErrorCode::kFailedPrecondition, "wal not open");
  }
  std::scoped_lock lock(write_mutex_, sync_mutex_);
  if (::ftruncate(fd_, static_cast<off_t>(kHeaderSize)) != 0) {
    return Status(ErrorCode::kInternal, "wal truncate failed");
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) {
    return Status(ErrorCode::kInternal, "wal seek failed");
  }
  if (SyncFd(fd_) != 0) {
    return Status(ErrorCode::kInternal, "wal fsync failed");
  }
  end_offset_ = kHeaderSize;
  poisoned_ = false;  // the tail is known-good (empty) again
  return Status::Ok();
}

Status Wal::Close() {
  if (fd_ < 0) return Status::Ok();
  const bool synced = SyncFd(fd_) == 0;
  ::close(fd_);
  fd_ = -1;
  if (!synced) return Status(ErrorCode::kInternal, "wal fsync at close failed");
  return Status::Ok();
}

Result<WalRecoveryInfo> Wal::Replay(
    const std::string& path,
    const std::function<Status(const WalRecord&)>& callback,
    uint64_t fingerprint) {
  WalRecoveryInfo info;
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return info;  // missing file == empty log
    return Status(ErrorCode::kInternal,
                  "cannot open wal " + path + ": " + std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status(ErrorCode::kInternal, "cannot stat wal " + path);
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);

  // A file too short to hold its own header is a torn creation: treat the
  // whole thing as tail and reset it to empty (zero length re-triggers
  // header creation on the next Open).
  uint8_t header[kHeaderSize];
  if (file_size < kHeaderSize ||
      ::pread(fd, header, sizeof(header), 0) !=
          static_cast<ssize_t>(sizeof(header)) ||
      std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    if (file_size > 0) {
      info.tail_corrupted = true;
      info.bytes_truncated = file_size;
      if (::ftruncate(fd, 0) != 0 || SyncFd(fd) != 0) {
        // The damage could not be removed: refuse recovery rather than
        // let Open() append acknowledged records after surviving
        // garbage the next replay would truncate away.
        ::close(fd);
        return Status(ErrorCode::kInternal,
                      "cannot repair damaged wal header: " + path);
      }
    }
    ::close(fd);
    ERIC_RETURN_IF_ERROR(SyncParentDir(path));
    return info;
  }
  if (LoadLe64(header + sizeof(kMagic)) != fingerprint) {
    ::close(fd);
    return Status(ErrorCode::kFailedPrecondition,
                  "wal fingerprint mismatch (log written under a "
                  "different configuration): " + path);
  }

  uint64_t offset = kHeaderSize;
  while (offset < file_size) {
    // Either the full frame parses and its CRC verifies, or everything
    // from `offset` on is a torn/corrupt tail to be truncated away.
    uint8_t frame_header[kFrameHeaderSize];
    if (file_size - offset < kFrameHeaderSize) break;
    if (::pread(fd, frame_header, sizeof(frame_header),
                static_cast<off_t>(offset)) !=
        static_cast<ssize_t>(sizeof(frame_header))) {
      break;
    }
    const uint32_t payload_len = LoadLe32(frame_header);
    if (payload_len > kMaxPayload ||
        file_size - offset - kFrameHeaderSize < payload_len) {
      break;
    }
    const uint8_t type = frame_header[4];
    const uint32_t stored_crc = LoadLe32(frame_header + 5);

    WalRecord record;
    record.type = type;
    record.payload.resize(payload_len);
    if (payload_len > 0 &&
        ::pread(fd, record.payload.data(), payload_len,
                static_cast<off_t>(offset + kFrameHeaderSize)) !=
            static_cast<ssize_t>(payload_len)) {
      break;
    }
    if (Crc32Extend(Crc32Extend(0, {&type, 1}), record.payload) !=
        stored_crc) {
      break;
    }

    Status applied = callback(record);
    if (!applied.ok()) {
      ::close(fd);
      return applied;
    }
    ++info.records;
    offset += kFrameHeaderSize + payload_len;
  }

  if (offset < file_size) {
    info.tail_corrupted = true;
    info.bytes_truncated = file_size - offset;
    if (::ftruncate(fd, static_cast<off_t>(offset)) != 0 ||
        SyncFd(fd) != 0) {
      // Same fail-closed rule as the header repair: a tail that cannot
      // be removed must not have new records appended after it.
      ::close(fd);
      return Status(ErrorCode::kInternal,
                    "cannot truncate corrupt wal tail: " + path);
    }
  }
  ::close(fd);
  if (info.tail_corrupted) ERIC_RETURN_IF_ERROR(SyncParentDir(path));
  return info;
}

}  // namespace eric::store
