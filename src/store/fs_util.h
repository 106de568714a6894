// POSIX file-durability helpers shared by the WAL and snapshot codecs,
// the update agent's slot manifests, and the telemetry exporter:
// full-write with EINTR retry, the directory fsyncs that make renames
// and truncations themselves crash-durable, and the one atomic
// whole-file replace built from them.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "support/status.h"

namespace eric::store {

/// Writes all `size` bytes to `fd`, retrying short writes and EINTR.
Status WriteAll(int fd, const uint8_t* data, size_t size);

/// Best-effort fsync of directory `dir`, so completed renames and
/// truncations inside it survive a metadata crash.
void SyncDir(const std::string& dir);

/// SyncDir on the directory containing file `path`.
void SyncParentDir(const std::string& path);

/// Counts one durable-write request in the `store_durable_writes`
/// counter: every WriteFileAtomic call and every Wal::Append under a
/// syncing mode. It counts requests, not fsyncs, so group commit does not
/// make the number depend on thread timing.
void CountDurableWrite();

/// Atomically replaces `path` with `bytes`: writes `path`.tmp (opened
/// O_CLOEXEC), fsyncs and closes it, renames it over `path`, then fsyncs
/// the parent directory. A crash leaves the old file or the new one,
/// never a torn hybrid; on failure the tmp file is removed and `path` is
/// untouched.
Status WriteFileAtomic(const std::string& path,
                       std::span<const uint8_t> bytes);

}  // namespace eric::store
