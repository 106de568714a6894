// POSIX file-durability helpers shared by the WAL and snapshot codecs,
// the update agent's slot files, and the telemetry exporter: full-write
// with EINTR retry, the one counted sync every fsync/fdatasync goes
// through, the directory fsyncs that make renames and truncations
// themselves crash-durable, the atomic whole-file replace built from
// them, and the in-place overwrite the slot file's double buffer uses.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "support/status.h"

namespace eric::store {

/// Writes all `size` bytes to `fd`, retrying short writes and EINTR.
Status WriteAll(int fd, const uint8_t* data, size_t size);

/// fsync(2) of `fd` — fdatasync(2) with `data_only` — counted in the
/// `store_fsyncs` counter. Every file and directory sync in src/store
/// goes through here, so the counter is the number of sync syscalls a
/// workload paid. Returns the syscall's result (errno is preserved).
int SyncFd(int fd, bool data_only = false);

/// fsync of directory `dir`, so completed renames and truncations
/// inside it survive a metadata crash. Fails when the directory cannot
/// be opened or its fsync fails: the entries it holds may not be durable.
Status SyncDir(const std::string& dir);

/// SyncDir on the directory containing file `path`.
Status SyncParentDir(const std::string& path);

/// Counts one durable-write request in the `store_durable_writes`
/// counter: every WriteFileAtomic and OverwriteInPlace call and every
/// Wal::Append under a syncing mode. It counts requests, not fsyncs, so
/// group commit does not make the number depend on thread timing.
void CountDurableWrite();

/// Atomically replaces `path` with `bytes`: writes `path`.tmp (opened
/// O_CLOEXEC), fsyncs and closes it, renames it over `path`, then fsyncs
/// the parent directory. A crash leaves the old file or the new one,
/// never a torn hybrid. When the write, fsync or rename fails, the tmp
/// file is removed and `path` is untouched; when only the directory fsync
/// fails, the new file is in place but its rename may not survive a crash,
/// and the error is returned.
Status WriteFileAtomic(const std::string& path,
                       std::span<const uint8_t> bytes);

/// Overwrites the range of the existing file `path` that starts at
/// `offset` with `bytes`, then fdatasyncs it: one sync, no tmp file, no
/// rename, no directory fsync. Never creates the file. The caller keeps
/// the range inside the file, so the write changes no metadata. NOT
/// atomic: a crash may leave any mix of old and new 512-byte sectors in
/// the range, so the caller must make a torn range detectable and never
/// overwrite the only copy of what it last acknowledged.
Status OverwriteInPlace(const std::string& path, uint64_t offset,
                        std::span<const uint8_t> bytes);

}  // namespace eric::store
