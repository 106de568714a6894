#include "store/fs_util.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/metrics.h"

namespace eric::store {

Status WriteAll(int fd, const uint8_t* data, size_t size) {
  while (size > 0) {
    const ssize_t wrote = ::write(fd, data, size);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return Status(ErrorCode::kInternal,
                    std::string("write failed: ") + std::strerror(errno));
    }
    data += wrote;
    size -= static_cast<size_t>(wrote);
  }
  return Status::Ok();
}

int SyncFd(int fd, bool data_only) {
  static obs::Counter& syncs =
      obs::MetricsRegistry::Global().GetCounter("store_fsyncs");
  syncs.Add();
  return data_only ? ::fdatasync(fd) : ::fsync(fd);
}

Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status(ErrorCode::kInternal, "cannot open directory " + dir +
                                            ": " + std::strerror(errno));
  }
  Status status = Status::Ok();
  if (SyncFd(fd) != 0) {
    status = Status(ErrorCode::kInternal, "fsync failed on directory " +
                                              dir + ": " +
                                              std::strerror(errno));
  }
  ::close(fd);
  return status;
}

Status SyncParentDir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return SyncDir(slash == std::string::npos ? "." : path.substr(0, slash));
}

void CountDurableWrite() {
  static obs::Counter& writes =
      obs::MetricsRegistry::Global().GetCounter("store_durable_writes");
  writes.Add();
}

Status WriteFileAtomic(const std::string& path,
                       std::span<const uint8_t> bytes) {
  CountDurableWrite();
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status(ErrorCode::kInternal,
                  "cannot create " + tmp + ": " + std::strerror(errno));
  }
  Status status = WriteAll(fd, bytes.data(), bytes.size());
  if (status.ok() && SyncFd(fd) != 0) {
    status = Status(ErrorCode::kInternal,
                    "fsync failed on " + tmp + ": " + std::strerror(errno));
  }
  if (::close(fd) != 0 && status.ok()) {
    status = Status(ErrorCode::kInternal,
                    "close failed on " + tmp + ": " + std::strerror(errno));
  }
  if (status.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    status = Status(ErrorCode::kInternal,
                    "rename to " + path + " failed: " + std::strerror(errno));
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  return SyncParentDir(path);
}

Status OverwriteInPlace(const std::string& path, uint64_t offset,
                        std::span<const uint8_t> bytes) {
  CountDurableWrite();
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status(ErrorCode::kInternal,
                  "cannot open " + path + ": " + std::strerror(errno));
  }
  Status status = Status::Ok();
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t wrote =
        ::pwrite(fd, bytes.data() + done, bytes.size() - done,
                 static_cast<off_t>(offset + done));
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote <= 0) {
      status = Status(ErrorCode::kInternal, "pwrite failed on " + path +
                                                ": " + std::strerror(errno));
      break;
    }
    done += static_cast<size_t>(wrote);
  }
  if (status.ok() && SyncFd(fd, /*data_only=*/true) != 0) {
    status = Status(ErrorCode::kInternal, "fdatasync failed on " + path +
                                              ": " + std::strerror(errno));
  }
  if (::close(fd) != 0 && status.ok()) {
    status = Status(ErrorCode::kInternal,
                    "close failed on " + path + ": " + std::strerror(errno));
  }
  return status;
}

}  // namespace eric::store
