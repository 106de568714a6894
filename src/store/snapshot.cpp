#include "store/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "store/fs_util.h"
#include "store/record_io.h"
#include "store/wal.h"  // Crc32

namespace eric::store {

namespace {

constexpr char kMagic[8] = {'E', 'R', 'I', 'C', 'S', 'N', 'P', '1'};
constexpr size_t kHeaderSize = sizeof(kMagic) + 8 + 8 + 4 + 4;

std::string SnapshotName(const std::string& prefix, uint64_t sequence) {
  return prefix + "-" + std::to_string(sequence) + ".snap";
}

/// Parses `<prefix>-<seq>.snap`; returns false for anything else
/// (including the .tmp leftovers of interrupted writes).
bool ParseSnapshotName(const std::string& name, const std::string& prefix,
                       uint64_t* sequence) {
  const std::string head = prefix + "-";
  const std::string tail = ".snap";
  if (name.size() <= head.size() + tail.size()) return false;
  if (name.compare(0, head.size(), head) != 0) return false;
  if (name.compare(name.size() - tail.size(), tail.size(), tail) != 0) {
    return false;
  }
  const std::string digits =
      name.substr(head.size(), name.size() - head.size() - tail.size());
  if (digits.empty()) return false;
  uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *sequence = value;
  return true;
}

}  // namespace

Status WriteSnapshot(const std::string& dir, const std::string& prefix,
                     uint64_t sequence, uint64_t fingerprint,
                     std::span<const uint8_t> payload) {
  const std::string final_path = dir + "/" + SnapshotName(prefix, sequence);

  std::vector<uint8_t> file_bytes(kHeaderSize + payload.size());
  std::memcpy(file_bytes.data(), kMagic, sizeof(kMagic));
  StoreLe64(fingerprint, file_bytes.data() + 8);
  StoreLe64(sequence, file_bytes.data() + 16);
  StoreLe32(Crc32(payload), file_bytes.data() + 24);
  StoreLe32(static_cast<uint32_t>(payload.size()), file_bytes.data() + 28);
  std::copy(payload.begin(), payload.end(), file_bytes.begin() + kHeaderSize);

  ERIC_RETURN_IF_ERROR(WriteFileAtomic(final_path, file_bytes));

  // Retire older snapshots (and any stale .tmp): the newest valid file is
  // the only one recovery needs.
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    uint64_t seq = 0;
    if (ParseSnapshotName(name, prefix, &seq) && seq < sequence) {
      std::filesystem::remove(entry.path(), ec);
    } else if (name.rfind(prefix + "-", 0) == 0 &&
               name.size() > 4 &&
               name.compare(name.size() - 4, 4, ".tmp") == 0) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
  return Status::Ok();
}

Result<LoadedSnapshot> LoadLatestSnapshot(const std::string& dir,
                                          const std::string& prefix,
                                          uint64_t fingerprint) {
  LoadedSnapshot loaded;

  std::vector<uint64_t> candidates;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    // Fail closed: "could not list the directory" is not "no snapshot
    // exists" — proceeding would recover a near-empty fleet from the
    // WAL tails alone and then overwrite the real snapshot.
    return Status(ErrorCode::kInternal,
                  "cannot list snapshot dir " + dir + ": " + ec.message());
  }
  for (const auto& entry : it) {
    uint64_t seq = 0;
    if (ParseSnapshotName(entry.path().filename().string(), prefix, &seq)) {
      candidates.push_back(seq);
    }
  }
  std::sort(candidates.rbegin(), candidates.rend());

  for (uint64_t seq : candidates) {
    const std::string path = dir + "/" + SnapshotName(prefix, seq);
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) continue;
    struct stat st{};
    if (::fstat(fd, &st) != 0 ||
        static_cast<size_t>(st.st_size) < kHeaderSize) {
      ::close(fd);
      continue;  // torn write that still got renamed somehow: skip
    }
    std::vector<uint8_t> bytes(static_cast<size_t>(st.st_size));
    ssize_t got = ::pread(fd, bytes.data(), bytes.size(), 0);
    ::close(fd);
    if (got != static_cast<ssize_t>(bytes.size())) continue;
    if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) continue;

    const uint32_t payload_len = LoadLe32(bytes.data() + 28);
    if (bytes.size() != kHeaderSize + payload_len) continue;
    std::span<const uint8_t> payload(bytes.data() + kHeaderSize, payload_len);
    if (Crc32(payload) != LoadLe32(bytes.data() + 24)) continue;

    // The newest structurally valid snapshot decides: a fingerprint
    // mismatch here is a configuration error, not corruption to skip.
    if (LoadLe64(bytes.data() + 8) != fingerprint) {
      return Status(ErrorCode::kFailedPrecondition,
                    "snapshot fingerprint mismatch (written under a "
                    "different configuration): " + path);
    }
    loaded.found = true;
    loaded.sequence = LoadLe64(bytes.data() + 16);
    loaded.payload.assign(payload.begin(), payload.end());
    return loaded;
  }
  if (!candidates.empty()) {
    // Snapshot files exist but none is loadable. Compaction makes a
    // lone snapshot the steady state (the WALs behind it are truncated),
    // so treating this as "no snapshot" would silently recover an empty
    // fleet and then overwrite the damaged file: fail closed instead.
    return Status(ErrorCode::kCorruptPackage,
                  "every " + prefix + " snapshot under " + dir +
                      " is damaged; refusing to recover without it");
  }
  return loaded;
}

}  // namespace eric::store
