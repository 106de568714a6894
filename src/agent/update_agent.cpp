#include "agent/update_agent.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <type_traits>

#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/fs_util.h"
#include "store/record_io.h"
#include "store/wal.h"  // Crc32
#include "support/rng.h"

namespace eric::agent {

namespace {

// Slot-file layout (parsed by tests/fleetd_resume_test.py too, keep
// docs/agent.md in sync). The file holds two copies of the record: copy
// 0 at offset 0 and copy 1 at offset `capacity`, so it is 2 x capacity
// bytes long. Each copy is
//   magic "ERICSLT2" | u32 crc32 | u64 device_id | u64 sequence
//   | u32 capacity | u32 payload_len | payload
// with the CRC over every header field after it and the payload. A write
// overwrites the copy that does not hold the last acknowledged record;
// a load takes the CRC-valid copy with the highest sequence.
//   payload: u32 schema | u64 device_id | u8 active | u8 previous
//            | u8 staged | u8 phase | 5x u64 counters
//            | 2x slot: u8 present | u64 version | bytes key_fp(32)
//                       | u32 image_crc | bytes image
// Files from older builds hold one record, loaded but never written:
//   magic "ERICSLT1" | u64 device_id | u32 crc32(payload) | u32 payload_len
//   | payload
constexpr char kMagic[8] = {'E', 'R', 'I', 'C', 'S', 'L', 'T', '2'};
constexpr size_t kCrcOffset = sizeof(kMagic);
constexpr size_t kDeviceOffset = kCrcOffset + 4;
constexpr size_t kSequenceOffset = kDeviceOffset + 8;
constexpr size_t kCapacityOffset = kSequenceOffset + 8;
constexpr size_t kLengthOffset = kCapacityOffset + 4;
constexpr size_t kHeaderSize = kLengthOffset + 4;
/// Copies are whole 4 KiB blocks, so a copy never shares a block with the
/// other and in-place writes stay sector-aligned.
constexpr uint64_t kCapacityAlign = 4096;
constexpr char kLegacyMagic[8] = {'E', 'R', 'I', 'C', 'S', 'L', 'T', '1'};
constexpr size_t kLegacyHeaderSize = sizeof(kLegacyMagic) + 8 + 4 + 4;
constexpr uint32_t kManifestSchema = 1;

constexpr uint8_t kNoSlot = 0xFF;

uint8_t EncodeSlot(int slot) {
  return slot < 0 ? kNoSlot : static_cast<uint8_t>(slot);
}
int DecodeSlot(uint8_t value) { return value == kNoSlot ? -1 : value; }

/// Writes one record copy (header and payload) into `out`.
void EncodeCopy(uint64_t device_id, uint64_t sequence, uint64_t capacity,
                std::span<const uint8_t> payload, uint8_t* out) {
  std::memcpy(out, kMagic, sizeof(kMagic));
  store::StoreLe64(device_id, out + kDeviceOffset);
  store::StoreLe64(sequence, out + kSequenceOffset);
  store::StoreLe32(static_cast<uint32_t>(capacity), out + kCapacityOffset);
  store::StoreLe32(static_cast<uint32_t>(payload.size()),
                   out + kLengthOffset);
  std::copy(payload.begin(), payload.end(), out + kHeaderSize);
  store::StoreLe32(
      store::Crc32({out + kDeviceOffset,
                    kHeaderSize - kDeviceOffset + payload.size()}),
      out + kCrcOffset);
}

/// The record a slot file holds, and where its write state stands.
struct StoredRecord {
  std::span<const uint8_t> payload;
  uint64_t capacity = 0;  ///< 0: a legacy one-record file
  uint64_t sequence = 0;
  int copy = 0;
};

/// Finds the record of an ERICSLT2 file: the CRC-valid copy with the
/// highest sequence. A torn copy fails its CRC and the other one stands;
/// with neither intact the file is damage.
Status FindNewestCopy(std::span<const uint8_t> bytes, uint64_t device_id,
                      const std::string& path, StoredRecord* out) {
  // The file is created at exactly two copies and never resized, so its
  // size fixes the capacity each copy's header must repeat.
  const uint64_t capacity = bytes.size() / 2;
  const int copies = bytes.size() % 2 == 0 && capacity >= kHeaderSize ? 2 : 0;
  int newest = -1;
  for (int copy = 0; copy < copies; ++copy) {
    const uint8_t* base = bytes.data() + copy * capacity;
    if (std::memcmp(base, kMagic, sizeof(kMagic)) != 0 ||
        store::LoadLe32(base + kCapacityOffset) != capacity) {
      continue;
    }
    const uint32_t length = store::LoadLe32(base + kLengthOffset);
    if (length > capacity - kHeaderSize ||
        store::Crc32({base + kDeviceOffset,
                      kHeaderSize - kDeviceOffset + length}) !=
            store::LoadLe32(base + kCrcOffset)) {
      continue;
    }
    const uint64_t sequence = store::LoadLe64(base + kSequenceOffset);
    if (newest >= 0 && sequence <= out->sequence) continue;
    newest = copy;
    out->payload = {base + kHeaderSize, length};
    out->capacity = capacity;
    out->sequence = sequence;
    out->copy = copy;
  }
  if (newest < 0) {
    return Status(ErrorCode::kCorruptPackage,
                  "slot file holds no intact record copy: " + path);
  }
  if (store::LoadLe64(bytes.data() + newest * capacity + kDeviceOffset) !=
      device_id) {
    return Status(ErrorCode::kFailedPrecondition,
                  "slot file belongs to a different device: " + path);
  }
  return Status::Ok();
}

/// Finds the record of a legacy ERICSLT1 file (one record, CRC-framed).
Status FindLegacyRecord(std::span<const uint8_t> bytes, uint64_t device_id,
                        const std::string& path, StoredRecord* out) {
  if (bytes.size() < kLegacyHeaderSize) {
    return Status(ErrorCode::kCorruptPackage,
                  "slot manifest truncated: " + path);
  }
  if (store::LoadLe64(bytes.data() + 8) != device_id) {
    return Status(ErrorCode::kFailedPrecondition,
                  "slot manifest belongs to a different device: " + path);
  }
  const uint32_t payload_len = store::LoadLe32(bytes.data() + 20);
  if (bytes.size() != kLegacyHeaderSize + payload_len) {
    return Status(ErrorCode::kCorruptPackage,
                  "slot manifest length mismatch: " + path);
  }
  out->payload = bytes.subspan(kLegacyHeaderSize);
  if (store::Crc32(out->payload) != store::LoadLe32(bytes.data() + 16)) {
    return Status(ErrorCode::kCorruptPackage,
                  "slot manifest CRC mismatch: " + path);
  }
  return Status::Ok();
}

double MicrosecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Process-wide agent instruments, resolved once (the function-local
/// static-reference pattern every subsystem uses on the registry).
struct AgentMetrics {
  obs::Counter& applies;
  obs::Counter& rollbacks;
  obs::Counter& health_failures;
  obs::Counter& crash_recoveries;
  obs::Counter& persist_failures;
  obs::Histogram& apply_us;
  obs::Histogram& rollback_us;

  static AgentMetrics& Get() {
    static auto& registry = obs::MetricsRegistry::Global();
    static AgentMetrics metrics{
        registry.GetCounter("agent_applies"),
        registry.GetCounter("agent_rollbacks"),
        registry.GetCounter("agent_health_failures"),
        registry.GetCounter("agent_crash_recoveries"),
        registry.GetCounter("agent_persist_failures"),
        registry.GetHistogram("agent_apply_us"),
        registry.GetHistogram("agent_rollback_us"),
    };
    return metrics;
  }
};

}  // namespace

std::string_view ApplyPhaseName(ApplyPhase phase) {
  switch (phase) {
    case ApplyPhase::kIdle: return "idle";
    case ApplyPhase::kStaged: return "staged";
    case ApplyPhase::kVerified: return "verified";
    case ApplyPhase::kFlipped: return "flipped";
  }
  return "unknown";
}

UpdateAgent::UpdateAgent(uint64_t device_id, std::string manifest_path)
    : device_id_(device_id), manifest_path_(std::move(manifest_path)) {}

void UpdateAgent::SetCrashInjection(double rate, uint64_t seed) {
  crash_rate_ = rate;
  // Per-device stream: two agents armed with the same soak seed must not
  // crash in lockstep.
  crash_rng_state_ = seed ^ (device_id_ * 0x9E3779B97F4A7C15ull);
}

CrashPoint UpdateAgent::DrawCrash() {
  if (armed_crash_ != CrashPoint::kNone) {
    const CrashPoint point = armed_crash_;
    armed_crash_ = CrashPoint::kNone;
    return point;
  }
  if (crash_rate_ <= 0) return CrashPoint::kNone;
  Xoshiro256 rng(crash_rng_state_);
  crash_rng_state_ = rng.Next();  // advance the stream per apply
  if (rng.NextDouble() >= crash_rate_) return CrashPoint::kNone;
  switch (rng.Next() % 4) {
    case 0: return CrashPoint::kAfterStage;
    case 1: return CrashPoint::kAfterVerify;
    case 2: return CrashPoint::kAfterFlip;
    default: return CrashPoint::kDuringHealth;
  }
}

std::vector<uint8_t> UpdateAgent::SerializeManifest() const {
  store::RecordWriter rec;
  rec.U32(kManifestSchema);
  rec.U64(device_id_);
  rec.U8(EncodeSlot(active_slot_));
  rec.U8(EncodeSlot(previous_slot_));
  rec.U8(EncodeSlot(staged_slot_));
  rec.U8(static_cast<uint8_t>(phase_));
  rec.U64(counters_.applies);
  rec.U64(counters_.rollbacks);
  rec.U64(counters_.health_failures);
  rec.U64(counters_.crash_recoveries);
  rec.U64(counters_.persist_failures);
  for (int slot = 0; slot < 2; ++slot) {
    rec.U8(slots_[slot].present ? 1 : 0);
    rec.U64(slots_[slot].version);
    rec.Bytes(slots_[slot].key_fingerprint);
    rec.U32(slots_[slot].image_crc);
    rec.Bytes(images_[slot]);
  }
  return rec.Take();
}

Status UpdateAgent::Persist() {
  if (manifest_path_.empty()) return Status::Ok();  // memory-only mode

  const std::vector<uint8_t> payload = SerializeManifest();
  const uint64_t record_bytes = kHeaderSize + payload.size();
  const uint64_t sequence = ++sequence_;
  Status written = Status::Ok();
  if (capacity_ == 0 || record_bytes > capacity_) {
    // Create or grow: one atomic replace of the whole file. The record
    // goes in copy 0 and copy 1 is written as zeros, so its blocks are
    // really allocated and later in-place writes change no metadata.
    const uint64_t capacity =
        (2 * record_bytes + kCapacityAlign - 1) / kCapacityAlign *
        kCapacityAlign;
    std::vector<uint8_t> file_bytes(2 * capacity);
    EncodeCopy(device_id_, sequence, capacity, payload, file_bytes.data());
    written = store::WriteFileAtomic(manifest_path_, file_bytes);
    if (written.ok()) {
      capacity_ = capacity;
      acked_copy_ = 0;
    }
  } else {
    // In place: overwrite the copy that does NOT hold the last
    // acknowledged record, so a torn write costs only itself.
    const int copy = 1 - acked_copy_;
    std::vector<uint8_t> record(record_bytes);
    EncodeCopy(device_id_, sequence, capacity_, payload, record.data());
    written = store::OverwriteInPlace(manifest_path_, copy * capacity_,
                                      record);
    if (written.ok()) acked_copy_ = copy;
  }
  if (!written.ok()) {
    // The file's state is unknown now: the next persist replaces it whole.
    capacity_ = 0;
    counters_.persist_failures++;
    AgentMetrics::Get().persist_failures.Add(1);
    return written;
  }
  record_bytes_ = record_bytes;
  return Status::Ok();
}

Status UpdateAgent::LoadManifest() {
  const int fd = ::open(manifest_path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {  // fresh device: the first persist creates it
      capacity_ = 0;
      return Status::Ok();
    }
    return Status(ErrorCode::kInternal, "cannot open slot manifest " +
                                            manifest_path_ + ": " +
                                            std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 ||
      static_cast<size_t>(st.st_size) < sizeof(kMagic)) {
    ::close(fd);
    return Status(ErrorCode::kCorruptPackage,
                  "slot manifest truncated: " + manifest_path_);
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(st.st_size));
  const ssize_t got = ::pread(fd, bytes.data(), bytes.size(), 0);
  ::close(fd);
  if (got != static_cast<ssize_t>(bytes.size())) {
    return Status(ErrorCode::kCorruptPackage,
                  "slot manifest unreadable: " + manifest_path_);
  }
  StoredRecord stored;
  if (std::memcmp(bytes.data(), kLegacyMagic, sizeof(kLegacyMagic)) == 0) {
    ERIC_RETURN_IF_ERROR(
        FindLegacyRecord(bytes, device_id_, manifest_path_, &stored));
  } else {
    ERIC_RETURN_IF_ERROR(
        FindNewestCopy(bytes, device_id_, manifest_path_, &stored));
  }
  const std::span<const uint8_t> payload = stored.payload;

  store::RecordReader rec(payload);
  uint32_t schema = 0;
  uint64_t device = 0;
  uint8_t active = kNoSlot, previous = kNoSlot, staged = kNoSlot, phase = 0;
  rec.U32(&schema);
  rec.U64(&device);
  rec.U8(&active);
  rec.U8(&previous);
  rec.U8(&staged);
  rec.U8(&phase);
  AgentCounters counters;
  rec.U64(&counters.applies);
  rec.U64(&counters.rollbacks);
  rec.U64(&counters.health_failures);
  rec.U64(&counters.crash_recoveries);
  rec.U64(&counters.persist_failures);
  SlotInfo slots[2];
  std::vector<uint8_t> images[2];
  for (int slot = 0; slot < 2; ++slot) {
    uint8_t present = 0;
    std::vector<uint8_t> fingerprint;
    rec.U8(&present);
    rec.U64(&slots[slot].version);
    rec.Bytes(&fingerprint);
    rec.U32(&slots[slot].image_crc);
    rec.Bytes(&images[slot]);
    slots[slot].present = present != 0;
    slots[slot].image_bytes = images[slot].size();
    // A fingerprint of any other length (or none, after an overrun) is
    // damage: loading it zeroed would misreport the slot's sealing key.
    if (fingerprint.size() != slots[slot].key_fingerprint.size()) {
      return Status(ErrorCode::kCorruptPackage,
                    "slot key fingerprint damaged: " + manifest_path_);
    }
    std::memcpy(slots[slot].key_fingerprint.data(), fingerprint.data(),
                fingerprint.size());
    // A present slot whose bytes do not match their recorded CRC is torn
    // storage, not a recoverable apply: fail closed.
    if (slots[slot].present &&
        store::Crc32(images[slot]) != slots[slot].image_crc) {
      return Status(ErrorCode::kCorruptPackage,
                    "slot image CRC mismatch: " + manifest_path_);
    }
  }
  if (!rec.ok() || !rec.Exhausted() || schema != kManifestSchema ||
      phase > static_cast<uint8_t>(ApplyPhase::kFlipped) ||
      (active != kNoSlot && active > 1) ||
      (previous != kNoSlot && previous > 1) ||
      (staged != kNoSlot && staged > 1)) {
    return Status(ErrorCode::kCorruptPackage,
                  "slot manifest schema damaged: " + manifest_path_);
  }

  active_slot_ = DecodeSlot(active);
  previous_slot_ = DecodeSlot(previous);
  staged_slot_ = DecodeSlot(staged);
  phase_ = static_cast<ApplyPhase>(phase);
  counters_ = counters;
  // Copy the parsed slots with one memcpy instead of a per-slot
  // assignment loop: GCC 12 at -O2 with -fsanitize=address,undefined
  // miscompiles the loop form (the copy reads &slots[1] on both
  // iterations while the shadow checks cover the right addresses, so
  // slots_[0] silently inherits slot 1's metadata with no report).
  static_assert(std::is_trivially_copyable_v<SlotInfo>);
  std::memcpy(slots_, slots, sizeof(slots_));
  images_[0] = std::move(images[0]);
  images_[1] = std::move(images[1]);
  // A legacy file loads with capacity 0: the next persist migrates it by
  // replacing it whole.
  capacity_ = stored.capacity;
  sequence_ = stored.sequence;
  acked_copy_ = stored.copy;
  record_bytes_ = stored.capacity == 0 ? 0 : kHeaderSize + payload.size();
  return Status::Ok();
}

bool UpdateAgent::RecoverLocked() {
  if (phase_ == ApplyPhase::kIdle) return false;
  counters_.crash_recoveries++;
  AgentMetrics::Get().crash_recoveries.Add(1);
  if (phase_ == ApplyPhase::kFlipped) {
    // The flip was durable but the health verdict never arrived: the
    // staged image is unproven, so boot the previous slot again.
    const auto start = std::chrono::steady_clock::now();
    if (active_slot_ >= 0) slots_[active_slot_].present = false;
    active_slot_ = previous_slot_;
    counters_.rollbacks++;
    AgentMetrics::Get().rollbacks.Add(1);
    AgentMetrics::Get().rollback_us.Record(MicrosecondsSince(start));
    obs::EmitEvent(obs::EventSeverity::kError, "agent",
                   "crash-recovery rollback: flip was durable but the "
                   "health verdict never arrived",
                   device_id_, obs::CurrentTraceId());
  } else if (staged_slot_ >= 0) {
    // Stage or verify never completed: discard the half-applied image;
    // the active slot was never touched. Only an in-memory agent or a
    // manifest written by an older build (which persisted stage and
    // verify) can be in this phase; Apply's first write is the flip.
    slots_[staged_slot_].present = false;
  }
  previous_slot_ = -1;
  staged_slot_ = -1;
  phase_ = ApplyPhase::kIdle;
  return true;
}

Status UpdateAgent::Recover() {
  if (!manifest_path_.empty()) {
    // Re-reading the manifest makes Recover() also the "device reboot"
    // entry point: in-memory state is whatever the disk says.
    ERIC_RETURN_IF_ERROR(LoadManifest());
  }
  if (RecoverLocked()) {
    // Persist the rollback so replaying recovery is idempotent — a crash
    // loop must not count one interrupted apply as many.
    return Persist();
  }
  return Status::Ok();
}

Status UpdateAgent::Apply(std::span<const uint8_t> image, uint64_t version,
                          const crypto::Sha256Digest& key_fingerprint,
                          const HealthCheck& health) {
  obs::ScopedSpan span("agent_apply", device_id_);
  const auto start = std::chrono::steady_clock::now();

  // A crashed apply recovers before the next one proceeds (the reboot a
  // real device would have taken between the two deliveries).
  if (phase_ != ApplyPhase::kIdle) {
    Status recovered = Recover();
    if (!recovered.ok()) {
      span.set_ok(false);
      return recovered;
    }
  }
  const CrashPoint crash = DrawCrash();
  const auto crashed = [&](const char* where) {
    span.set_ok(false);
    return Status(ErrorCode::kInjectedCrash,
                  std::string("agent crashed mid-apply (") + where + ")");
  };

  // --- stage: write the image into the inactive slot (in memory; the
  // flip write below makes it durable) ---
  const int target = active_slot_ == 0 ? 1 : 0;
  slots_[target].present = true;
  slots_[target].version = version;
  slots_[target].key_fingerprint = key_fingerprint;
  slots_[target].image_crc = store::Crc32(image);
  slots_[target].image_bytes = image.size();
  images_[target].assign(image.begin(), image.end());
  staged_slot_ = target;
  phase_ = ApplyPhase::kStaged;
  // Drops an apply that made nothing durable: the manifest on disk still
  // names the old image, so there is nothing left to recover.
  const auto abandon = [&](Status status) {
    slots_[target].present = false;
    staged_slot_ = -1;
    phase_ = ApplyPhase::kIdle;
    span.set_ok(false);
    return status;
  };
  if (crash == CrashPoint::kAfterStage) return crashed("after stage");

  // --- verify: the staged bytes must read back CRC-clean ---
  if (store::Crc32(images_[target]) != slots_[target].image_crc) {
    return abandon(Status(ErrorCode::kCorruptPackage,
                          "staged image failed CRC verification"));
  }
  phase_ = ApplyPhase::kVerified;
  if (crash == CrashPoint::kAfterVerify) return crashed("after verify");

  // --- flip: the staged slot becomes the boot slot. The first durable
  // write of the apply: staged image and flip intent land together ---
  previous_slot_ = active_slot_;
  active_slot_ = target;
  phase_ = ApplyPhase::kFlipped;
  Status persisted = Persist();
  if (!persisted.ok()) {
    // Undo the flip too and report the device unable to make the update
    // durable.
    active_slot_ = previous_slot_;
    previous_slot_ = -1;
    return abandon(persisted);
  }
  if (crash == CrashPoint::kAfterFlip) return crashed("after flip");
  if (crash == CrashPoint::kDuringHealth) return crashed("during health");

  // --- health: a short sim execution proves the new image boots ---
  Status healthy = Status::Ok();
  if (forced_health_failures_ > 0) {
    --forced_health_failures_;
    healthy = Status(ErrorCode::kVerificationFailed,
                     "injected health-check failure (device self-test)");
  } else if (health) {
    healthy = health(images_[target]);
  }
  if (!healthy.ok()) {
    const auto rollback_start = std::chrono::steady_clock::now();
    counters_.health_failures++;
    counters_.rollbacks++;
    AgentMetrics::Get().health_failures.Add(1);
    AgentMetrics::Get().rollbacks.Add(1);
    obs::EmitEvent(obs::EventSeverity::kError, "agent",
                   "post-apply health check failed, rolled back: " +
                       healthy.message(),
                   device_id_, obs::CurrentTraceId());
    slots_[target].present = false;
    active_slot_ = previous_slot_;
    previous_slot_ = -1;
    staged_slot_ = -1;
    phase_ = ApplyPhase::kIdle;
    (void)Persist();  // best effort: the in-memory rollback already holds
    AgentMetrics::Get().rollback_us.Record(MicrosecondsSince(rollback_start));
    span.set_ok(false);
    return healthy;
  }

  previous_slot_ = -1;
  staged_slot_ = -1;
  phase_ = ApplyPhase::kIdle;
  counters_.applies++;
  // Best effort: the update IS applied and healthy on-device; a failed
  // final persist only costs a conservative rollback if the device
  // crashes before the next one.
  (void)Persist();
  AgentMetrics::Get().applies.Add(1);
  AgentMetrics::Get().apply_us.Record(MicrosecondsSince(start));
  return Status::Ok();
}

std::span<const uint8_t> UpdateAgent::active_image() const {
  if (active_slot_ < 0 || !slots_[active_slot_].present) return {};
  return images_[active_slot_];
}

AgentState UpdateAgent::state() const {
  AgentState state;
  state.active_slot = active_slot_;
  state.previous_slot = previous_slot_;
  state.staged_slot = staged_slot_;
  state.phase = phase_;
  state.slots[0] = slots_[0];
  state.slots[1] = slots_[1];
  state.counters = counters_;
  return state;
}

bool UpdateAgent::ActiveCrcValid() const {
  if (active_slot_ < 0) return true;
  const SlotInfo& slot = slots_[active_slot_];
  if (!slot.present) return false;
  return store::Crc32(images_[active_slot_]) == slot.image_crc;
}

}  // namespace eric::agent
