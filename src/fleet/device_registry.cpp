#include "fleet/device_registry.h"

#include <algorithm>
#include <filesystem>

#include "obs/metrics.h"
#include "pkg/delta.h"
#include "store/record_io.h"
#include "store/snapshot.h"
#include "store/wal.h"
#include "support/stopwatch.h"

namespace eric::fleet {

namespace {

// Registry log record types. Types 1-5 keep their numbers from the older
// per-shard logs; 6 and 7 were types 1 and 2 of the older groups.wal.
constexpr uint8_t kWalEnroll = 1;    ///< {u64 id, u64 seed, u64 group}
constexpr uint8_t kWalRevoke = 2;    ///< {u64 id}
/// Legacy delivery-manifest records, no longer written: {u64 id, u64
/// version, bytes keyfp} and the same plus {u8 isa}. What a device runs
/// is its agent's active slot, so replay checks them for damage and
/// drops them.
constexpr uint8_t kWalManifest = 3;
/// {u64 id, u64 seed, u64 group, u8 isa}. Written for every new
/// enrollment; type-1 records (pre-ISA logs) replay as kRv64Gc.
constexpr uint8_t kWalEnrollIsa = 4;
constexpr uint8_t kWalManifestIsa = 5;
constexpr uint8_t kWalGroupCreate = 6;  ///< {u64 id, str label}
constexpr uint8_t kWalEpochBump = 7;    ///< {u64 group, u64 epoch}

// Snapshot schema: v2 adds a per-group key epoch after the label; v3
// adds an optional delivery manifest per device; v4 adds the device and
// manifest ISA bytes; v5 drops the manifest again. Older files load with
// the fields they lack defaulted — v1 groups sit at the base epoch, v3
// devices are kRv64Gc — which is exactly what they were; v3 and v4
// manifests are checked for damage and dropped.
constexpr uint32_t kSnapshotVersion = 5;
constexpr uint32_t kSnapshotVersionManifestIsa = 4;
constexpr uint32_t kSnapshotVersionNoIsa = 3;
constexpr uint32_t kSnapshotVersionNoManifests = 2;
constexpr uint32_t kSnapshotVersionNoEpochs = 1;
constexpr const char* kSnapshotPrefix = "registry";
constexpr const char* kWalName = "registry.wal";
/// The older layout: groups.wal, then one shard-K.wal per lock stripe of
/// a table that was striped this many ways.
constexpr uint64_t kLegacyShardLogs = 16;

Status Damaged(const std::string& what) {
  return Status(ErrorCode::kCorruptPackage, what + " damaged");
}

// The decoders below are shared by snapshot load and WAL replay: each
// persisted fact has one reader, next to its one writer. A WAL record
// decode additionally requires the reader exhausted — a CRC-valid record
// with bytes left over is damage, never padding.

/// The ISA byte of device and legacy manifest entries. A byte that names no
/// known backend refuses recovery: defaulting would dispatch wrong-ISA
/// images forever.
Status ReadIsa(store::RecordReader& rec, isa::IsaId* isa) {
  uint8_t byte = 0;
  if (!rec.U8(&byte)) return Damaged("isa byte");
  const auto parsed = isa::IsaFromWire(byte);
  if (!parsed) {
    return Status(ErrorCode::kCorruptPackage, "record names an unknown isa");
  }
  *isa = *parsed;
  return Status::Ok();
}

/// Enroll fields {u64 id, u64 seed, u64 group}.
void WriteEnroll(store::RecordWriter& rec, const DeviceInfo& info) {
  rec.U64(info.id);
  rec.U64(info.device_seed);
  rec.U64(info.group);
}

Status ReadEnroll(store::RecordReader& rec, DeviceInfo* info) {
  if (!rec.U64(&info->id) || !rec.U64(&info->device_seed) ||
      !rec.U64(&info->group)) {
    return Damaged("enroll fields");
  }
  return Status::Ok();
}

/// Legacy manifest fields {u64 version, bytes keyfp(32)[, u8 isa]}: read
/// to check them for damage, then dropped.
Status SkipLegacyManifest(store::RecordReader& rec, bool with_isa) {
  uint64_t version = 0;
  std::vector<uint8_t> fingerprint;
  if (!rec.U64(&version) || !rec.Bytes(&fingerprint) ||
      fingerprint.size() != std::tuple_size_v<crypto::Sha256Digest>) {
    return Damaged("manifest fields");
  }
  isa::IsaId isa = isa::IsaId::kRv64Gc;
  return with_isa ? ReadIsa(rec, &isa) : Status::Ok();
}

}  // namespace

/// Everything the persistence mode owns: the open log, the lock that
/// orders mutations against snapshots, and the recovery/report counters.
struct DeviceRegistry::Storage {
  std::string dir;
  RegistryStorageOptions options;
  uint64_t fingerprint = 0;

  store::Wal wal;

  /// Mutators (enroll/revoke/group-create) hold this shared for the span
  /// of {table mutation, WAL append} so a snapshot (exclusive) can never
  /// observe a table state whose WAL record it is about to truncate.
  std::shared_mutex mutation_mutex;
  std::atomic<uint64_t> mutations_since_snapshot{0};
  uint64_t snapshot_sequence = 0;  ///< guarded by exclusive mutation_mutex

  mutable std::mutex info_mutex;
  RegistryStorageInfo info;
};

std::string_view DeviceStatusName(DeviceStatus status) {
  switch (status) {
    case DeviceStatus::kEnrolled: return "enrolled";
    case DeviceStatus::kRevoked: return "revoked";
  }
  return "unknown";
}

DeviceRegistry::~DeviceRegistry() = default;

DeviceRegistry::DeviceRegistry(const RegistryConfig& config)
    : config_(config) {
  // The registry's root secret, from which every group key is derived.
  Xoshiro256 rng(config_.secret_seed);
  for (auto& byte : group_secret_) byte = static_cast<uint8_t>(rng.Next());
}

void DeviceRegistry::KeyGroupAt(GroupId id, uint64_t epoch,
                                GroupState& state) const {
  // Two-stage derivation: a stable per-group key, then the epoch on top,
  // so bumping one group's epoch re-keys it without touching any other
  // group's chain.
  const crypto::Key256 per_group =
      crypto::DeriveKey(group_secret_, "eric.fleet.group", id);
  state.epoch = epoch;
  state.key = crypto::DeriveKey(per_group, "eric.fleet.group.epoch", epoch);
}

SealingContext DeviceRegistry::GroupSealing(const GroupState& state) const {
  SealingContext sealing;
  sealing.key = state.key;
  sealing.config = config_.key_config;
  sealing.config.epoch = state.epoch;
  return sealing;
}

void DeviceRegistry::AddGroupLocked(GroupId id, std::string label) {
  GroupState& state = groups_[id];
  state.label = std::move(label);
  KeyGroupAt(id, config_.key_config.epoch, state);
}

GroupId DeviceRegistry::CreateGroup(std::string label) {
  std::shared_lock<std::shared_mutex> storage_lock;
  if (storage_ != nullptr) {
    storage_lock = std::shared_lock(storage_->mutation_mutex);
  }
  GroupId id;
  {
    std::lock_guard lock(group_mutex_);
    id = next_group_id_++;
    AddGroupLocked(id, label);
  }
  if (storage_ != nullptr) {
    store::RecordWriter rec;
    rec.U64(id);
    rec.Str(label);
    // A group-create that fails to log is still live in memory; callers
    // treating CreateGroup as infallible keep working, and the next
    // snapshot repairs durability. Until then only the label is at risk:
    // recovery rebuilds a group (key and all, both derive from the id)
    // from any enrollment that references it.
    (void)LogMutation(kWalGroupCreate, rec.bytes(), storage_lock);
  }
  return id;
}

void DeviceRegistry::ApplyGroupCreate(GroupId id, std::string label) {
  std::lock_guard lock(group_mutex_);
  next_group_id_ = std::max(next_group_id_, id + 1);
  if (!groups_.contains(id)) AddGroupLocked(id, std::move(label));
}

Status DeviceRegistry::ApplyEnroll(const DeviceInfo& enrolled) {
  const DeviceId id = enrolled.id;
  const GroupId group = enrolled.group;
  // A grouped device enrolls at its group's *current* epoch: key and
  // effective KDF config are read under one lock so a concurrent
  // rotation cannot hand out a new key with an old epoch (or vice
  // versa). Solo devices always enroll at the base epoch.
  SealingContext sealing;
  sealing.config = config_.key_config;
  if (group != kNoGroup) {
    auto group_sealing = WithGroup(
        group, [this](const GroupState& state) -> Result<SealingContext> {
          return GroupSealing(state);
        });
    if (!group_sealing.ok()) return group_sealing.status();
    sealing = *group_sealing;
  }

  // Idempotent replay: a crash between snapshot write and WAL compaction
  // leaves pre-snapshot records in the tail. An id already materialized
  // must simply match; a conflict means the state directory is damaged.
  Status existing = WithRecord(id, [&enrolled](DeviceRecord& record) {
    if (record.info.device_seed != enrolled.device_seed ||
        record.info.group != enrolled.group ||
        record.info.isa != enrolled.isa) {
      return Status(ErrorCode::kCorruptPackage,
                    "replayed enrollment conflicts with existing device");
    }
    return Status::Ok();
  });
  if (existing.code() != ErrorCode::kNotFound) return existing;

  // The expensive part — simulating the silicon and its PUF enrollment —
  // runs outside every lock.
  auto record = std::make_unique<DeviceRecord>();
  record->endpoint = std::make_unique<core::TrustedDevice>(
      enrolled.device_seed, sealing.config, config_.cipher, sim::CpuTiming{},
      enrolled.isa);
  const crypto::Key256 device_key = record->endpoint->Enroll();

  record->info = enrolled;
  if (group != kNoGroup) {
    record->info.conversion_mask =
        core::ApplyConversionMask(device_key, sealing.key);
    ERIC_RETURN_IF_ERROR(record->endpoint->hde().ProvisionConversionMask(
        record->info.conversion_mask));
  } else {
    record->solo_key = device_key;
  }

  // The device's update agent. With storage attached its slot manifest
  // lives under <state_dir>/agent/, so re-enrolling the id during
  // recovery replay re-opens whatever slots the device durably held —
  // delta bases survive the restart. A damaged manifest costs exactly
  // the slots (the device falls back to full deliveries), never the
  // enrollment: torn mid-apply manifests are not damage (Recover rolls
  // them back), a CRC-invalid file is, and is abandoned fail-closed.
  std::string manifest_path;
  if (!agent_dir_.empty()) {
    manifest_path = agent_dir_ + "/slots-" + std::to_string(id) + ".bin";
  }
  record->agent = std::make_unique<agent::UpdateAgent>(id, manifest_path);
  record->agent->SetCrashInjection(
      agent_crash_rate_.load(std::memory_order_relaxed),
      agent_crash_seed_.load(std::memory_order_relaxed));
  if (!manifest_path.empty()) {
    Status recovered = record->agent->Recover();
    if (!recovered.ok()) {
      static auto& agent_resets =
          obs::MetricsRegistry::Global().GetCounter("agent_manifest_resets");
      agent_resets.Add(1);
      record->agent = std::make_unique<agent::UpdateAgent>(id, manifest_path);
    }
  }

  {
    std::unique_lock lock(table_mutex_);
    records_.emplace(id, std::move(record));
  }
  // Process-aggregate fleet size (summed across registries when a
  // process runs several); the replay-idempotence early return above
  // keeps WAL replays from double counting.
  static auto& registry_metrics = obs::MetricsRegistry::Global();
  registry_metrics.GetGauge("fleet_devices_enrolled").Add(1);
  if (enrolled.status == DeviceStatus::kRevoked) {
    registry_metrics.GetGauge("fleet_devices_revoked").Add(1);
  }
  if (group != kNoGroup) {
    bool stale = false;
    {
      std::lock_guard lock(group_mutex_);
      GroupState& state = groups_.at(group);
      state.members.push_back(id);
      if (state.epoch != sealing.config.epoch) {
        stale = true;
        sealing = GroupSealing(state);
      }
    }
    if (stale) {
      // An epoch rotation landed between reading the group's sealing
      // state above and joining the member list just now — its member
      // snapshot missed this device, so nothing else will ever re-key
      // it. Bring it to the current epoch here; a rotation that lands
      // *after* the push_back sees us in the list and re-keys us itself
      // (RekeyMember is atomic per device, so the two cannot interleave
      // into a torn endpoint/mask pair).
      ERIC_RETURN_IF_ERROR(RekeyMember(id, sealing));
    }
  }
  // Replay allocates ids from the log: keep the allocator ahead of every
  // id ever observed.
  DeviceId next = next_device_id_.load(std::memory_order_relaxed);
  while (next <= id && !next_device_id_.compare_exchange_weak(
                           next, id + 1, std::memory_order_relaxed)) {
  }
  return Status::Ok();
}

Result<DeviceId> DeviceRegistry::Enroll(uint64_t device_seed, GroupId group,
                                        isa::IsaId isa) {
  std::shared_lock<std::shared_mutex> storage_lock;
  if (storage_ != nullptr) {
    storage_lock = std::shared_lock(storage_->mutation_mutex);
  }
  DeviceInfo enrolled;
  enrolled.id = next_device_id_.fetch_add(1, std::memory_order_relaxed);
  enrolled.device_seed = device_seed;
  enrolled.group = group;
  enrolled.isa = isa;
  ERIC_RETURN_IF_ERROR(ApplyEnroll(enrolled));
  if (storage_ != nullptr) {
    store::RecordWriter rec;
    WriteEnroll(rec, enrolled);
    rec.U8(static_cast<uint8_t>(isa));
    // Write-ahead contract: the enrollment is only acknowledged (the id
    // returned) once its record is durable per the sync policy. A failed
    // append rolls the enrollment back by parking the record revoked —
    // NOT by erasing it: records are never erased (Dispatch holds raw
    // DeviceRecord pointers across the table lock), and revoked records
    // refuse dispatch and are skipped by campaigns, so the un-logged
    // device can never be served. A later snapshot persists it as a
    // revoked (dead) id, which is what it is. (After an fsync failure
    // the record's durability is unknowable — the WAL poisons itself —
    // and a crash may resurrect the enrollment at replay; that is the
    // standard lost-commit-ack ambiguity, and re-enrolling the seed
    // under a fresh id coexists with the ghost by design.)
    Status logged = LogMutation(kWalEnrollIsa, rec.bytes(), storage_lock);
    if (!logged.ok()) {
      (void)WithRecord<std::unique_lock<std::shared_mutex>>(
          enrolled.id, [](DeviceRecord& record) {
            record.info.status = DeviceStatus::kRevoked;
            return Status::Ok();
          });
      return logged;  // the burned id is never reused, as documented
    }
  }
  return enrolled.id;
}

Result<DeviceInfo> DeviceRegistry::Lookup(DeviceId id) const {
  return WithRecord(id, [](DeviceRecord& record) -> Result<DeviceInfo> {
    return record.info;
  });
}

Status DeviceRegistry::Revoke(DeviceId id) {
  std::shared_lock<std::shared_mutex> storage_lock;
  if (storage_ != nullptr) {
    storage_lock = std::shared_lock(storage_->mutation_mutex);
  }
  // Validate, log, then apply. A revocation must never be visible
  // (another caller could observe it and be told "already revoked")
  // until its record is durable — rolling a visible revocation back
  // after a failed append would un-revoke a device someone already saw
  // revoked. Two racers may both pass validation; both then log and
  // apply, which ApplyRevoke and replay absorb idempotently.
  ERIC_RETURN_IF_ERROR(WithRecord(id, [](DeviceRecord& record) {
    if (record.info.status == DeviceStatus::kRevoked) {
      return Status(ErrorCode::kFailedPrecondition, "device already revoked");
    }
    return Status::Ok();
  }));
  if (storage_ != nullptr) {
    store::RecordWriter rec;
    rec.U64(id);
    ERIC_RETURN_IF_ERROR(storage_->wal.Append(kWalRevoke, rec.bytes()));
  }
  ERIC_RETURN_IF_ERROR(ApplyRevoke(id));
  // Only after the revoke is both durable and applied may an
  // auto-snapshot run — it serializes the table and truncates the log.
  if (storage_ != nullptr) MaybeAutoSnapshot(storage_lock);
  return Status::Ok();
}

Status DeviceRegistry::ApplyRevoke(DeviceId id) {
  return WithRecord<std::unique_lock<std::shared_mutex>>(
      id, [](DeviceRecord& record) {
        if (record.info.status != DeviceStatus::kRevoked) {
          record.info.status = DeviceStatus::kRevoked;
          obs::MetricsRegistry::Global()
              .GetGauge("fleet_devices_revoked")
              .Add(1);
        }
        return Status::Ok();
      });
}

Result<crypto::Key256> DeviceRegistry::GroupKey(GroupId group) const {
  return WithGroup(group,
                   [](const GroupState& state) -> Result<crypto::Key256> {
                     return state.key;
                   });
}

Result<SealingContext> DeviceRegistry::SealingContextFor(DeviceId id) const {
  SealingContext solo;
  solo.config = config_.key_config;
  auto group = WithRecord(id, [&solo](DeviceRecord& record) -> Result<GroupId> {
    solo.key = record.solo_key;
    return record.info.group;
  });
  if (!group.ok()) return group.status();
  if (*group == kNoGroup) return solo;
  // Key and epoch are read together under the group lock: a rotation
  // racing this call lands either wholly before or wholly after.
  return WithGroup(*group,
                   [this](const GroupState& state) -> Result<SealingContext> {
                     return GroupSealing(state);
                   });
}

Result<uint64_t> DeviceRegistry::GroupEpoch(GroupId group) const {
  return WithGroup(group, [](const GroupState& state) -> Result<uint64_t> {
    return state.epoch;
  });
}

Result<GroupRotation> DeviceRegistry::RotateGroupEpoch(GroupId group) {
  if (group == kNoGroup) {
    return Status(ErrorCode::kInvalidArgument,
                  "ungrouped devices have no shared epoch to rotate");
  }
  auto current = GroupEpoch(group);
  if (!current.ok()) return current.status();
  return RotateGroupEpochTo(group, *current + 1);
}

Result<GroupRotation> DeviceRegistry::RotateGroupEpochTo(
    GroupId group, uint64_t target_epoch) {
  if (group == kNoGroup) {
    return Status(ErrorCode::kInvalidArgument,
                  "ungrouped devices have no shared epoch to rotate");
  }
  std::shared_lock<std::shared_mutex> storage_lock;
  if (storage_ != nullptr) {
    storage_lock = std::shared_lock(storage_->mutation_mutex);
  }
  // Validate, log, then apply — the revoke discipline: a bump must never
  // be observable (keys handed out under the new epoch) until its record
  // is durable, or a crash would resurrect the fleet one epoch behind
  // packages already sealed. An advance that turns out to be a no-op by
  // apply time (a racing rotator won) leaves a redundant record the
  // idempotent replay absorbs.
  auto current = GroupEpoch(group);
  if (!current.ok()) return current.status();
  const bool advances = target_epoch > *current;
  if (storage_ != nullptr && advances) {
    store::RecordWriter rec;
    rec.U64(group);
    rec.U64(target_epoch);
    ERIC_RETURN_IF_ERROR(storage_->wal.Append(kWalEpochBump, rec.bytes()));
  }
  auto rotation = ApplyEpochBump(group, target_epoch);
  if (storage_ != nullptr && advances && rotation.ok()) {
    MaybeAutoSnapshot(storage_lock);
  }
  return rotation;
}

Result<GroupRotation> DeviceRegistry::ApplyEpochBump(GroupId group,
                                                     uint64_t target_epoch) {
  GroupRotation rotation;
  rotation.group = group;
  std::vector<DeviceId> members;
  SealingContext sealing;
  {
    std::lock_guard lock(group_mutex_);
    auto it = groups_.find(group);
    if (it == groups_.end()) {
      return Status(ErrorCode::kNotFound, "unknown group");
    }
    GroupState& state = it->second;
    rotation.old_epoch = state.epoch;
    if (target_epoch <= state.epoch) {
      // Idempotent no-op (resume replay). The retired-key fingerprint
      // stays zero: the original rotation may have jumped several
      // epochs, so target-1 is not necessarily the epoch it retired,
      // and its invalidation already ran when the rotation applied.
      rotation.new_epoch = state.epoch;
      return rotation;
    }
    rotation.rotated = true;
    rotation.new_epoch = target_epoch;
    rotation.old_key_fingerprint = crypto::Sha256::Hash(state.key);
    // Publish the new key and epoch together; from here on every
    // SealingContextFor seals under the new epoch.
    KeyGroupAt(group, target_epoch, state);
    sealing = GroupSealing(state);
    members = state.members;
  }

  // Re-provision every member outside the group lock: the KMU config
  // rotation regenerates the PUF key per device, which is the expensive
  // fab-path simulation. A member mid-dispatch finishes its run first
  // (endpoint mutex); its in-flight old-epoch package is then rejected
  // on the next delivery — exactly the invalidation the bump promises.
  for (DeviceId id : members) {
    ERIC_RETURN_IF_ERROR(RekeyMember(id, sealing));
    ++rotation.members_rekeyed;
  }
  return rotation;
}

Status DeviceRegistry::RekeyMember(DeviceId id, const SealingContext& group) {
  // The endpoint mutex is held across the KMU update AND the mask field
  // update, so two racing rekeys (a rotation and an enroll's stale-epoch
  // repair) serialize wholesale — the endpoint and the published
  // conversion mask can never come from different epochs. Taking the
  // table lock inside the endpoint lock cannot deadlock: no path waits
  // on an endpoint mutex while holding the table lock (WithEndpoint
  // releases the table lock before its endpoint wait).
  return WithEndpoint(id, [&](DeviceRecord& record) -> Status {
    auto rotated_key = record.endpoint->hde().RotateKeyConfig(group.config);
    if (!rotated_key.ok()) return rotated_key.status();
    const crypto::Key256 mask =
        core::ApplyConversionMask(*rotated_key, group.key);
    ERIC_RETURN_IF_ERROR(record.endpoint->hde().ProvisionConversionMask(mask));
    std::unique_lock lock(table_mutex_);
    record.info.conversion_mask = mask;
    return Status::Ok();
  });
}

Result<std::vector<DeviceId>> DeviceRegistry::GroupMembers(
    GroupId group) const {
  return WithGroup(
      group, [](const GroupState& state) -> Result<std::vector<DeviceId>> {
        return state.members;
      });
}

std::vector<DeviceId> DeviceRegistry::AllDevices() const {
  std::vector<DeviceId> ids;
  {
    std::shared_lock lock(table_mutex_);
    ids.reserve(records_.size());
    for (const auto& [id, record] : records_) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

Result<core::TrustedRunResult> DeviceRegistry::Dispatch(
    DeviceId id, std::span<const uint8_t> wire_bytes, uint64_t arg0,
    uint64_t arg1, DispatchMeta* meta) {
  // Records are never erased (revocation is a soft delete), so the
  // pointer stays valid after the table lock drops; only the endpoint
  // mutex is held for the (long) device run.
  auto found =
      WithRecord(id, [](DeviceRecord& record) -> Result<DeviceRecord*> {
        if (record.info.status == DeviceStatus::kRevoked) {
          return Status(ErrorCode::kFailedPrecondition, "device revoked");
        }
        return &record;
      });
  if (!found.ok()) return found.status();
  DeviceRecord& record = **found;
  std::lock_guard endpoint_lock(record.endpoint_mutex);
  agent::UpdateAgent& agent = *record.agent;
  // Taken before either path recovers a crashed apply, so a rollback that
  // recovery performs is reported whichever path ran it.
  const agent::AgentCounters before = agent.state().counters;

  // The health check IS the delivery's run: HDE validation plus a short
  // sim execution of the just-flipped image. Its result is captured so
  // a healthy apply reports the run the caller expects.
  Result<core::TrustedRunResult> run =
      Status(ErrorCode::kInternal, "health check never ran");
  const agent::UpdateAgent::HealthCheck health =
      [&](std::span<const uint8_t> booted) -> Status {
    auto executed = record.endpoint->ReceiveAndRun(booted, arg0, arg1);
    if (!executed.ok()) return executed.status();
    run = std::move(executed);
    return Status::Ok();
  };
  const Status applied = [&]() -> Status {
    if (meta == nullptr || !meta->delta) {
      return agent.Apply(wire_bytes, meta != nullptr ? meta->version : 0,
                         meta != nullptr ? meta->key_fingerprint
                                         : crypto::Sha256Digest{},
                         health);
    }
    // A crashed apply must roll back before the base is read, or the
    // patch would target an unproven image the recovery is about to undo.
    if (agent.NeedsRecovery()) ERIC_RETURN_IF_ERROR(agent.Recover());
    std::span<const uint8_t> base = agent.active_image();
    if (base.empty()) {
      // Same code as a corrupt patch: either way the device cannot turn
      // this delta into a runnable image, and the sender must fall back
      // to a full package.
      return Status(ErrorCode::kCorruptPackage,
                    "device retains no base image to patch");
    }
    auto patched = pkg::ApplyDelta(base, wire_bytes);
    if (!patched.ok()) return patched.status();
    return agent.Apply(*patched, meta->version, meta->key_fingerprint, health);
  }();
  if (meta != nullptr) {
    const agent::AgentCounters after = agent.state().counters;
    meta->rolled_back = after.rollbacks > before.rollbacks;
    meta->health_failed = after.health_failures > before.health_failures;
  }
  if (!applied.ok()) return applied;
  return run;
}

Result<AgentInspection> DeviceRegistry::InspectAgent(DeviceId id) {
  return WithEndpoint(id, [](DeviceRecord& record) -> Result<AgentInspection> {
    AgentInspection inspection;
    inspection.state = record.agent->state();
    inspection.active_crc_valid = record.agent->ActiveCrcValid();
    return inspection;
  });
}

Status DeviceRegistry::RecoverAgent(DeviceId id) {
  return WithEndpoint(
      id, [](DeviceRecord& record) { return record.agent->Recover(); });
}

Result<core::TrustedRunResult> DeviceRegistry::RunActiveSlot(DeviceId id,
                                                             uint64_t arg0,
                                                             uint64_t arg1) {
  return WithEndpoint(
      id, [&](DeviceRecord& record) -> Result<core::TrustedRunResult> {
        agent::UpdateAgent& agent = *record.agent;
        if (agent.NeedsRecovery()) {
          ERIC_RETURN_IF_ERROR(agent.Recover());
        }
        std::span<const uint8_t> image = agent.active_image();
        if (image.empty()) {
          return Status(ErrorCode::kFailedPrecondition, "no active slot");
        }
        return record.endpoint->ReceiveAndRun(image, arg0, arg1);
      });
}

Status DeviceRegistry::ArmAgentHealthFailures(DeviceId id, uint32_t count) {
  return WithEndpoint(id, [count](DeviceRecord& record) {
    record.agent->ArmHealthFailures(count);
    return Status::Ok();
  });
}

Status DeviceRegistry::ArmAgentCrash(DeviceId id, agent::CrashPoint point) {
  return WithEndpoint(id, [point](DeviceRecord& record) {
    record.agent->ArmCrash(point);
    return Status::Ok();
  });
}

void DeviceRegistry::SetAgentCrashInjection(double rate, uint64_t seed) {
  agent_crash_rate_.store(rate, std::memory_order_relaxed);
  agent_crash_seed_.store(seed, std::memory_order_relaxed);
  std::vector<DeviceRecord*> records;
  {
    std::shared_lock lock(table_mutex_);
    records.reserve(records_.size());
    for (const auto& [id, record] : records_) records.push_back(record.get());
  }
  for (DeviceRecord* record : records) {
    std::lock_guard endpoint_lock(record->endpoint_mutex);
    record->agent->SetCrashInjection(rate, seed);
  }
}

Result<agent::SlotInfo> DeviceRegistry::DeliveredVersion(DeviceId id) const {
  return WithEndpoint(id, [](DeviceRecord& record) -> Result<agent::SlotInfo> {
    // A flipped apply never proved itself: recovery boots the previous
    // slot, so that is what the device runs.
    const agent::AgentState state = record.agent->state();
    const int slot = state.phase == agent::ApplyPhase::kFlipped
                         ? state.previous_slot
                         : state.active_slot;
    if (slot < 0 || !state.slots[slot].present) {
      return Status(ErrorCode::kFailedPrecondition, "device holds no image");
    }
    return state.slots[slot];
  });
}

RegistryStats DeviceRegistry::Stats() const {
  RegistryStats stats;
  {
    std::shared_lock lock(table_mutex_);
    stats.devices = records_.size();
    for (const auto& [id, record] : records_) {
      if (record->info.status == DeviceStatus::kRevoked) ++stats.revoked;
    }
  }
  {
    std::shared_lock lock(group_mutex_);
    stats.groups = groups_.size();
  }
  return stats;
}

// --- Persistence ---------------------------------------------------------------

uint64_t DeviceRegistry::StorageFingerprint() const {
  // FNV-1a over every configuration field recovery correctness depends
  // on: key derivation (secret seed, KDF domain/epoch/binding, cipher).
  // The leading field once held the shard count; it keeps that count's
  // old default so directories written under it still open.
  store::RecordWriter rec;
  rec.U64(kLegacyShardLogs);
  rec.U64(config_.secret_seed);
  rec.U64(config_.key_config.epoch);
  rec.U64(config_.key_config.environment_binding);
  rec.Str(config_.key_config.domain);
  rec.U8(static_cast<uint8_t>(config_.cipher));
  return store::Fnv1a64(rec.bytes());
}

Status DeviceRegistry::OpenStorage(const std::string& state_dir,
                                   const RegistryStorageOptions& options) {
  if (storage_ != nullptr) {
    return Status(ErrorCode::kFailedPrecondition, "storage already attached");
  }
  {
    std::shared_lock lock(group_mutex_);
    if (!groups_.empty() ||
        next_device_id_.load(std::memory_order_relaxed) != 1) {
      return Status(ErrorCode::kFailedPrecondition,
                    "OpenStorage requires an empty registry");
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(state_dir, ec);
  if (ec) {
    return Status(ErrorCode::kInternal,
                  "cannot create state dir " + state_dir + ": " + ec.message());
  }

  // Device agents persist slot manifests here; the directory must exist
  // (and the member be set) before replay re-enrolls the first device,
  // because ApplyEnroll re-opens each device's manifest — that is how
  // delta bases survive a restart.
  agent_dir_ = state_dir + "/agent";
  std::filesystem::create_directories(agent_dir_, ec);
  if (ec) {
    agent_dir_.clear();
    return Status(ErrorCode::kInternal, "cannot create agent dir under " +
                                            state_dir + ": " + ec.message());
  }

  // Attached up front: the legacy-layout migration below snapshots
  // through it. Replay itself applies records without logging them.
  storage_ = std::make_unique<Storage>();
  storage_->dir = state_dir;
  storage_->options = options;
  storage_->fingerprint = StorageFingerprint();
  const uint64_t fingerprint = storage_->fingerprint;
  RegistryStorageInfo& info = storage_->info;
  info.attached = true;
  const auto start = std::chrono::steady_clock::now();

  // The whole recovery pass runs inside one fallible block so a failure
  // partway (damaged snapshot schema, a bad log, an open error) can
  // unwind every table it half-populated — the caller may repair the
  // directory and retry OpenStorage on this same object, and must never
  // be left serving a partial fleet with no log attached.
  // Epoch bumps (from the snapshot's group epochs and from kEpochBump
  // records) are collected here and applied only after every enrollment
  // has replayed: a bump re-provisions member endpoints, so it must see
  // the full membership. Monotonic max per group — replaying the final
  // epoch once is equivalent to replaying the whole bump history.
  std::unordered_map<GroupId, uint64_t> pending_epochs;
  Status recovery = [&]() -> Status {
  // 1. Newest valid snapshot seeds the table.
  auto snapshot =
      store::LoadLatestSnapshot(state_dir, kSnapshotPrefix, fingerprint);
  if (!snapshot.ok()) return snapshot.status();
  if (snapshot->found) {
    store::RecordReader rec(snapshot->payload);
    uint32_t version = 0;
    uint64_t group_count = 0;
    if (!rec.U32(&version) || version < kSnapshotVersionNoEpochs ||
        version > kSnapshotVersion || !rec.U64(&group_count)) {
      return Damaged("snapshot schema");
    }
    for (uint64_t i = 0; i < group_count; ++i) {
      uint64_t id = 0;
      uint64_t epoch = config_.key_config.epoch;
      std::string label;
      if (!rec.U64(&id) || !rec.Str(&label) ||
          (version >= kSnapshotVersionNoManifests && !rec.U64(&epoch))) {
        return Damaged("snapshot group");
      }
      if (epoch > config_.key_config.epoch) {
        uint64_t& pending = pending_epochs[id];
        pending = std::max(pending, epoch);
      }
      ApplyGroupCreate(id, std::move(label));
    }
    uint64_t device_count = 0;
    if (!rec.U64(&device_count)) return Damaged("snapshot schema");
    for (uint64_t i = 0; i < device_count; ++i) {
      // v4 adds the device ISA byte (pre-ISA snapshots hold RV64GC
      // fleets); v3 and v4 end with an optional legacy manifest.
      DeviceInfo enrolled;
      uint8_t status = 0;
      ERIC_RETURN_IF_ERROR(ReadEnroll(rec, &enrolled));
      if (!rec.U8(&status)) return Damaged("snapshot device");
      if (version >= kSnapshotVersionManifestIsa) {
        ERIC_RETURN_IF_ERROR(ReadIsa(rec, &enrolled.isa));
      }
      enrolled.status = status == static_cast<uint8_t>(DeviceStatus::kRevoked)
                            ? DeviceStatus::kRevoked
                            : DeviceStatus::kEnrolled;
      ERIC_RETURN_IF_ERROR(ApplyEnroll(enrolled));
      const bool legacy_manifest = version == kSnapshotVersionNoIsa ||
                                   version == kSnapshotVersionManifestIsa;
      uint8_t has_manifest = 0;
      if (legacy_manifest && !rec.U8(&has_manifest)) {
        return Damaged("snapshot device");
      }
      if (has_manifest != 0) {
        ERIC_RETURN_IF_ERROR(SkipLegacyManifest(
            rec, version == kSnapshotVersionManifestIsa));
      }
    }
    if (!rec.Exhausted()) {
      return Status(ErrorCode::kCorruptPackage, "snapshot trailing bytes");
    }
    info.snapshot_loaded = true;
    info.snapshot_sequence = snapshot->sequence;
    storage_->snapshot_sequence = snapshot->sequence;
  }

  // 2. The logs on top. One decoder serves registry.wal and the older
  // layout's logs. Revocations whose device is not yet materialized are
  // deferred until every enrollment has replayed: Enroll publishes the
  // record to readers before its append, so a revoke racing the tail of
  // an enrollment can land in the log first.
  std::vector<DeviceId> deferred_revokes;
  const auto apply_record = [&](uint8_t type,
                                const std::vector<uint8_t>& payload) -> Status {
    store::RecordReader rec(payload);
    if (type == kWalEnroll || type == kWalEnrollIsa) {
      // Type-1 records predate heterogeneous fleets: RV64GC.
      DeviceInfo enrolled;
      ERIC_RETURN_IF_ERROR(ReadEnroll(rec, &enrolled));
      if (type == kWalEnrollIsa) {
        ERIC_RETURN_IF_ERROR(ReadIsa(rec, &enrolled.isa));
      }
      if (!rec.Exhausted()) return Damaged("enroll record");
      Status applied = ApplyEnroll(enrolled);
      if (applied.code() == ErrorCode::kNotFound &&
          enrolled.group != kNoGroup) {
        // The enrollment outlived its group-create record (a torn log
        // tail, or the group append failed while the enroll append
        // succeeded). Group keys derive from the group *id*, not the
        // label, so the group can be rebuilt losslessly — only the
        // display label is gone. Refusing here would brick the whole
        // state directory over a cosmetic loss.
        ApplyGroupCreate(enrolled.group,
                         "recovered-group-" + std::to_string(enrolled.group));
        applied = ApplyEnroll(enrolled);
      }
      return applied;
    }
    if (type == kWalRevoke) {
      uint64_t id = 0;
      if (!rec.U64(&id) || !rec.Exhausted()) return Damaged("revoke record");
      if (!ApplyRevoke(id).ok()) deferred_revokes.push_back(id);
      return Status::Ok();
    }
    if (type == kWalManifest || type == kWalManifestIsa) {
      uint64_t id = 0;
      if (!rec.U64(&id)) return Damaged("manifest record");
      ERIC_RETURN_IF_ERROR(SkipLegacyManifest(rec, type == kWalManifestIsa));
      if (!rec.Exhausted()) return Damaged("manifest record");
      return Status::Ok();
    }
    if (type == kWalGroupCreate) {
      uint64_t id = 0;
      std::string label;
      if (!rec.U64(&id) || !rec.Str(&label) || !rec.Exhausted()) {
        return Damaged("group-create record");
      }
      ApplyGroupCreate(id, std::move(label));
      return Status::Ok();
    }
    if (type == kWalEpochBump) {
      uint64_t group = 0, epoch = 0;
      if (!rec.U64(&group) || !rec.U64(&epoch) || !rec.Exhausted()) {
        return Damaged("epoch-bump record");
      }
      ++info.epoch_bumps_replayed;
      uint64_t& pending = pending_epochs[group];
      pending = std::max(pending, epoch);
      return Status::Ok();
    }
    return Status(ErrorCode::kCorruptPackage,
                  "unknown registry-log record type");
  };
  // `group_log` marks the older groups.wal, which numbered its group
  // create and epoch bump 1 and 2.
  const auto replay_log = [&](const std::string& path,
                              bool group_log) -> Status {
    auto replayed = store::Wal::Replay(
        path,
        [&](const store::WalRecord& record) -> Status {
          uint8_t type = record.type;
          if (group_log) {
            type = type == 1 ? kWalGroupCreate
                 : type == 2 ? kWalEpochBump
                             : 0;
          }
          return apply_record(type, record.payload);
        },
        fingerprint);
    if (!replayed.ok()) return replayed.status();
    info.wal_records_replayed += replayed->records;
    info.tail_bytes_truncated += replayed->bytes_truncated;
    if (replayed->tail_corrupted) ++info.corrupt_tails;
    return Status::Ok();
  };
  // The older layout replays first: groups.wal (enrollments reference
  // groups), then the shard logs in index order.
  std::vector<std::string> legacy_logs = {state_dir + "/groups.wal"};
  for (uint64_t shard = 0; shard < kLegacyShardLogs; ++shard) {
    legacy_logs.push_back(state_dir + "/shard-" + std::to_string(shard) +
                          ".wal");
  }
  bool legacy_layout = false;
  for (const std::string& path : legacy_logs) {
    legacy_layout = std::filesystem::exists(path, ec) || legacy_layout;
    ERIC_RETURN_IF_ERROR(replay_log(path, path == legacy_logs.front()));
  }
  const std::string wal_path = state_dir + "/" + kWalName;
  ERIC_RETURN_IF_ERROR(replay_log(wal_path, false));
  // Every enrollment is in. A deferred revoke that still names an
  // unknown device is an orphan: its enrollment's append failed and was
  // rolled back (or lost to a torn tail), so the device never durably
  // existed and the revocation of nothing is a no-op — refusing to open
  // the whole state directory over it would turn a benign race into a
  // bricked fleet. Counted, not hidden.
  for (DeviceId id : deferred_revokes) {
    if (!ApplyRevoke(id).ok()) ++info.orphan_revokes_dropped;
  }

  // Every enrollment and revocation is in: re-rotate each bumped group
  // to its final recorded epoch (key re-derivation + member KMU
  // re-provisioning). A bump for a group nothing else references — its
  // create record and every member enrollment lost — rotates nothing and
  // is dropped as a counted no-op.
  for (const auto& [group, epoch] : pending_epochs) {
    auto bumped = ApplyEpochBump(group, epoch);
    if (bumped.status().code() == ErrorCode::kNotFound) {
      ++info.orphan_epoch_bumps_dropped;
      continue;
    }
    if (!bumped.ok()) return bumped.status();
  }

  // Members join in replay order, which is not enrollment order: a
  // snapshot lists devices in table order, and concurrent enrollments can
  // append out of id order. Ids are allocated sequentially, so id order
  // restores enrollment order.
  {
    std::lock_guard lock(group_mutex_);
    for (auto& [id, group] : groups_) {
      std::sort(group.members.begin(), group.members.end());
    }
  }

  // 3. Open the log for appending; every future mutation is logged.
  ERIC_RETURN_IF_ERROR(storage_->wal.Open(wal_path, {}, fingerprint));

  // 4. An older layout is folded into one snapshot, then its logs are
  // removed. A crash in between leaves logs whose every record the
  // snapshot already holds: replay absorbs them idempotently, and the
  // next open folds them again.
  if (legacy_layout) {
    ERIC_RETURN_IF_ERROR(Snapshot());
    for (const std::string& path : legacy_logs) {
      std::filesystem::remove(path, ec);
      if (ec) {
        return Status(ErrorCode::kInternal,
                      "cannot remove " + path + ": " + ec.message());
      }
    }
  }
  return Status::Ok();
  }();
  if (!recovery.ok()) {
    {
      std::unique_lock lock(table_mutex_);
      records_.clear();
    }
    std::lock_guard lock(group_mutex_);
    groups_.clear();
    next_group_id_ = 1;
    next_device_id_.store(1, std::memory_order_relaxed);
    agent_dir_.clear();  // agents go memory-only until a retry succeeds
    storage_.reset();
    return recovery;
  }

  const auto stats = Stats();
  info.devices_recovered = stats.devices;
  info.groups_recovered = stats.groups;
  info.recovery_ms = MillisecondsSince(start);
  return Status::Ok();
}

std::vector<uint8_t> DeviceRegistry::SerializeSnapshotLocked() const {
  store::RecordWriter rec;
  rec.U32(kSnapshotVersion);
  {
    std::shared_lock lock(group_mutex_);
    rec.U64(groups_.size());
    for (const auto& [id, group] : groups_) {
      rec.U64(id);
      rec.Str(group.label);
      rec.U64(group.epoch);
    }
  }
  {
    std::shared_lock lock(table_mutex_);
    rec.U64(records_.size());
    for (const auto& [id, record] : records_) {
      WriteEnroll(rec, record->info);
      rec.U8(static_cast<uint8_t>(record->info.status));
      rec.U8(static_cast<uint8_t>(record->info.isa));
    }
  }
  return rec.Take();
}

Status DeviceRegistry::SnapshotLocked() {
  const std::vector<uint8_t> payload = SerializeSnapshotLocked();
  const uint64_t sequence = ++storage_->snapshot_sequence;
  ERIC_RETURN_IF_ERROR(store::WriteSnapshot(storage_->dir, kSnapshotPrefix,
                                            sequence, storage_->fingerprint,
                                            payload));
  // Compaction: every logged mutation is now covered by the snapshot.
  // (A crash before this truncate leaves stale records in the tail;
  // replay is idempotent against exactly that.)
  ERIC_RETURN_IF_ERROR(storage_->wal.TruncateAll());
  storage_->mutations_since_snapshot.store(0, std::memory_order_relaxed);
  {
    std::lock_guard lock(storage_->info_mutex);
    ++storage_->info.snapshots_written;
  }
  return Status::Ok();
}

Status DeviceRegistry::Snapshot() {
  if (storage_ == nullptr) {
    return Status(ErrorCode::kFailedPrecondition, "storage not attached");
  }
  std::unique_lock lock(storage_->mutation_mutex);
  return SnapshotLocked();
}

Status DeviceRegistry::LogMutation(
    uint8_t type, std::span<const uint8_t> payload,
    std::shared_lock<std::shared_mutex>& storage_lock) {
  ERIC_RETURN_IF_ERROR(storage_->wal.Append(type, payload));
  MaybeAutoSnapshot(storage_lock);
  return Status::Ok();
}

void DeviceRegistry::MaybeAutoSnapshot(
    std::shared_lock<std::shared_mutex>& storage_lock) {
  const uint64_t mutations =
      storage_->mutations_since_snapshot.fetch_add(1,
                                                   std::memory_order_relaxed) +
      1;
  if (storage_->options.snapshot_every > 0 &&
      mutations >= storage_->options.snapshot_every) {
    // Trade the shared lock for the exclusive one; whoever wins the race
    // snapshots, the rest see the reset counter and move on.
    storage_lock.unlock();
    {
      std::unique_lock exclusive(storage_->mutation_mutex);
      if (storage_->mutations_since_snapshot.load(std::memory_order_relaxed) >=
          storage_->options.snapshot_every) {
        // The triggering mutation is already durable in its WAL; a
        // failed snapshot only delays compaction. Reporting it as the
        // mutation's failure would tell the caller a committed
        // enrollment failed — record it on the side instead.
        Status snapped = SnapshotLocked();
        if (!snapped.ok()) {
          std::lock_guard info_lock(storage_->info_mutex);
          ++storage_->info.snapshot_failures;
          storage_->info.last_snapshot_error = snapped;
        }
      }
    }
    storage_lock.lock();
  }
}

RegistryStorageInfo DeviceRegistry::storage_info() const {
  if (storage_ == nullptr) return RegistryStorageInfo{};
  std::lock_guard lock(storage_->info_mutex);
  return storage_->info;
}

}  // namespace eric::fleet
