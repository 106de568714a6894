// Fleet device registry: the distribution service's view of every enrolled
// device (Sec. III.1 scaled out).
//
// The paper's software source holds ONE device's PUF-based key, obtained
// through a fab-time handshake. A production distribution service holds
// millions of them. This registry is that database: per-device key
// material recorded at enrollment, group membership (the paper's
// conversion-mask mechanism, so one compile serves a whole fleet), and a
// revocation bit.
//
// Concurrency model: one record table under one reader-writer lock, held
// only for table lookups and inserts. Each record additionally owns the
// *simulated* device endpoint (the HDE + SoC that would sit on the far
// side of the network) behind its own mutex, so concurrent campaigns can
// dispatch to distinct devices fully in parallel.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "agent/update_agent.h"
#include "core/group_key.h"
#include "core/trusted_execution.h"
#include "crypto/kdf.h"
#include "support/rng.h"
#include "support/status.h"

namespace eric::fleet {

/// Registry-assigned unique device identifier (never reused).
using DeviceId = uint64_t;
/// Registry-assigned device-group identifier.
using GroupId = uint64_t;

/// Sentinel: device enrolled on its own PUF-based key, no group.
inline constexpr GroupId kNoGroup = 0;

/// Lifecycle state of an enrolled device.
enum class DeviceStatus : uint8_t {
  kEnrolled,  ///< live: accepts dispatch
  kRevoked,   ///< revoked: refuses dispatch, skipped by campaigns
};

/// Stable display name of a DeviceStatus.
std::string_view DeviceStatusName(DeviceStatus status);

/// Public registry view of one device (no endpoint handle, safe to copy).
struct DeviceInfo {
  DeviceId id = 0;            ///< registry-assigned identifier
  uint64_t device_seed = 0;   ///< fab-time PUF process seed
  GroupId group = kNoGroup;   ///< owning group (kNoGroup when solo)
  DeviceStatus status = DeviceStatus::kEnrolled;  ///< lifecycle state
  /// ISA the device's core executes, fixed at enrollment (it is
  /// silicon). Campaigns compile per ISA; the HDE rejects foreign
  /// images. Persisted with the enrollment; devices enrolled before the
  /// field existed recover as kRv64Gc.
  isa::IsaId isa = isa::IsaId::kRv64Gc;
  /// Public KMU conversion mask (all-zero for ungrouped devices).
  crypto::Key256 conversion_mask{};
};

/// Per-dispatch metadata between the deployment engine and the device's
/// update agent. The in-fields label the delivered image in the agent's
/// slot manifest; the out-fields report what the agent's state machine
/// did, so the engine can account rollbacks and apply the delta
/// fallback's retry-budget rule to post-delivery health failures.
struct DispatchMeta {
  // -- in --
  /// The wire bytes are a delta package against the agent's active slot
  /// image rather than a full package.
  bool delta = false;
  /// Program-version fingerprint of the delivered build (0 when the
  /// caller does not track versions; the slot still records the image).
  uint64_t version = 0;
  /// SHA-256 fingerprint of the sealing key the image was built under.
  crypto::Sha256Digest key_fingerprint{};
  // -- out --
  /// The agent undid a flip during this dispatch: a post-apply health
  /// failure, or the recovery of an earlier crashed apply (on the delta
  /// path as on the full one).
  bool rolled_back = false;
  /// The post-apply health check rejected the image after a clean
  /// stage/verify/flip — the delivery itself succeeded.
  bool health_failed = false;
};

/// One device's agent state plus the recomputed active-slot CRC verdict —
/// what the chaos soak's joint-invariant sweep asserts per device.
struct AgentInspection {
  agent::AgentState state;
  /// Active slot bytes re-hashed now and compared against the manifest
  /// CRC (vacuously true when no slot is active: no image ≠ torn image).
  bool active_crc_valid = true;
};

/// Everything a software source needs to seal a package for one device:
/// the deployment key and the KDF configuration (epoch included) the
/// device's KMU will derive under. The two fields are read atomically
/// with respect to key-epoch rotation, so a sealer can never pair an old
/// key with a new epoch stamp.
struct SealingContext {
  /// Deployment key: the group key for grouped devices, the device's own
  /// PUF-based key otherwise.
  crypto::Key256 key{};
  /// KDF config at the device's current epoch (stamped into the package).
  crypto::KeyConfig config;
};

/// Result of one group key-epoch rotation (or its idempotent no-op).
struct GroupRotation {
  GroupId group = kNoGroup;    ///< the rotated group
  uint64_t old_epoch = 0;      ///< group epoch before this call
  uint64_t new_epoch = 0;      ///< group epoch after this call
  /// False when the group already sat at or past the target epoch (an
  /// idempotent resume replay); no endpoint was touched.
  bool rotated = false;
  /// Member endpoints whose KMU config and conversion mask were
  /// re-provisioned under the new epoch (revoked members included, so a
  /// later un-revoke policy cannot resurrect a stale-epoch device).
  size_t members_rekeyed = 0;
  /// SHA-256 fingerprint of the deployment key this rotation retired —
  /// the PackageCache's targeted-invalidation address (FingerprintKey).
  /// Only meaningful when `rotated`: a no-op replay cannot know which
  /// epoch the original rotation retired (the target may have been a
  /// multi-epoch jump), so it reports all-zero and callers skip the
  /// invalidation — which already happened when the rotation applied.
  crypto::Sha256Digest old_key_fingerprint{};
};

/// Aggregate registry counters.
struct RegistryStats {
  size_t devices = 0;  ///< total enrolled devices (incl. revoked)
  size_t revoked = 0;  ///< devices in the revoked state
  size_t groups = 0;   ///< groups created
};

/// Registry construction parameters.
struct RegistryConfig {
  crypto::KeyConfig key_config;  ///< KDF domain/epoch for device keys
  core::CipherKind cipher = core::CipherKind::kXor;  ///< fleet-wide cipher
  /// Seeds the registry's group-key secret (deterministic for tests).
  uint64_t secret_seed = 0x5ECB007;
};

/// Durability knobs for a registry state directory.
struct RegistryStorageOptions {
  /// Auto-snapshot (and compact the log) after this many mutations;
  /// 0 = snapshot only when Snapshot() is called explicitly.
  uint64_t snapshot_every = 0;
};

/// What recovery found when storage was opened, plus live counters.
struct RegistryStorageInfo {
  bool attached = false;         ///< true once OpenStorage succeeded
  bool snapshot_loaded = false;  ///< a valid snapshot seeded recovery
  uint64_t snapshot_sequence = 0;   ///< sequence of the loaded snapshot
  uint64_t devices_recovered = 0;   ///< devices rebuilt from disk
  uint64_t groups_recovered = 0;    ///< groups rebuilt from disk
  uint64_t wal_records_replayed = 0;  ///< WAL records applied on top
  uint64_t tail_bytes_truncated = 0;  ///< torn/corrupt WAL tail dropped
  uint64_t corrupt_tails = 0;    ///< logs that needed tail repair
  /// Revocations replayed for a device that never durably enrolled
  /// (its enrollment's append failed or was torn off): dropped as
  /// no-ops rather than refusing recovery.
  uint64_t orphan_revokes_dropped = 0;
  /// kEpochBump records replayed from the log (each re-rotates the
  /// named group's epoch; counted before dedup, so this is the journal's
  /// bump history length, not the number of distinct rotated groups).
  uint64_t epoch_bumps_replayed = 0;
  /// Epoch bumps replayed for a group no surviving record references
  /// (its create record and every member enrollment were lost): dropped
  /// as no-ops rather than refusing recovery.
  uint64_t orphan_epoch_bumps_dropped = 0;
  uint64_t snapshots_written = 0;  ///< snapshots written since open
  /// Auto-snapshots that failed. The triggering mutation itself is
  /// durable and reported successful — the log simply stays uncompacted
  /// until the next snapshot succeeds.
  uint64_t snapshot_failures = 0;
  Status last_snapshot_error;    ///< most recent auto-snapshot failure
  double recovery_ms = 0;        ///< wall time of the recovery pass
};

/// The device registry.
///
/// Thread-safe: all public methods except OpenStorage may be called
/// concurrently.
class DeviceRegistry {
 public:
  /// Builds an empty registry; `config` fixes key derivation and cipher
  /// for the registry's lifetime.
  explicit DeviceRegistry(const RegistryConfig& config = {});

  /// Closes the attached storage (final sync included), if any.
  ~DeviceRegistry();

  /// Creates a device group with a fresh group key. The key is what the
  /// software source receives through the (assumed) handshake.
  GroupId CreateGroup(std::string label);

  /// Enrolls a device: simulates the fab step (PUF enrollment, helper-data
  /// generation) and, when `group` is not kNoGroup, provisions the KMU
  /// conversion mask binding the device onto the group key. `isa` is the
  /// device's execution ISA (silicon property, immutable after enroll).
  Result<DeviceId> Enroll(uint64_t device_seed, GroupId group = kNoGroup,
                          isa::IsaId isa = isa::IsaId::kRv64Gc);

  /// Public view of one device. kNotFound for unknown ids.
  Result<DeviceInfo> Lookup(DeviceId id) const;

  /// Marks a device revoked. Revoked devices refuse dispatch and are
  /// reported (not retried) by deployment campaigns.
  /// kNotFound for unknown ids, kFailedPrecondition if already revoked.
  Status Revoke(DeviceId id);

  /// The shared deployment key of `group`. kNotFound for unknown groups.
  Result<crypto::Key256> GroupKey(GroupId group) const;

  /// The deployment key and effective KDF config for sealing packages to
  /// `id`, read atomically against epoch rotation. kNotFound for unknown
  /// ids. This is what campaign sealers must use — the registry-wide
  /// key_config() carries the base epoch only.
  Result<SealingContext> SealingContextFor(DeviceId id) const;

  /// The current key epoch of `group`. kNotFound for unknown groups.
  Result<uint64_t> GroupEpoch(GroupId group) const;

  /// Bumps `group`'s key epoch by one: derives the next epoch's group
  /// key, re-provisions every member's KMU config and conversion mask,
  /// and (when storage is attached) write-ahead logs the bump as a
  /// kEpochBump record *before* applying it, so recovery replays the
  /// rotation. Packages sealed under the old epoch are rejected by the
  /// members' HDEs from this call on; callers invalidate the matching
  /// PackageCache entries with the returned old-key fingerprint and
  /// redeploy (fleet::RotationCampaign drives the whole sequence).
  /// kInvalidArgument for kNoGroup, kNotFound for unknown groups.
  Result<GroupRotation> RotateGroupEpoch(GroupId group);

  /// Rotates `group` to an explicit `target_epoch`. A target at or below
  /// the current epoch is an idempotent no-op (rotated=false) — the form
  /// a resumed rotation campaign uses so a crash between the durable
  /// bump and the redeploy can never bump twice.
  Result<GroupRotation> RotateGroupEpochTo(GroupId group,
                                           uint64_t target_epoch);

  /// Member ids in enrollment order (includes revoked members).
  Result<std::vector<DeviceId>> GroupMembers(GroupId group) const;

  /// Every enrolled device id (revoked included), ascending. Ids are
  /// allocated sequentially, so ascending id order is enrollment order —
  /// the order a recovered fleet reconstructs campaigns against.
  std::vector<DeviceId> AllDevices() const;

  /// Delivers wire bytes to the device's update agent, which applies
  /// them through its staged A/B-slot state machine: stage into the
  /// inactive slot, verify CRC, flip the active slot, then health-check
  /// via the endpoint (HDE validation + a short sim run). A failed
  /// health check rolls back to the previous slot automatically. Fails
  /// with kFailedPrecondition for revoked devices. On success the
  /// active slot holds the delivered image — durably, when storage is
  /// attached — as the base for future delta deliveries.
  ///
  /// With `meta->delta` set the bytes are a delta package: the device
  /// patches its active slot image first, then applies the result as
  /// above. That fails closed with kCorruptPackage — no partial image,
  /// nothing executed — when the agent holds no active slot (fresh
  /// enrollment, or a device whose slot manifest was lost), when the
  /// delta's base CRC does not match the active image, or when the
  /// delta itself is corrupt.
  Result<core::TrustedRunResult> Dispatch(DeviceId id,
                                          std::span<const uint8_t> wire_bytes,
                                          uint64_t arg0 = 0,
                                          uint64_t arg1 = 0,
                                          DispatchMeta* meta = nullptr);

  /// The device agent's slot state plus a fresh active-slot CRC check.
  /// Works on revoked devices too (an invariant sweep inspects the whole
  /// fleet). kNotFound for unknown ids.
  Result<AgentInspection> InspectAgent(DeviceId id);

  /// Completes whatever apply a crash interrupted on the device's agent
  /// (rolling back an unconfirmed flip) and persists the result.
  /// Idempotent; works on revoked devices. kNotFound for unknown ids.
  Status RecoverAgent(DeviceId id);

  /// Re-runs the active slot's image through the device endpoint without
  /// touching the slots — the "every rollback leaves a runnable slot"
  /// probe. kFailedPrecondition when no slot is active; a stale-epoch
  /// image fails here exactly as it would on a real boot (HDE rejects).
  /// Works on revoked devices (inspection, not delivery).
  Result<core::TrustedRunResult> RunActiveSlot(DeviceId id, uint64_t arg0 = 0,
                                               uint64_t arg1 = 0);

  /// Test/soak hook: the device's agent fails its next `count` health
  /// checks (a device that boots the update and fails self-test).
  Status ArmAgentHealthFailures(DeviceId id, uint32_t count);

  /// Test/soak hook: the device's agent simulates a one-shot power cut
  /// at `point` during its next apply.
  Status ArmAgentCrash(DeviceId id, agent::CrashPoint point);

  /// Chaos-soak hook: every device agent (current and future enrolls)
  /// draws a crash-mid-apply with probability `rate` per apply, seeded
  /// deterministically from `seed` and the device id.
  void SetAgentCrashInjection(double rate, uint64_t seed);

  /// What the device runs: the slot entry (version and key
  /// fingerprint) of the image its agent's recovery would leave active —
  /// the previous slot while a crashed apply sits flipped but unproven,
  /// the active slot otherwise. This is the base a delta delivery
  /// patches. Reads the agent without recovering it. kNotFound for
  /// unknown ids; kFailedPrecondition when the device holds no image.
  Result<agent::SlotInfo> DeliveredVersion(DeviceId id) const;

  /// Aggregate counters (devices, revocations, groups).
  RegistryStats Stats() const;

  /// Attaches durable state under `state_dir` (created if missing) and
  /// recovers whatever a previous process left there: the newest valid
  /// snapshot is loaded, then the registry.wal tail is replayed on top
  /// (a torn or corrupt tail is truncated, never applied). Must be called
  /// on an empty registry, with no other call in flight; after it
  /// returns, every enroll/revoke/group mutation is write-ahead logged
  /// before it is acknowledged.
  ///
  /// A directory in the older layout (groups.wal plus sixteen
  /// shard-K.wal logs) replays those logs before registry.wal, then is
  /// folded into one snapshot and the older logs are removed.
  ///
  /// The state directory stores no key material: keys re-derive from
  /// this registry's RegistryConfig plus the logged enrollment seeds, and
  /// a fingerprint in every file refuses recovery under a configuration
  /// (KDF domain/epoch, cipher, secret seed) that would derive different
  /// keys.
  Status OpenStorage(const std::string& state_dir,
                     const RegistryStorageOptions& options = {});

  /// Serializes the full table to a new snapshot and compacts (truncates)
  /// the log. Blocks mutations for the duration. kFailedPrecondition
  /// when storage is not attached.
  Status Snapshot();

  /// Recovery results and persistence counters (zero-valued defaults
  /// when storage was never attached).
  RegistryStorageInfo storage_info() const;

  /// Key-derivation parameters every enrollment used.
  const crypto::KeyConfig& key_config() const { return config_.key_config; }
  /// Cipher packages for this fleet are sealed with.
  core::CipherKind cipher() const { return config_.cipher; }

 private:
  struct DeviceRecord {
    DeviceInfo info;
    /// A solo device's deployment key: its own PUF-based key. Grouped
    /// records leave it zero — their key lives in GroupState.
    crypto::Key256 solo_key{};
    /// Serializes runs on the simulated endpoint (a physical device only
    /// processes one package at a time).
    std::mutex endpoint_mutex;
    std::unique_ptr<core::TrustedDevice> endpoint;
    /// The device-side update agent: A/B slots, staged apply, rollback.
    /// Its active slot is the base a delta delivery patches. Guarded by
    /// endpoint_mutex; when registry storage is attached the agent
    /// persists its slot manifest under <state_dir>/agent/, so the base
    /// survives daemon restarts.
    std::unique_ptr<agent::UpdateAgent> agent;
  };

  /// One group's control-plane state. `epoch` and `key` only change
  /// together (KeyGroupAt, under an exclusive group_mutex_), so a reader
  /// holding group_mutex_ always sees a matching pair.
  struct GroupState {
    std::string label;
    uint64_t epoch = 0;     ///< current KDF epoch
    crypto::Key256 key{};   ///< group key derived under `epoch`
    std::vector<DeviceId> members;
  };

  /// Durable-state bundle, allocated by OpenStorage.
  struct Storage;

  /// Runs `fn(record)` under the table lock — shared by default,
  /// exclusive when `Lock` is std::unique_lock — and returns its Status
  /// or Result. kNotFound for unknown ids.
  template <typename Lock = std::shared_lock<std::shared_mutex>, typename Fn>
  auto WithRecord(DeviceId id, Fn&& fn) const
      -> decltype(fn(std::declval<DeviceRecord&>())) {
    Lock lock(table_mutex_);
    auto it = records_.find(id);
    if (it == records_.end()) {
      return Status(ErrorCode::kNotFound, "unknown device");
    }
    return fn(*it->second);
  }
  /// Runs `fn(record)` holding only `id`'s endpoint mutex (revoked
  /// records included). Records are never erased, so the record
  /// outlives the table-lock drop. kNotFound for unknown ids.
  template <typename Fn>
  auto WithEndpoint(DeviceId id, Fn&& fn) const
      -> decltype(fn(std::declval<DeviceRecord&>())) {
    auto record =
        WithRecord(id, [](DeviceRecord& found) -> Result<DeviceRecord*> {
          return &found;
        });
    if (!record.ok()) return record.status();
    std::lock_guard endpoint_lock((*record)->endpoint_mutex);
    return fn(**record);
  }
  /// Runs `fn(state)` under a shared group_mutex_. kNotFound for unknown
  /// groups.
  template <typename Fn>
  auto WithGroup(GroupId group, Fn&& fn) const
      -> decltype(fn(std::declval<const GroupState&>())) {
    std::shared_lock lock(group_mutex_);
    auto it = groups_.find(group);
    if (it == groups_.end()) {
      return Status(ErrorCode::kNotFound, "unknown group");
    }
    return fn(it->second);
  }

  /// Materializes one device record (endpoint simulation included) from
  /// its enrollment fields (id, seed, group, status, isa) — the shared
  /// body of Enroll and of recovery replay. Never touches the WAL.
  /// Idempotent across replay: an id already present is verified against
  /// (seed, group, isa) and otherwise left alone.
  Status ApplyEnroll(const DeviceInfo& enrolled);
  /// Recreates a group at a fixed id (recovery replay). Idempotent.
  void ApplyGroupCreate(GroupId id, std::string label);
  /// Adds group `id` at the base epoch. Caller holds group_mutex_
  /// exclusively.
  void AddGroupLocked(GroupId id, std::string label);
  /// Marks a device revoked (recovery replay; idempotent).
  Status ApplyRevoke(DeviceId id);
  /// Advances a group to `target_epoch` and re-provisions its members —
  /// the shared body of RotateGroupEpochTo and of recovery replay. Never
  /// touches the WAL. Idempotent: a target at or below the current epoch
  /// is a no-op.
  Result<GroupRotation> ApplyEpochBump(GroupId group, uint64_t target_epoch);
  /// Re-provisions one member under its group's sealing context: KMU
  /// config rotation and a fresh conversion mask. Atomic against
  /// concurrent rekeys of the same device (the endpoint mutex covers both
  /// the KMU update and the mask field update).
  Status RekeyMember(DeviceId id, const SealingContext& group);
  /// Moves `state` to `epoch` together with the group key derived under
  /// it from the registry secret.
  void KeyGroupAt(GroupId id, uint64_t epoch, GroupState& state) const;
  /// The group's key plus the base KDF config at the group's epoch.
  SealingContext GroupSealing(const GroupState& state) const;
  /// Fingerprint of everything recovery correctness depends on.
  uint64_t StorageFingerprint() const;
  /// Serializes groups + devices into a snapshot payload. Caller holds
  /// the exclusive storage lock.
  std::vector<uint8_t> SerializeSnapshotLocked() const;
  /// Writes the snapshot and truncates the log. Caller holds the
  /// exclusive storage lock.
  Status SnapshotLocked();
  /// Appends a mutation record and auto-snapshots when due. Caller holds
  /// a shared storage lock, which is released/reacquired if a snapshot
  /// triggers. Call only after the mutation is applied to the table —
  /// the snapshot serializes whatever the table holds, then truncates
  /// the record.
  Status LogMutation(uint8_t type, std::span<const uint8_t> payload,
                     std::shared_lock<std::shared_mutex>& storage_lock);
  /// The counter/auto-snapshot half of LogMutation, for the (revoke)
  /// path that must append and apply itself before any snapshot may
  /// interleave.
  void MaybeAutoSnapshot(std::shared_lock<std::shared_mutex>& storage_lock);

  RegistryConfig config_;
  crypto::Key256 group_secret_{};

  /// Readers (one lookup per call, several per delivery) take this
  /// shared; inserts and status/mask updates take it exclusive.
  mutable std::shared_mutex table_mutex_;
  std::unordered_map<DeviceId, std::unique_ptr<DeviceRecord>> records_;

  /// Readers (key/members/epoch lookups — once per target on the deploy
  /// hot path) take this shared; the rare writers (group create,
  /// membership update, epoch rotation) take it exclusive.
  mutable std::shared_mutex group_mutex_;
  std::unordered_map<GroupId, GroupState> groups_;
  GroupId next_group_id_ = 1;

  std::atomic<DeviceId> next_device_id_{1};

  /// Directory device agents persist slot manifests under (set by
  /// OpenStorage before any record replays; empty = memory-only agents).
  std::string agent_dir_;
  /// Chaos-soak crash injection applied to every agent (see
  /// SetAgentCrashInjection); read at enrollment.
  std::atomic<double> agent_crash_rate_{0};
  std::atomic<uint64_t> agent_crash_seed_{0};

  std::unique_ptr<Storage> storage_;
};

}  // namespace eric::fleet
