// Device-side update agent: A/B image slots with automatic rollback.
//
// The fleet layer ships sealed (and delta) images, but a real device does
// not run whatever arrives on the wire — it *applies* an update through a
// staged state machine and keeps the previous image bootable until the new
// one proves itself. This module is that machine, shaped after staged
// firmware-apply flows on live probes (blackmagic's upgrade/flashstub):
//
//       stage          verify           flip            health
//   ┌─────────┐    ┌───────────┐   ┌───────────┐   ┌─────────────┐
//   │ write   │ -> │ CRC of    │-> │ staged    │-> │ short sim   │-> idle
//   │ inactive│    │ staged    │   │ slot made │   │ execution   │
//   │ slot    │    │ bytes     │   │ active    │   │ (HDE + run) │
//   └─────────┘    └───────────┘   └───────────┘   └──────┬──────┘
//        │               │               │                │ failure
//        └── crash ──────┴── crash ──────┴─── crash ──────┤
//            nothing durable yet:        rollback to      ▼
//            old manifest stands         previous slot   rollback
//
// An apply makes two durable writes of the slot manifest, the way A/B
// boot control does: the FLIP write carries the staged image and the
// flip intent in one record, and the COMMIT write records the healthy
// result (idle). Stage and verify stay in memory — a crash before the
// flip leaves the pre-apply manifest on disk, which is exactly the state
// recovery would restore anyway.
//
// The manifest record is serialized with store::RecordWriter and kept
// in a slot file that holds two CRC-framed copies of it, like U-Boot's
// redundant environment. A write overwrites the copy that does NOT hold
// the last acknowledged record in place (pwrite + fdatasync: one sync,
// no rename); a load takes the CRC-valid copy with the highest write
// sequence, so a torn write costs only itself. Creating the file, or
// growing it for a record that no longer fits, is one atomic replace of
// the whole file. Either way a crash at ANY point leaves a manifest that
// Recover() turns back into a runnable state — an apply interrupted
// after the flip is rolled back to the previous slot. The active slot
// therefore always holds a CRC-valid image that passed its health check
// (or the device has no image at all, never a torn one).
//
// The durable active slot is also the device's delta base: a daemon
// restart re-opens the manifest and the next delta campaign patches
// against the recovered image — closing the PR 5 "retained images are
// in-memory only" gap.
//
// Concurrency: externally synchronized. The fleet registry drives one
// agent per device under that device's endpoint mutex (a physical device
// applies one update at a time); the agent itself takes no locks.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "support/status.h"

namespace eric::agent {

/// Where an in-flight apply currently stands (persisted in the manifest;
/// kStaged and kVerified reach disk only from older builds).
enum class ApplyPhase : uint8_t {
  kIdle = 0,     ///< no apply in flight; active slot (if any) is healthy
  kStaged = 1,   ///< image written into the inactive slot
  kVerified = 2, ///< staged bytes re-read and CRC-checked
  kFlipped = 3,  ///< staged slot made active; health check not yet passed
};

/// Stable display name of an ApplyPhase.
std::string_view ApplyPhaseName(ApplyPhase phase);

/// Crash-injection points for tests and the chaos soak: the agent stops
/// mid-apply *after* the named step, exactly as a power cut there would.
/// The failed Apply returns ErrorCode::kInjectedCrash.
enum class CrashPoint : uint8_t {
  kNone = 0,     ///< no injected crash

  kAfterStage,   ///< staged in memory only; the pre-apply manifest stands
  kAfterVerify,  ///< verified in memory only; the pre-apply manifest stands
  kAfterFlip,    ///< manifest says kFlipped; health never ran
  kDuringHealth, ///< health check started but its verdict was lost
};

/// One slot's manifest entry (image bytes live beside it in the agent).
struct SlotInfo {
  bool present = false;     ///< slot holds an image
  uint64_t version = 0;     ///< program-version fingerprint of the image
  /// SHA-256 fingerprint of the sealing key the image was built under —
  /// what "epoch-current" means for this slot.
  crypto::Sha256Digest key_fingerprint{};
  uint32_t image_crc = 0;   ///< CRC32 of the image bytes
  uint64_t image_bytes = 0; ///< image size
};

/// Counters the agent accumulates (persisted with the manifest so a
/// restarted device still reports its history).
struct AgentCounters {
  uint64_t applies = 0;           ///< updates that passed health
  uint64_t rollbacks = 0;         ///< flips undone (health fail or crash)
  uint64_t health_failures = 0;   ///< post-flip health checks that failed
  uint64_t crash_recoveries = 0;  ///< interrupted applies cleaned up
  uint64_t persist_failures = 0;  ///< manifest writes that failed (not persisted)
};

/// Full externally visible agent state (for invariant sweeps and tests).
struct AgentState {
  int active_slot = -1;    ///< 0 or 1; -1 when no image was ever applied
  int previous_slot = -1;  ///< rollback target while an apply is in flight
  int staged_slot = -1;    ///< slot an in-flight apply is writing
  ApplyPhase phase = ApplyPhase::kIdle;  ///< where the in-flight apply stands
  SlotInfo slots[2];       ///< both slots' manifest entries
  AgentCounters counters;  ///< lifetime history (persisted)
};

/// The A/B-slot update agent for one device.
class UpdateAgent {
 public:
  /// `manifest_path` empty = memory-only (no durability — the pre-agent
  /// retained-image behaviour, used when the registry has no storage).
  /// `device_id` labels metrics/spans and is stamped into the manifest.
  UpdateAgent(uint64_t device_id, std::string manifest_path);

  /// Runs the health check for an image: a short sim execution through
  /// the device's HDE (validation + run). Any failure vetoes the apply.
  using HealthCheck = std::function<Status(std::span<const uint8_t> image)>;

  /// Loads the manifest (if any) and finishes whatever a crash
  /// interrupted: a pre-flip apply is discarded, a post-flip apply is
  /// rolled back to the previous slot. Idempotent — recovering an idle
  /// agent (or replaying recovery repeatedly) is a no-op.
  Status Recover();

  /// One full staged apply: stage -> verify -> flip -> health check,
  /// with two durable manifest writes (flip, commit). On health failure
  /// the flip is undone (previous slot active again) and the health
  /// check's own status is returned; a failed flip write leaves the old
  /// image active and nothing to recover. An apply left in flight by a
  /// crash is recovered first.
  Status Apply(std::span<const uint8_t> image, uint64_t version,
               const crypto::Sha256Digest& key_fingerprint,
               const HealthCheck& health);

  /// The active slot's image — the base a delta delivery patches.
  /// Empty when no update ever completed. Valid until the next Apply.
  std::span<const uint8_t> active_image() const;

  /// Deep copy of the current state (slot metadata + counters).
  AgentState state() const;

  /// Recomputes the active slot's CRC over its in-memory bytes — the
  /// "never torn" invariant a soak sweep asserts. True when there is no
  /// active slot (no image is not a torn image).
  bool ActiveCrcValid() const;

  /// True while a crashed apply awaits Recover().
  bool NeedsRecovery() const { return phase_ != ApplyPhase::kIdle; }

  /// Arms a one-shot injected crash at `point` for the next Apply.
  void ArmCrash(CrashPoint point) { armed_crash_ = point; }

  /// Arms the next `count` health checks to fail without running them
  /// (a device that boots the new image and fails self-test).
  void ArmHealthFailures(uint32_t count) { forced_health_failures_ = count; }

  /// Probabilistic crash injection for the chaos soak: each Apply draws
  /// a crash point (or none) from `rate` under a per-device stream of
  /// `seed`. Rate 0 disables.
  void SetCrashInjection(double rate, uint64_t seed);

  /// Bytes of one record copy (header + payload) as last persisted or
  /// loaded; 0 before the first, for a legacy file, or memory-only.
  uint64_t record_bytes() const { return record_bytes_; }

  /// Bytes each of the slot file's two copies holds (the file is twice
  /// this); 0 when the next persist replaces the whole file.
  uint64_t copy_capacity() const { return capacity_; }

 private:
  Status Persist();
  Status LoadManifest();
  /// Rolls back a flipped-but-unconfirmed apply; discards earlier
  /// phases. Returns whether anything had to be undone.
  bool RecoverLocked();
  /// Serialized manifest payload (schema + slots, sans image bytes CRC
  /// framing — the caller frames it).
  std::vector<uint8_t> SerializeManifest() const;
  /// Draws the injected crash point for this apply, consuming the
  /// one-shot arm first.
  CrashPoint DrawCrash();

  uint64_t device_id_ = 0;
  std::string manifest_path_;

  int active_slot_ = -1;
  int previous_slot_ = -1;
  int staged_slot_ = -1;
  ApplyPhase phase_ = ApplyPhase::kIdle;
  SlotInfo slots_[2];
  std::vector<uint8_t> images_[2];
  AgentCounters counters_;

  // Slot-file write state: copy `acked_copy_` holds the last
  // acknowledged record, written under `sequence_`.
  uint64_t capacity_ = 0;
  uint64_t sequence_ = 0;
  int acked_copy_ = 0;
  uint64_t record_bytes_ = 0;

  CrashPoint armed_crash_ = CrashPoint::kNone;
  uint32_t forced_health_failures_ = 0;
  double crash_rate_ = 0;
  uint64_t crash_rng_state_ = 0;
};

}  // namespace eric::agent
