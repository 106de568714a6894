// Key-epoch rotation campaigns: re-key one device group fleet-wide.
//
// ERIC's group-key mechanism makes every sealed artifact a function of
// (program, PUF-derived key, policy) — so bumping a group's key epoch
// invalidates every package sealed for that group at once. This module
// turns that cliff into an operable campaign:
//
//   1. bump      the registry rotates the group's epoch (durably
//                journaled as a kEpochBump WAL record when storage is
//                attached) and re-provisions every member KMU.
//   2. invalidate the PackageCache drops exactly the artifacts sealed
//                under the retired key (targeted, by key fingerprint —
//                other groups' artifacts stay hot, and the
//                key-independent compile cache is untouched).
//   3. redeploy  the scheduler re-runs the campaign over the group under
//                the ordinary canary/wave machinery; every delivery is
//                sealed under the new epoch, and the members' HDEs —
//                already rotated in step 1 — reject anything older.
//
// Crash safety composes with the campaign journal: eric_fleetd journals
// a rotation with CampaignJournal::BeginRotation *before* step 1, so a
// kill -9 anywhere in the sequence resumes to the same target epoch
// (the registry-side bump is idempotent) and redeploys exactly the
// targets with no durable outcome.
#pragma once

#include "fleet/campaign_scheduler.h"
#include "fleet/deployment_engine.h"
#include "fleet/package_cache.h"

namespace eric::fleet {

/// One rotation campaign's parameters.
struct RotationConfig {
  /// The group whose key epoch rotates. Must name a real group.
  GroupId group = kNoGroup;
  /// Explicit target epoch; 0 = current epoch + 1. A resumed campaign
  /// passes the journaled epoch here so the bump replays idempotently.
  uint64_t target_epoch = 0;
  /// The redeploy campaign (program, policy, workers, channel model).
  /// Its group/devices fields select the redeploy targets: when
  /// `devices` is non-empty it is used verbatim (the resume path passes
  /// the remaining targets); otherwise the rotated group's full
  /// membership is redeployed.
  CampaignConfig campaign;
  /// Rollout policy for the redeploy (canary cohort, waves, throttle).
  /// The default is one flat wave.
  SchedulerConfig rollout;
};

/// What a rotation campaign did.
struct RotationReport {
  uint64_t old_epoch = 0;  ///< group epoch before the campaign
  uint64_t new_epoch = 0;  ///< group epoch the fleet now seals under
  /// False when the registry was already at the target epoch (resume).
  bool bumped = false;
  size_t members_rekeyed = 0;        ///< endpoints re-provisioned
  size_t artifacts_invalidated = 0;  ///< stale artifacts dropped, targeted
  double bump_ms = 0;        ///< epoch bump + member re-provisioning time
  double invalidate_ms = 0;  ///< targeted cache invalidation time
  ScheduledReport rollout;   ///< the redeploy's per-wave report
};

/// Drives bump -> targeted invalidation -> scheduled redeploy.
///
/// Stateless across runs; one instance may run any number of rotations
/// sequentially. Concurrent rotations of *distinct* groups through
/// distinct instances are safe (the registry serializes the epoch state;
/// the cache invalidation is targeted per key).
class RotationCampaign {
 public:
  /// Binds the campaign to the engine it redeploys through, the registry
  /// holding the group, and the cache to invalidate; all must outlive it.
  RotationCampaign(DeploymentEngine& engine, DeviceRegistry& registry,
                   PackageCache& cache)
      : engine_(engine), registry_(registry), cache_(cache) {}

  /// Runs one rotation campaign. `control` may be null; when present it
  /// carries pause/cancel and the durable checkpoint sink exactly as for
  /// a plain scheduled campaign. Fails fast on configuration errors
  /// (unknown group, kNoGroup); redeploy failures land in the report.
  Result<RotationReport> Run(const RotationConfig& config,
                             CampaignControl* control = nullptr);

  /// Steps 1 and 2 alone: bumps `group` to `target_epoch` (0 = current
  /// + 1) and drops the retired key's artifacts. The returned report's
  /// `rollout` is empty; callers that schedule the redeploy themselves
  /// (eric_fleetd's single campaign pipeline) run it next.
  Result<RotationReport> Bump(GroupId group, uint64_t target_epoch = 0);

 private:
  DeploymentEngine& engine_;
  DeviceRegistry& registry_;
  PackageCache& cache_;
};

}  // namespace eric::fleet
