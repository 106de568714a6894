#include "fleet/rotation_campaign.h"

#include <chrono>

#include "support/stopwatch.h"

namespace eric::fleet {

Result<RotationReport> RotationCampaign::Run(const RotationConfig& config,
                                             CampaignControl* control) {
  auto report = Bump(config.group, config.target_epoch);
  if (!report.ok()) return report.status();

  // 3. Redeploy under the rollout policy. Every seal now happens under
  // the new epoch (the engine reads each device's SealingContext), so a
  // stale-epoch artifact cannot reach the wire even if a racing builder
  // re-inserted one — its cache address carries the old key.
  CampaignConfig redeploy = config.campaign;
  if (redeploy.devices.empty()) redeploy.group = config.group;
  CampaignScheduler scheduler(engine_, registry_);
  auto rollout = scheduler.Run(redeploy, config.rollout, control);
  if (!rollout.ok()) return rollout.status();
  report->rollout = std::move(*rollout);
  return report;
}

Result<RotationReport> RotationCampaign::Bump(GroupId group,
                                              uint64_t target_epoch) {
  if (group == kNoGroup) {
    return Status(ErrorCode::kInvalidArgument,
                  "rotation campaign requires a device group");
  }
  if (target_epoch == 0) {
    auto current = registry_.GroupEpoch(group);
    if (!current.ok()) return current.status();
    target_epoch = *current + 1;
  }

  RotationReport report;

  // 1. Bump. Idempotent against a resume: a registry already at (or
  // past) the target rotates nothing.
  const auto bump_start = std::chrono::steady_clock::now();
  auto rotation = registry_.RotateGroupEpochTo(group, target_epoch);
  if (!rotation.ok()) return rotation.status();
  report.bump_ms = MillisecondsSince(bump_start);
  report.old_epoch = rotation->old_epoch;
  report.new_epoch = rotation->new_epoch;
  report.bumped = rotation->rotated;
  report.members_rekeyed = rotation->members_rekeyed;

  // 2. Targeted invalidation: only the retired key's artifacts drop.
  // A no-op bump skips it — the retired key is unknowable there (the
  // original rotation may have jumped epochs), and its invalidation
  // already ran when the rotation first applied; a resumed process
  // starts with an empty cache anyway.
  if (rotation->rotated) {
    const auto invalidate_start = std::chrono::steady_clock::now();
    report.artifacts_invalidated =
        cache_.InvalidateKeyFingerprint(rotation->old_key_fingerprint);
    report.invalidate_ms = MillisecondsSince(invalidate_start);
  }
  return report;
}

}  // namespace eric::fleet
