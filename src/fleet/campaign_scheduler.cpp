#include "fleet/campaign_scheduler.h"

#include <algorithm>
#include <cmath>

#include "support/stopwatch.h"

namespace eric::fleet {

// --- CampaignScheduler -------------------------------------------------------

std::string_view CampaignOutcomeName(CampaignOutcome outcome) {
  switch (outcome) {
    case CampaignOutcome::kCompleted: return "completed";
    case CampaignOutcome::kAbortedByGate: return "aborted-by-gate";
    case CampaignOutcome::kCancelled: return "cancelled";
  }
  return "unknown";
}

namespace {

/// failed / dispatched, where revoked and never-dispatched targets do not
/// count against the gate (a revocation is policy, not a rollout defect).
double WaveFailureRate(const CampaignReport& report) {
  const size_t dispatched =
      report.targets - report.revoked - report.skipped;
  if (dispatched == 0) return 0.0;
  return static_cast<double>(report.failed) /
         static_cast<double>(dispatched);
}

}  // namespace

Result<ScheduledReport> CampaignScheduler::Run(const CampaignConfig& config,
                                               const SchedulerConfig& policy,
                                               CampaignControl* control) {
  // Resolve the target order once; waves are contiguous slices of it.
  auto resolved = ResolveCampaignTargets(registry_, config);
  if (!resolved.ok()) return resolved.status();
  std::vector<DeviceId> targets = std::move(*resolved);
  // Written so that NaN fails every test: a NaN threshold would never
  // breach, silently disabling its gate.
  if (!(policy.canary_failure_threshold >= 0 &&
        policy.canary_failure_threshold <= 1)) {
    return Status(ErrorCode::kInvalidArgument,
                  "canary failure threshold must be in [0, 1]");
  }
  if (std::isnan(policy.wave_failure_threshold)) {
    return Status(ErrorCode::kInvalidArgument,
                  "wave failure threshold must be a number");
  }
  if (!std::isfinite(policy.limits.dispatch_rate) ||
      !std::isfinite(policy.limits.dispatch_burst)) {
    return Status(ErrorCode::kInvalidArgument,
                  "dispatch rate and burst must be finite");
  }
  CampaignControl local_control;
  if (control == nullptr) control = &local_control;

  if (policy.shuffle_targets) {
    // Deterministic Fisher-Yates so a canary cohort samples the fleet
    // uniformly yet reproducibly from the campaign seed.
    Xoshiro256 rng(config.campaign_seed ^ 0x5C4EDu);
    for (size_t i = targets.size() - 1; i > 0; --i) {
      std::swap(targets[i], targets[rng.NextBounded(i + 1)]);
    }
  }

  // Wave plan: [canary][wave][wave]... as (offset, length) slices.
  const size_t canary = std::min(policy.canary_size, targets.size());
  std::vector<std::pair<size_t, size_t>> plan;
  if (canary > 0) plan.emplace_back(0, canary);
  const size_t wave_size =
      policy.wave_size > 0 ? policy.wave_size : targets.size() - canary;
  for (size_t offset = canary; offset < targets.size();) {
    const size_t length = std::min(wave_size, targets.size() - offset);
    plan.emplace_back(offset, length);
    offset += length;
  }

  DispatchGovernor governor(policy.limits, control);

  const auto start = std::chrono::steady_clock::now();
  ScheduledReport scheduled;

  size_t next_wave = 0;
  for (; next_wave < plan.size(); ++next_wave) {
    // Between-wave checkpoint: honor pause here too, so a campaign paused
    // during gate evaluation does not leak the next wave.
    if (!control->AwaitRunnable()) {
      scheduled.outcome = CampaignOutcome::kCancelled;
      break;
    }
    const auto [offset, length] = plan[next_wave];

    CampaignConfig wave_config = config;
    wave_config.group = kNoGroup;
    wave_config.devices.assign(targets.begin() + static_cast<long>(offset),
                               targets.begin() +
                                   static_cast<long>(offset + length));
    wave_config.governor = &governor;

    control->NoteWaveStarted();
    auto report = engine_.Run(wave_config);
    if (!report.ok()) return report.status();

    WaveReport wave;
    wave.wave_index = next_wave;
    wave.canary = canary > 0 && next_wave == 0;
    wave.first_target = offset;
    wave.failure_rate = WaveFailureRate(*report);
    wave.report = std::move(*report);

    scheduled += wave.report;
    control->NoteWaveCompleted();

    // A cancel observed by the engine surfaces as skipped targets; stop
    // scheduling further waves.
    if (control->cancelled()) {
      scheduled.waves.push_back(std::move(wave));
      scheduled.outcome = CampaignOutcome::kCancelled;
      ++next_wave;
      break;
    }

    // Promotion gate.
    const double threshold = wave.canary ? policy.canary_failure_threshold
                                         : policy.wave_failure_threshold;
    if (threshold >= 0 && wave.failure_rate > threshold &&
        next_wave + 1 < plan.size()) {
      wave.gate_breached = true;
      scheduled.waves.push_back(std::move(wave));
      scheduled.outcome = CampaignOutcome::kAbortedByGate;
      ++next_wave;
      break;
    }
    scheduled.waves.push_back(std::move(wave));
  }

  // Targets in waves that never launched.
  for (size_t w = next_wave; w < plan.size(); ++w) {
    scheduled.targets += plan[w].second;
    scheduled.skipped += plan[w].second;
  }

  scheduled.wall_ms = MillisecondsSince(start);
  scheduled.peak_in_flight = governor.peak_in_flight();
  return scheduled;
}

}  // namespace eric::fleet
