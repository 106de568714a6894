// Campaign scheduler: staged rollout policy on top of DeploymentEngine.
//
// The engine fires every worker at the full target set at once; that is
// the right primitive but the wrong policy for a production fleet. This
// layer adds the rollout controls a distribution service actually ships
// with:
//
//   waves      the target set is partitioned into an optional canary
//              cohort followed by fixed-size rolling waves; a wave must
//              finish before the next one starts.
//   gates      after the canary (and optionally every wave) the failure
//              rate is compared against a threshold; a breach aborts the
//              campaign before the remaining cohorts see a single byte.
//   throttle   a token-bucket rate limit caps deliveries per second and a
//              per-group concurrency budget caps simultaneous in-flight
//              deliveries into any one device group.
//   control    an atomic control block supports cooperative pause /
//              resume / cancel from another thread, with per-wave
//              checkpointed progress counters for observability.
//
// The scheduler composes with — it does not replace — the engine: each
// wave is an ordinary engine campaign over a slice of the target set, so
// the encrypt-once cache, retry budget, and fault model all apply
// unchanged. Every target is dispatched at most once across the whole
// scheduled campaign (exactly once when no gate aborts and nothing is
// cancelled).
#pragma once

#include <cstdint>
#include <vector>

#include "fleet/deployment_engine.h"
#include "fleet/dispatch_governor.h"

namespace eric::fleet {

/// Rollout policy for one scheduled campaign.
struct SchedulerConfig {
  /// Devices in the canary cohort (wave 0). 0 disables the canary.
  size_t canary_size = 0;
  /// Abort when the canary wave's failure rate (failed / dispatched,
  /// revoked devices excluded) exceeds this fraction, in [0, 1].
  double canary_failure_threshold = 0.0;
  /// Devices per rolling wave after the canary. 0 puts every remaining
  /// target into a single wave.
  size_t wave_size = 0;
  /// Promotion gate applied after every non-canary wave; negative
  /// disables gating beyond the canary. NaN is refused.
  double wave_failure_threshold = -1.0;
  /// Deterministically shuffles the target order (seeded by the campaign
  /// seed) before slicing waves, so the canary samples the whole fleet
  /// instead of the oldest enrollments.
  bool shuffle_targets = false;
  /// Throttle limits applied across all waves; a non-finite rate or
  /// burst is refused.
  DispatchGovernor::Limits limits;
};

/// How a scheduled campaign ended.
enum class CampaignOutcome : uint8_t {
  kCompleted,     ///< every wave dispatched, no gate breached
  kAbortedByGate, ///< a canary/wave gate exceeded its failure threshold
  kCancelled,     ///< CampaignControl::Cancel stopped the rollout
};

/// Stable display name of a CampaignOutcome.
std::string_view CampaignOutcomeName(CampaignOutcome outcome);

/// Outcome of one wave: the engine report plus gate bookkeeping.
struct WaveReport {
  size_t wave_index = 0;     ///< 0-based position in the rollout
  bool canary = false;       ///< true for the canary cohort
  size_t first_target = 0;   ///< checkpoint: offset into the target order
  double failure_rate = 0.0; ///< failed / dispatched (revoked excluded)
  bool gate_breached = false;  ///< true when this wave aborted the campaign
  CampaignReport report;     ///< full engine report for the wave's slice
};

/// Aggregate result of a scheduled campaign: the totals summed over its
/// waves, with the targets of waves that never launched (after a gate
/// abort or a cancel) counted as `skipped`. The gate's whole point is
/// making that number large on a bad build. `wall_ms` includes gate
/// evaluation; `peak_in_flight` spans every wave.
struct ScheduledReport : CampaignTotals {
  /// How the rollout ended.
  CampaignOutcome outcome = CampaignOutcome::kCompleted;
  std::vector<WaveReport> waves;  ///< per-wave checkpointed progress
};

/// Runs engine campaigns wave by wave under a rollout policy.
///
/// Stateless across calls; one scheduler may run any number of campaigns
/// sequentially, and distinct schedulers sharing an engine are safe.
class CampaignScheduler {
 public:
  /// Binds the scheduler to the engine it slices campaigns onto and the
  /// registry used to resolve group target sets.
  CampaignScheduler(DeploymentEngine& engine, DeviceRegistry& registry)
      : engine_(engine), registry_(registry) {}

  /// Runs `config`'s campaign under `policy`. `control` may be null (no
  /// external pause/cancel; the run then uses a control of its own).
  /// Fails fast only on configuration errors (kInvalidArgument for a
  /// policy value out of range); gate aborts and cancellations are
  /// reported, not errors.
  Result<ScheduledReport> Run(const CampaignConfig& config,
                              const SchedulerConfig& policy,
                              CampaignControl* control = nullptr);

 private:
  DeploymentEngine& engine_;
  DeviceRegistry& registry_;
};

}  // namespace eric::fleet
