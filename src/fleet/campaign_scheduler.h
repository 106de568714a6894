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

#include <array>
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
  /// revoked devices excluded) exceeds this fraction.
  double canary_failure_threshold = 0.0;
  /// Devices per rolling wave after the canary. 0 puts every remaining
  /// target into a single wave.
  size_t wave_size = 0;
  /// Promotion gate applied after every non-canary wave; negative
  /// disables gating beyond the canary.
  double wave_failure_threshold = -1.0;
  /// Deterministically shuffles the target order (seeded by the campaign
  /// seed) before slicing waves, so the canary samples the whole fleet
  /// instead of the oldest enrollments.
  bool shuffle_targets = false;
  /// Throttle limits applied across all waves.
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

/// Aggregate result of a scheduled campaign.
struct ScheduledReport {
  /// How the rollout ended.
  CampaignOutcome outcome = CampaignOutcome::kCompleted;
  std::vector<WaveReport> waves;  ///< per-wave checkpointed progress

  // Counts are uint64_t (not size_t) for the same reason as
  // CampaignReport: they flow into the metrics registry and the JSON
  // reporters, whose integer widths must not vary by platform.
  uint64_t targets = 0;     ///< total devices in the campaign
  uint64_t dispatched = 0;  ///< devices that reached a wave before any abort
  uint64_t succeeded = 0;   ///< devices that ran the program
  uint64_t failed = 0;      ///< dispatched devices that never succeeded
  uint64_t revoked = 0;     ///< devices skipped as revoked
  /// Devices never dispatched: after a gate abort, after a cancel, or
  /// both. The gate's whole point is making this number large on a bad
  /// build.
  uint64_t never_dispatched = 0;

  uint64_t deliveries = 0;  ///< channel deliveries across all waves
  uint64_t retries = 0;     ///< deliveries beyond the first per device
  uint64_t delta_deliveries = 0;  ///< deliveries that shipped a delta
  uint64_t full_deliveries = 0;   ///< deliveries that shipped a full package
  /// Targets whose delta delivery failed closed and fell back to full.
  uint64_t delta_fallbacks = 0;
  uint64_t bytes_shipped = 0;  ///< wire bytes shipped across all waves
  /// What a plain full-package campaign would have shipped for the same
  /// retry attempts (a delta-plus-fallback pair counts once).
  uint64_t bytes_full_equivalent = 0;
  /// Successful deliveries whose manifest update could not be made
  /// durable (summed across waves; the devices mis-diff next campaign).
  uint64_t manifest_update_failures = 0;
  /// Targets whose device agent rolled back at least one flip.
  uint64_t rollbacks = 0;
  /// Targets that saw at least one post-apply health-check rejection.
  uint64_t health_failures = 0;
  uint64_t cache_artifact_hits = 0;    ///< sealed artifacts served from cache
  uint64_t cache_artifact_misses = 0;  ///< seal operations performed
  uint64_t cache_compile_misses = 0;   ///< compilations performed
  double wall_ms = 0;       ///< wall time including gate evaluation
  /// Peak simultaneously in-flight deliveries across the campaign.
  uint64_t peak_in_flight = 0;
  /// Per-ISA slices summed across waves (wave boundaries are a rollout
  /// policy, not an ISA property).
  std::array<CampaignIsaStats, isa::kNumIsaIds> by_isa{};
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
  /// external pause/cancel). Fails fast only on configuration errors;
  /// gate aborts and cancellations are reported, not errors.
  Result<ScheduledReport> Run(const CampaignConfig& config,
                              const SchedulerConfig& policy,
                              CampaignControl* control = nullptr);

 private:
  DeploymentEngine& engine_;
  DeviceRegistry& registry_;
};

}  // namespace eric::fleet
