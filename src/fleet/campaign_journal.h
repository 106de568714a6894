// Durable campaign checkpoints: the WAL-backed CampaignCheckpointSink.
//
// A campaign that dies with the daemon must be resumable without
// re-delivering to devices that already have the build. The journal
// records, through the same store layer the registry persists with:
//
//   begin      the campaign's identity (a caller-computed fingerprint of
//              program + policy) and its full target order.
//   outcome    one record per target whose fate is final (delivered,
//              failed out of retries, or revoked) — appended by engine
//              workers through the checkpoint sink as each target
//              completes, durable per the WAL sync policy.
//   end        the campaign finished; recovery reports nothing active.
//
// On restart, Open() replays the log: an un-ended campaign surfaces as a
// CampaignResumeState whose RemainingTargets() is exactly the original
// order minus every checkpointed target — rerunning the campaign over
// that list completes it without a single duplicate delivery.
//
// The at-least-once window: a target whose delivery landed in the
// instant before the crash but whose outcome record did not reach the
// log is re-delivered on resume. The window is one record wide per
// worker, and redelivery is safe end to end — the HDE validates and runs
// the same signed image it already ran (see docs/persistence.md).
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "fleet/dispatch_governor.h"
#include "store/wal.h"

namespace eric::fleet {

/// What the journal found when it was opened over an existing log.
struct CampaignResumeState {
  /// True when a begun campaign has no end record: there is work to
  /// resume.
  bool active = false;
  /// The interrupted campaign's identity fingerprint, as passed to
  /// Begin(). Callers must refuse to resume under a different build.
  uint64_t campaign_fingerprint = 0;
  /// True when the interrupted campaign was a key-epoch rotation
  /// (begun with BeginRotation): resuming it must first re-apply the
  /// idempotent epoch bump, then redeploy the remaining targets.
  bool rotation = false;
  /// The rotated group (valid when `rotation`).
  GroupId rotation_group = kNoGroup;
  /// The rotation's target epoch (valid when `rotation`). Durable in
  /// the begin record, so a crash *before* the registry's own kEpochBump
  /// record landed still resumes to the same epoch — never one further.
  uint64_t rotation_epoch = 0;
  /// Full target order of the interrupted campaign.
  std::vector<DeviceId> targets;
  /// Targets whose outcome was durably checkpointed before the crash.
  std::unordered_set<DeviceId> completed;
  uint64_t delivered = 0;  ///< checkpointed as delivered-and-ran
  /// Of `delivered`, how many went over the wire as delta packages
  /// (zero when replaying a pre-delta journal, whose outcome records
  /// carry no form).
  uint64_t delta_delivered = 0;
  uint64_t failed = 0;     ///< checkpointed as failed out of retries
  uint64_t revoked = 0;    ///< checkpointed as skipped-revoked

  /// True when the campaign was stopped by the health watchdog (an SLO
  /// breach journaled through NoteWatchdog) rather than by a crash. A
  /// resume must surface the breach to the operator instead of silently
  /// re-running the remaining targets.
  bool watchdog = false;
  /// True when the breach policy was abort (the campaign is dead, not
  /// paused); false means pause (resumable after operator ack).
  bool watchdog_abort = false;
  std::string watchdog_slo;        ///< name of the breached SLO
  double watchdog_observed = 0;    ///< observed value at breach time
  double watchdog_threshold = 0;   ///< the SLO threshold it crossed
  double watchdog_burn = 0;        ///< error-budget burn rate (observed/threshold)

  /// The original target order minus every completed target — the
  /// exactly-once resume set.
  std::vector<DeviceId> RemainingTargets() const;
};

/// WAL-backed campaign checkpoint journal. One journal per state
/// directory; a campaign is begun, checkpointed from engine workers (the
/// journal is a CampaignCheckpointSink), and ended.
///
/// Thread-safe where it must be: OnTargetCheckpoint may be called from
/// any number of workers; Open/Begin/Complete are single-threaded
/// control-plane calls.
class CampaignJournal : public CampaignCheckpointSink {
 public:
  /// Opens `state_dir`/campaign.wal (creating the directory if needed),
  /// replays it, and exposes any interrupted campaign via recovered().
  /// A torn or corrupt log tail is truncated, never applied.
  Status Open(const std::string& state_dir);

  /// The replay result: whether a campaign is waiting to be resumed,
  /// and what it already completed. Valid after Open().
  const CampaignResumeState& recovered() const { return recovered_; }

  /// Starts a fresh campaign: compacts the log, then records identity
  /// and target order. Refused while a prior campaign is active —
  /// resume it (run over RemainingTargets() with this sink attached) or
  /// abandon it explicitly with Abandon().
  Status Begin(uint64_t campaign_fingerprint,
               std::span<const DeviceId> targets);

  /// Begin() for a key-epoch rotation campaign: one atomic begin record
  /// additionally carries the rotated group and its target epoch, so a
  /// resume knows to re-apply the (idempotent) bump before redeploying.
  Status BeginRotation(uint64_t campaign_fingerprint,
                       std::span<const DeviceId> targets, GroupId group,
                       uint64_t target_epoch);

  /// Drops an interrupted campaign without completing it.
  Status Abandon();

  /// Installs the campaign's control block so a checkpoint-append
  /// failure can cancel the campaign. Without this, workers would keep
  /// delivering targets whose outcomes can no longer be made durable —
  /// every one of them re-delivered on resume, stretching the
  /// at-least-once window from one record per worker to unbounded.
  /// Non-owning; call before the campaign starts.
  void CancelCampaignOnError(CampaignControl* control) { control_ = control; }

  /// Appends one outcome record. Skipped checkpoints (cancelled before
  /// dispatch) are NOT recorded — those targets must stay resumable.
  /// Append failures are sticky, surfaced through last_error(), and
  /// cancel the campaign when a control block is attached.
  void OnTargetCheckpoint(const TargetCheckpoint& checkpoint) override;

  /// Records an SLO-watchdog stop (pause or abort) against the in-flight
  /// campaign. The record is durable before the call returns, so a
  /// daemon killed immediately after the watchdog acted still resumes
  /// into a paused-by-watchdog state instead of blindly re-running.
  /// Safe to call from the watchdog thread while workers checkpoint.
  Status NoteWatchdog(std::string_view slo_name, bool abort, double observed,
                      double threshold, double burn_rate);

  /// Marks the campaign finished (end record). After this, recovery
  /// reports nothing active.
  Status Complete();

  /// First checkpoint-append failure, if any (OK otherwise). The sink
  /// interface cannot return one, so the engine's caller checks here
  /// after the campaign.
  Status last_error() const;

 private:
  /// The shared begin path: compacts the log, appends the begin record,
  /// and opens the campaign.
  Status AppendBegin(uint8_t type, std::span<const uint8_t> payload);

  store::Wal wal_;
  CampaignResumeState recovered_;
  CampaignControl* control_ = nullptr;  ///< cancelled on append failure
  bool campaign_open_ = false;  ///< a begun/resumed campaign is in flight

  mutable std::mutex error_mutex_;
  Status first_error_;
};

}  // namespace eric::fleet
