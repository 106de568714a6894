// Dispatch control plane shared by the engine and the scheduler.
//
// Two pieces govern when a campaign worker may put bytes on the wire:
//
//   CampaignControl    pause/resume/cancel block with checkpointed
//                      progress counters, shared with operator threads.
//                      Its mutex and condition variable are the one wait
//                      point of the dispatch path.
//   DispatchGovernor   adds a per-group concurrency budget and a
//                      deliveries-per-second token bucket, both guarded
//                      by the control's mutex; workers bracket every
//                      delivery with AdmitDelivery / CompleteDelivery.
//
// This header sits *below* both deployment_engine.h (whose CampaignConfig
// carries a non-owning governor pointer) and campaign_scheduler.h (which
// installs one per scheduled campaign), keeping the layering one-way.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "fleet/device_registry.h"

namespace eric::fleet {

/// One target's final outcome, as reported at the dispatch boundary —
/// the unit of campaign checkpointing. Carried from the engine through
/// the governor to whatever durable sink is attached (CampaignJournal
/// persists these through the WAL store).
struct TargetCheckpoint {
  DeviceId device = 0;   ///< the target this checkpoint finalizes
  bool ok = false;       ///< delivered, validated, and ran
  bool revoked = false;  ///< skipped as revoked (final; never retried)
  /// Never dispatched (campaign cancelled first). NOT a final outcome:
  /// checkpoint sinks must not mark skipped targets complete, or a
  /// resumed campaign would silently drop them.
  bool skipped = false;
  /// The successful delivery shipped a delta package (false for full
  /// packages and failed targets). Durable sinks record the form so a
  /// resumed campaign's operator can see what actually went over the
  /// wire before the crash.
  bool delta = false;
  uint32_t attempts = 0;  ///< deliveries spent on the target
};

/// Receives every finalized target checkpoint of a campaign.
///
/// Implementations must be thread-safe: engine workers call
/// OnTargetCheckpoint concurrently. The durable implementation is
/// fleet::CampaignJournal.
class CampaignCheckpointSink {
 public:
  /// Virtual base destructor (sinks are held by non-owning pointer).
  virtual ~CampaignCheckpointSink() = default;
  /// Called once per target when its outcome is final.
  virtual void OnTargetCheckpoint(const TargetCheckpoint& checkpoint) = 0;
};

/// Cooperative pause / resume / cancel shared between a running campaign
/// and its operator thread.
///
/// The campaign side polls through AwaitRunnable() at every dispatch
/// boundary (before each delivery and before each wave); the operator
/// side flips the flags, and Resume and Cancel wake every worker parked
/// on the control's condition variable. Pause takes effect at the next
/// boundary — an in-flight delivery is never torn down mid-wire, so
/// pausing cannot break the exactly-once property. Cancel is sticky and
/// wins over pause.
///
/// The block also carries the campaign's checkpointed progress: wave and
/// delivery counters updated atomically by the scheduler/engine, safe to
/// read from any thread while the campaign runs.
class CampaignControl {
 public:
  /// Progress checkpoint, readable mid-campaign from any thread.
  struct Progress {
    uint32_t waves_started = 0;    ///< waves whose dispatch has begun
    uint32_t waves_completed = 0;  ///< waves fully dispatched and gated
    uint64_t targets_completed = 0;  ///< devices with a final outcome
    uint64_t deliveries = 0;         ///< channel deliveries performed
  };

  /// Requests a pause; workers block at the next dispatch boundary.
  void Pause();
  /// Clears a pause and wakes every blocked worker.
  void Resume();
  /// Cancels the campaign; blocked and future dispatches return skipped.
  void Cancel();

  /// True while a pause is requested.
  bool paused() const { return paused_.load(std::memory_order_acquire); }
  /// True once cancelled (never cleared).
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Blocks while paused. Returns false when the campaign is cancelled,
  /// true when dispatch may proceed.
  bool AwaitRunnable() const;

  /// Snapshot of the progress counters.
  Progress progress() const;

  /// Records that a wave's dispatch has begun (scheduler-side).
  void NoteWaveStarted();
  /// Records that a wave completed its gate evaluation (scheduler-side).
  void NoteWaveCompleted();
  /// Records one finished channel delivery (engine-side).
  void NoteDelivery();
  /// Records one target reaching a final outcome (engine-side): updates
  /// the progress counters and forwards the checkpoint to the attached
  /// sink, if any. Skipped targets count toward neither.
  void NoteTargetCompleted(const TargetCheckpoint& checkpoint);

  /// Attaches a durable checkpoint sink (e.g. a CampaignJournal). Call
  /// before the campaign starts; the pointer is non-owning and must
  /// outlive the campaign. Null detaches.
  void AttachCheckpointSink(CampaignCheckpointSink* sink) {
    checkpoint_sink_ = sink;
  }

 private:
  friend class DispatchGovernor;

  CampaignCheckpointSink* checkpoint_sink_ = nullptr;
  std::atomic<bool> paused_{false};
  std::atomic<bool> cancelled_{false};
  std::atomic<uint32_t> waves_started_{0};
  std::atomic<uint32_t> waves_completed_{0};
  std::atomic<uint64_t> targets_completed_{0};
  std::atomic<uint64_t> deliveries_{0};
  /// Held while Resume/Cancel flip their flag, and guards the
  /// governor's budget and bucket; `cv_` wakes workers parked in
  /// AwaitRunnable or AdmitDelivery.
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
};

/// Runtime throttle shared by every worker of a scheduled campaign.
///
/// Installed into CampaignConfig::governor by the scheduler; the engine
/// brackets each delivery with AdmitDelivery / CompleteDelivery. The
/// governor admits a delivery when the campaign is neither paused nor
/// cancelled, its group has a free concurrency slot, and the token
/// bucket holds a rate token — all three checked and taken together
/// under the control's mutex — and it tracks the peak number of
/// simultaneously in-flight deliveries, the bench's headline number for
/// what throttling buys.
class DispatchGovernor {
 public:
  /// Throttle limits. Zero values disable the corresponding control.
  struct Limits {
    /// Deliveries/second; <= 0 is unlimited. Must be finite.
    double dispatch_rate = 0.0;
    /// Token-bucket capacity (clamped to >= 1). Must be finite.
    double dispatch_burst = 1.0;
    size_t group_concurrency = 0; ///< max in-flight per group (0 = unlimited)
  };

  /// Builds a governor with `limits` over `control`, which must be
  /// non-null and outlive the governor: every wait happens on the
  /// control's mutex and condition variable, so Pause/Cancel wake a
  /// parked worker at once.
  DispatchGovernor(const Limits& limits, CampaignControl* control);

  DispatchGovernor(const DispatchGovernor&) = delete;
  DispatchGovernor& operator=(const DispatchGovernor&) = delete;

  /// Blocks until a delivery into `group` may start. Neither a slot nor
  /// a token is held while waiting, so a pause freezes every parked
  /// worker. A rate wait ends when the next token is due. Returns false
  /// when the campaign was cancelled (no slot or token is then held).
  /// With no rate and no group budget it takes no lock.
  bool AdmitDelivery(GroupId group);
  /// Releases the slot taken by a successful AdmitDelivery for `group`.
  void CompleteDelivery(GroupId group);

  /// Records a target reaching its final outcome (forwards to the
  /// control block's checkpoint counters and durable sink).
  void NoteTargetCompleted(const TargetCheckpoint& checkpoint);

  /// Highest number of deliveries ever simultaneously in flight.
  size_t peak_in_flight() const {
    return peak_in_flight_.load(std::memory_order_acquire);
  }

 private:
  CampaignControl& control_;
  Limits limits_;

  // Guarded by control_.mutex_.
  std::unordered_map<GroupId, size_t> group_in_flight_;
  double tokens_ = 0;  ///< rate tokens available at `last_refill_`
  std::chrono::steady_clock::time_point last_refill_;

  std::atomic<size_t> in_flight_{0};
  std::atomic<size_t> peak_in_flight_{0};
};

}  // namespace eric::fleet
