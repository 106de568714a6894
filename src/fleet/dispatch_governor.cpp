#include "fleet/dispatch_governor.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/stopwatch.h"

namespace eric::fleet {

// --- CampaignControl ---------------------------------------------------------

void CampaignControl::Pause() {
  // Nobody waits for a pause to begin, so there is no one to wake: a
  // parked worker re-checks the flag whenever it wakes for a slot or a
  // token, and parks again.
  paused_.store(true, std::memory_order_release);
}

void CampaignControl::Resume() {
  {
    std::lock_guard lock(mutex_);
    paused_.store(false, std::memory_order_release);
  }
  cv_.notify_all();
}

void CampaignControl::Cancel() {
  {
    std::lock_guard lock(mutex_);
    cancelled_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
}

bool CampaignControl::AwaitRunnable() const {
  if (cancelled()) return false;
  if (!paused()) return true;
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [this] { return !paused() || cancelled(); });
  return !cancelled();
}

CampaignControl::Progress CampaignControl::progress() const {
  Progress p;
  p.waves_started = waves_started_.load(std::memory_order_acquire);
  p.waves_completed = waves_completed_.load(std::memory_order_acquire);
  p.targets_completed = targets_completed_.load(std::memory_order_acquire);
  p.deliveries = deliveries_.load(std::memory_order_acquire);
  return p;
}

void CampaignControl::NoteWaveStarted() {
  waves_started_.fetch_add(1, std::memory_order_acq_rel);
}
void CampaignControl::NoteWaveCompleted() {
  waves_completed_.fetch_add(1, std::memory_order_acq_rel);
}
void CampaignControl::NoteDelivery() {
  deliveries_.fetch_add(1, std::memory_order_acq_rel);
}
void CampaignControl::NoteTargetCompleted(const TargetCheckpoint& checkpoint) {
  if (checkpoint.skipped) return;  // no outcome: the target never dispatched
  targets_completed_.fetch_add(1, std::memory_order_acq_rel);
  if (checkpoint_sink_ != nullptr) {
    checkpoint_sink_->OnTargetCheckpoint(checkpoint);
  }
}

// --- DispatchGovernor --------------------------------------------------------

DispatchGovernor::DispatchGovernor(const Limits& limits,
                                   CampaignControl* control)
    : control_(*control),
      limits_(limits),
      last_refill_(std::chrono::steady_clock::now()) {
  limits_.dispatch_burst = std::max(limits_.dispatch_burst, 1.0);
  tokens_ = limits_.dispatch_burst;
}

bool DispatchGovernor::AdmitDelivery(GroupId group) {
  // Queue-wait telemetry: how long a worker sat on pause gates, group
  // slots, and rate tokens before this delivery was admitted.
  static obs::Histogram& admit_wait_us =
      obs::MetricsRegistry::Global().GetHistogram("fleet_admit_wait_us");
  obs::ScopedSpan span("admit_wait");
  const auto wait_start = std::chrono::steady_clock::now();
  const auto finish = [&](bool admitted) {
    admit_wait_us.Record(MicrosecondsSince(wait_start));
    span.set_ok(admitted);  // false = the campaign ended before admission
    return admitted;
  };

  const bool budgeted = limits_.group_concurrency > 0;
  const bool rated = limits_.dispatch_rate > 0;
  if (!budgeted && !rated) {
    if (!control_.AwaitRunnable()) return finish(false);
  } else {
    // The slot and the token are taken together, under the lock that
    // Resume and Cancel take, so a waiter holds neither and cannot miss
    // a transition between its check and its wait.
    std::unique_lock lock(control_.mutex_);
    for (;;) {
      if (control_.cancelled()) return finish(false);
      if (control_.paused() ||
          (budgeted && group_in_flight_[group] >= limits_.group_concurrency)) {
        control_.cv_.wait(lock);
        continue;
      }
      if (rated) {
        const auto now = std::chrono::steady_clock::now();
        const double elapsed_s =
            std::chrono::duration<double>(now - last_refill_).count();
        tokens_ = std::min(limits_.dispatch_burst,
                           tokens_ + limits_.dispatch_rate * elapsed_s);
        last_refill_ = now;
        if (tokens_ < 1.0) {
          // Sleep until the next token is due; the cap only keeps the
          // deadline of a near-zero rate representable.
          const double due_s = (1.0 - tokens_) / limits_.dispatch_rate;
          control_.cv_.wait_for(
              lock, std::chrono::duration<double>(std::min(due_s, 3600.0)));
          continue;
        }
        tokens_ -= 1.0;
      }
      if (budgeted) ++group_in_flight_[group];
      break;
    }
  }

  const size_t now_in_flight =
      in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  size_t peak = peak_in_flight_.load(std::memory_order_relaxed);
  while (now_in_flight > peak &&
         !peak_in_flight_.compare_exchange_weak(peak, now_in_flight,
                                                std::memory_order_acq_rel)) {
  }
  return finish(true);
}

void DispatchGovernor::CompleteDelivery(GroupId group) {
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  control_.NoteDelivery();
  if (limits_.group_concurrency == 0) return;
  {
    std::lock_guard lock(control_.mutex_);
    --group_in_flight_[group];
  }
  control_.cv_.notify_all();
}

void DispatchGovernor::NoteTargetCompleted(const TargetCheckpoint& checkpoint) {
  control_.NoteTargetCompleted(checkpoint);
}

}  // namespace eric::fleet
