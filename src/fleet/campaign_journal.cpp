#include "fleet/campaign_journal.h"

#include <algorithm>
#include <bit>
#include <filesystem>

#include "obs/events.h"
#include "store/record_io.h"

namespace eric::fleet {

namespace {

constexpr uint8_t kRecBegin = 1;    ///< {u64 fingerprint, u64 n, n * u64 id}
constexpr uint8_t kRecOutcome = 2;  ///< {u64 device, u8 kind, u32 attempts}
constexpr uint8_t kRecEnd = 3;      ///< {}
/// Rotation-campaign begin: {u64 group, u64 epoch, u64 fingerprint,
/// u64 n, n * u64 id}. One atomic record (not kRecBegin plus an
/// annotation) so a crash can never leave a rotation half-identified.
constexpr uint8_t kRecBeginRotation = 4;
/// Outcome with delivery form: {u64 device, u8 kind, u32 attempts,
/// u8 form}. Written for every checkpoint since the delta path landed;
/// kRecOutcome still replays (pre-delta journals resume form-less).
constexpr uint8_t kRecOutcomeForm = 5;
/// Watchdog stop: {u8 action, u64 observed-bits, u64 threshold-bits,
/// u64 burn-bits, str slo_name}. Doubles travel as IEEE-754 bit
/// patterns so replay reproduces the breach report exactly. Appended by
/// the health watchdog when an SLO breach pauses or aborts the campaign;
/// cleared by the next begin/end, never by outcome records (targets that
/// finished before the pause stay checkpointed).
constexpr uint8_t kRecWatchdog = 6;

constexpr uint8_t kActionPause = 1;
constexpr uint8_t kActionAbort = 2;

constexpr uint8_t kKindDelivered = 1;
constexpr uint8_t kKindFailed = 2;
constexpr uint8_t kKindRevoked = 3;

constexpr uint8_t kFormFull = 0;
constexpr uint8_t kFormDelta = 1;

constexpr const char* kJournalName = "campaign.wal";

}  // namespace

std::vector<DeviceId> CampaignResumeState::RemainingTargets() const {
  std::vector<DeviceId> remaining;
  remaining.reserve(targets.size() - std::min(targets.size(),
                                              completed.size()));
  for (DeviceId id : targets) {
    if (!completed.contains(id)) remaining.push_back(id);
  }
  return remaining;
}

Status CampaignJournal::Open(const std::string& state_dir) {
  if (wal_.is_open()) {
    return Status(ErrorCode::kFailedPrecondition, "journal already open");
  }
  std::error_code ec;
  std::filesystem::create_directories(state_dir, ec);
  if (ec) {
    return Status(ErrorCode::kInternal,
                  "cannot create state dir " + state_dir + ": " + ec.message());
  }
  const std::string path = state_dir + "/" + kJournalName;

  recovered_ = CampaignResumeState{};
  // Replay is as strict as the registry's decoders: a CRC-valid record
  // with bytes left over, or naming an outcome kind, delivery form or
  // watchdog action this journal never writes, is damage — guessing
  // would miscount a checkpoint or resume the wrong way.
  const auto damaged = [](const char* what) {
    return Status(ErrorCode::kCorruptPackage,
                  std::string("campaign ") + what + " record damaged");
  };
  auto replayed = store::Wal::Replay(
      path,
      [&](const store::WalRecord& record) -> Status {
        store::RecordReader rec(record.payload);
        switch (record.type) {
          case kRecBegin:
          case kRecBeginRotation: {
            // A begin record supersedes whatever came before it (the
            // log is compacted on Begin, but replay stays robust to a
            // crash between the truncate and the append).
            CampaignResumeState state;
            if (record.type == kRecBeginRotation) {
              state.rotation = true;
              if (!rec.U64(&state.rotation_group) ||
                  !rec.U64(&state.rotation_epoch)) {
                return damaged("rotation-begin");
              }
            }
            // The count is untrusted: it must fit the payload before it
            // sizes an allocation.
            uint64_t count = 0;
            if (!rec.U64(&state.campaign_fingerprint) || !rec.U64(&count) ||
                count > rec.remaining() / sizeof(uint64_t)) {
              return damaged("begin");
            }
            state.targets.reserve(count);
            for (uint64_t i = 0; i < count; ++i) {
              uint64_t id = 0;
              if (!rec.U64(&id)) return damaged("begin");
              state.targets.push_back(id);
            }
            state.active = true;
            recovered_ = std::move(state);
            break;
          }
          case kRecOutcome:
          case kRecOutcomeForm: {
            uint64_t device = 0;
            uint8_t kind = 0;
            uint32_t attempts = 0;
            uint8_t form = kFormFull;
            if (!rec.U64(&device) || !rec.U8(&kind) || !rec.U32(&attempts) ||
                (record.type == kRecOutcomeForm && !rec.U8(&form)) ||
                kind < kKindDelivered || kind > kKindRevoked ||
                (form != kFormFull && form != kFormDelta)) {
              return damaged("outcome");
            }
            if (recovered_.completed.insert(device).second) {
              if (kind == kKindDelivered) {
                ++recovered_.delivered;
                if (form == kFormDelta) ++recovered_.delta_delivered;
              } else if (kind == kKindRevoked) {
                ++recovered_.revoked;
              } else {
                ++recovered_.failed;
              }
            }
            break;
          }
          case kRecWatchdog: {
            uint8_t action = 0;
            uint64_t observed = 0;
            uint64_t threshold = 0;
            uint64_t burn = 0;
            std::string slo;
            if (!rec.U8(&action) || !rec.U64(&observed) ||
                !rec.U64(&threshold) || !rec.U64(&burn) || !rec.Str(&slo) ||
                (action != kActionPause && action != kActionAbort)) {
              return damaged("watchdog");
            }
            recovered_.watchdog = true;
            recovered_.watchdog_abort = (action == kActionAbort);
            recovered_.watchdog_slo = std::move(slo);
            recovered_.watchdog_observed = std::bit_cast<double>(observed);
            recovered_.watchdog_threshold = std::bit_cast<double>(threshold);
            recovered_.watchdog_burn = std::bit_cast<double>(burn);
            break;
          }
          case kRecEnd:
            recovered_.active = false;
            recovered_.watchdog = false;
            recovered_.watchdog_abort = false;
            recovered_.watchdog_slo.clear();
            break;
          default:
            return Status(ErrorCode::kCorruptPackage,
                          "unknown campaign journal record type");
        }
        if (!rec.Exhausted()) {
          return Status(ErrorCode::kCorruptPackage,
                        "campaign journal record has trailing bytes");
        }
        return Status::Ok();
      });
  if (!replayed.ok()) return replayed.status();

  ERIC_RETURN_IF_ERROR(wal_.Open(path));
  campaign_open_ = recovered_.active;
  return Status::Ok();
}

Status CampaignJournal::Begin(uint64_t campaign_fingerprint,
                              std::span<const DeviceId> targets) {
  store::RecordWriter rec;
  rec.U64(campaign_fingerprint);
  rec.U64(targets.size());
  for (DeviceId id : targets) rec.U64(id);
  return AppendBegin(kRecBegin, rec.bytes());
}

Status CampaignJournal::BeginRotation(uint64_t campaign_fingerprint,
                                      std::span<const DeviceId> targets,
                                      GroupId group, uint64_t target_epoch) {
  store::RecordWriter rec;
  rec.U64(group);
  rec.U64(target_epoch);
  rec.U64(campaign_fingerprint);
  rec.U64(targets.size());
  for (DeviceId id : targets) rec.U64(id);
  return AppendBegin(kRecBeginRotation, rec.bytes());
}

Status CampaignJournal::AppendBegin(uint8_t type,
                                    std::span<const uint8_t> payload) {
  if (!wal_.is_open()) {
    return Status(ErrorCode::kFailedPrecondition, "journal not open");
  }
  // Guard on campaign_open_ alone: a freshly Begin()-ed campaign has
  // recovered_.active == false but is every bit as live as a resumed
  // one, and a second Begin would truncate its durable checkpoints.
  if (campaign_open_) {
    return Status(ErrorCode::kFailedPrecondition,
                  "a campaign is in flight; Complete, resume, or Abandon it");
  }
  // Compaction: a finished (or abandoned) predecessor has nothing left
  // to say.
  ERIC_RETURN_IF_ERROR(wal_.TruncateAll());
  ERIC_RETURN_IF_ERROR(wal_.Append(type, payload));
  recovered_ = CampaignResumeState{};
  campaign_open_ = true;
  return Status::Ok();
}

Status CampaignJournal::Abandon() {
  if (!wal_.is_open()) {
    return Status(ErrorCode::kFailedPrecondition, "journal not open");
  }
  ERIC_RETURN_IF_ERROR(wal_.Append(kRecEnd, {}));
  recovered_ = CampaignResumeState{};
  campaign_open_ = false;
  return Status::Ok();
}

void CampaignJournal::OnTargetCheckpoint(const TargetCheckpoint& checkpoint) {
  // A skipped target has no outcome — leaving it unrecorded is what
  // makes it resumable.
  if (checkpoint.skipped) return;
  store::RecordWriter rec;
  rec.U64(checkpoint.device);
  rec.U8(checkpoint.revoked ? kKindRevoked
                            : (checkpoint.ok ? kKindDelivered : kKindFailed));
  rec.U32(checkpoint.attempts);
  rec.U8(checkpoint.ok && checkpoint.delta ? kFormDelta : kFormFull);
  Status appended = wal_.Append(kRecOutcomeForm, rec.bytes());
  if (!appended.ok()) {
    {
      std::lock_guard lock(error_mutex_);
      if (first_error_.ok()) first_error_ = appended;
    }
    obs::EmitEvent(obs::EventSeverity::kFatal, "journal",
                   "campaign checkpoint append failed: " + appended.message(),
                   checkpoint.device);
    // Stop the campaign: a delivery whose outcome cannot be made
    // durable will be re-delivered on resume anyway, so continuing only
    // widens the redelivery window.
    if (control_ != nullptr) control_->Cancel();
  }
}

Status CampaignJournal::NoteWatchdog(std::string_view slo_name, bool abort,
                                     double observed, double threshold,
                                     double burn_rate) {
  if (!wal_.is_open()) {
    return Status(ErrorCode::kFailedPrecondition, "journal not open");
  }
  if (!campaign_open_) {
    return Status(ErrorCode::kFailedPrecondition, "no campaign in flight");
  }
  store::RecordWriter rec;
  rec.U8(abort ? kActionAbort : kActionPause);
  rec.U64(std::bit_cast<uint64_t>(observed));
  rec.U64(std::bit_cast<uint64_t>(threshold));
  rec.U64(std::bit_cast<uint64_t>(burn_rate));
  rec.Str(slo_name);
  // Wal::Append serializes internally, so this is safe against workers
  // checkpointing outcomes on other threads.
  return wal_.Append(kRecWatchdog, rec.bytes());
}

Status CampaignJournal::Complete() {
  if (!wal_.is_open()) {
    return Status(ErrorCode::kFailedPrecondition, "journal not open");
  }
  if (!campaign_open_) {
    return Status(ErrorCode::kFailedPrecondition, "no campaign in flight");
  }
  ERIC_RETURN_IF_ERROR(wal_.Append(kRecEnd, {}));
  recovered_ = CampaignResumeState{};
  campaign_open_ = false;
  return Status::Ok();
}

Status CampaignJournal::last_error() const {
  std::lock_guard lock(error_mutex_);
  return first_error_;
}

}  // namespace eric::fleet
