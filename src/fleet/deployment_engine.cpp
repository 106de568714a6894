#include "fleet/deployment_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "fleet/dispatch_governor.h"
#include "net/transport.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/stopwatch.h"

namespace eric::fleet {

namespace {

// Process-wide campaign telemetry. Counters accumulate across campaigns
// (a scheduled rollout adds one fleet_campaigns per wave); the
// histograms are per-attempt (fleet_delivery_us: channel transit +
// latency sleep + device HDE/dispatch) and per-target
// (fleet_target_latency_us: the retry loop wall time for devices that
// saw at least one delivery).
struct EngineMetrics {
  obs::Counter& campaigns;
  obs::Counter& deliveries;
  obs::Counter& retries;
  // Live per-attempt counters, bumped inside deliver_once rather than
  // folded from the finished report: the health watchdog evaluates its
  // windows *during* the campaign, and the end-of-run fold would leave
  // its failure-ratio SLOs blind until the campaign was already over.
  obs::Counter& delivery_attempts;
  obs::Counter& delivery_failures;
  obs::Counter& delta_deliveries;
  obs::Counter& full_deliveries;
  obs::Counter& delta_fallbacks;
  obs::Counter& targets_succeeded;
  obs::Counter& targets_failed;
  obs::Counter& targets_revoked;
  obs::Counter& bytes_shipped;
  obs::Histogram& delivery_us;
  obs::Histogram& target_latency_us;

  static EngineMetrics& Get() {
    static auto& registry = obs::MetricsRegistry::Global();
    static EngineMetrics metrics{
        registry.GetCounter("fleet_campaigns"),
        registry.GetCounter("fleet_deliveries"),
        registry.GetCounter("fleet_retries"),
        registry.GetCounter("fleet_delivery_attempts"),
        registry.GetCounter("fleet_delivery_failures"),
        registry.GetCounter("fleet_delta_deliveries"),
        registry.GetCounter("fleet_full_deliveries"),
        registry.GetCounter("fleet_delta_fallbacks"),
        registry.GetCounter("fleet_targets_succeeded"),
        registry.GetCounter("fleet_targets_failed"),
        registry.GetCounter("fleet_targets_revoked"),
        registry.GetCounter("fleet_bytes_shipped"),
        registry.GetHistogram("fleet_delivery_us"),
        registry.GetHistogram("fleet_target_latency_us"),
    };
    return metrics;
  }
};

}  // namespace

uint64_t DeliverySeed(uint64_t campaign_seed, DeviceId device,
                      uint32_t delivery_index) {
  // Mixes campaign seed, device, and the delivery ordinal into an
  // independent stream so fault draws and channel RNGs are reproducible
  // yet uncorrelated. (For campaigns that never fall back, the ordinal
  // equals the retry attempt, so pre-delta campaigns replay bit-exact.)
  SplitMix64 mixer(campaign_seed ^ (device * 0x9E3779B97F4A7C15ull) ^
                   delivery_index);
  mixer.Next();
  return mixer.Next();
}

uint64_t ProgramVersionFingerprint(std::string_view source,
                                   const core::EncryptionPolicy& policy,
                                   const compiler::CompileOptions& options) {
  crypto::Sha256 hasher;
  Sha256AbsorbString(hasher, "eric.fleet.version.v1");
  Sha256AbsorbString(hasher, source);
  hasher.Update(FingerprintPolicy(policy));
  Sha256AbsorbU64(hasher, options.optimize ? 1 : 0);
  Sha256AbsorbU64(hasher, options.compress ? 1 : 0);
  Sha256AbsorbU64(hasher, static_cast<uint64_t>(options.opt_rounds));
  const crypto::Sha256Digest digest = hasher.Finish();
  uint64_t version = 0;
  for (int i = 0; i < 8; ++i) {
    version |= static_cast<uint64_t>(digest[static_cast<size_t>(i)])
               << (8 * i);
  }
  return version;
}

DeviceOutcome DeploymentEngine::DeployOne(const CampaignConfig& config,
                                          DeviceId device,
                                          const CampaignPrograms& programs) {
  DeviceOutcome outcome;
  outcome.device = device;

  // A revoked device is skipped before any sealing or wire work is spent
  // on it (Dispatch re-checks, closing the revoke-mid-campaign race).
  auto info = registry_.Lookup(device);
  if (!info.ok()) {
    outcome.last_status = info.status();
    return outcome;
  }
  outcome.isa = info->isa;
  if (info->status == DeviceStatus::kRevoked) {
    outcome.revoked = true;
    outcome.last_status =
        Status(ErrorCode::kFailedPrecondition, "device revoked");
    return outcome;
  }

  // The campaign's programs compiled for this device's ISA. The ISA is
  // a property of the enrolled silicon, never of the campaign config — a
  // mixed fleet gets per-ISA images from one config, and the cache keys
  // on the ISA so they can never alias.
  const auto isa_index = static_cast<size_t>(info->isa);

  // Seals (or fetches) `program` for this device's current deployment
  // key and its effective KDF config — per device, not registry-wide,
  // because a key-epoch rotation moves one group's epoch while every
  // other group seals on at its own. Group members share a key, so
  // across a campaign the cache builds once and serves the rest as hits.
  SealingContext sealing;
  const auto fetch = [&](const ProgramAddress& program)
      -> Result<std::shared_ptr<const CachedArtifact>> {
    return cache_.GetOrBuild(program, sealing.key, sealing.config,
                             config.policy, registry_.cipher(),
                             &outcome.cache);
  };
  // Re-reads the sealing context and fetches the full package for it.
  const auto fetch_current = [&]()
      -> Result<std::shared_ptr<const CachedArtifact>> {
    auto current = registry_.SealingContextFor(device);
    if (!current.ok()) return current.status();
    sealing = *current;
    return fetch(programs.target[isa_index]);
  };
  auto fetched = fetch_current();
  if (!fetched.ok()) {
    outcome.last_status = fetched.status();
    return outcome;
  }
  std::shared_ptr<const CachedArtifact> full = std::move(*fetched);

  // Delta eligibility: the image the device runs must be exactly the
  // campaign's base version AND sealed under the key the campaign seals
  // under right now — a key-epoch rotation since the base was delivered
  // makes the retained image undecryptable, so the fingerprint mismatch
  // forces a full package before any wire bytes are wasted. The ISA
  // needs no check: an image of a foreign ISA fails the device's health
  // check and is rolled back, so it never becomes what a device runs. A
  // base that fails to build, or a delta above `delta_max_fraction` of
  // the full package, ships full.
  std::shared_ptr<const CachedArtifact> delta;
  if (config.delta) {
    auto running = registry_.DeliveredVersion(device);
    if (running.ok() && running->version == programs.base_version &&
        running->key_fingerprint == full->key_fingerprint) {
      auto base = fetch(programs.base[isa_index]);
      if (base.ok()) {
        auto encoded = cache_.GetOrBuildDelta(**base, *full, &outcome.cache);
        if (encoded.ok() &&
            static_cast<double>((*encoded)->wire.size()) <=
                config.delta_max_fraction *
                    static_cast<double>(full->wire.size())) {
          delta = std::move(*encoded);
        }
      }
    }
  }

  // One channel delivery: seeds fault draw + channel RNG from the
  // delivery ordinal, ships `payload`, and dispatches it in the form it
  // was sealed as.
  uint32_t delivery_index = 0;
  // Out-state of the most recent delivery's agent apply: the retry loop
  // distinguishes "the delivery never became an image" from "the image
  // applied and the device's health check vetoed it".
  bool last_health_failed = false;
  const auto deliver_once = [&](const CachedArtifact& payload,
                                bool as_delta) -> Result<core::TrustedRunResult> {
    // One attempt = one "deliver" span (channel transit + latency sleep
    // + device-side dispatch) and one fleet_delivery_us sample.
    obs::ScopedSpan span("deliver", device);
    const auto attempt_start = std::chrono::steady_clock::now();
    const uint64_t seed =
        DeliverySeed(config.campaign_seed, device, delivery_index);
    ++delivery_index;
    net::ChannelConfig channel_config = config.channel;
    channel_config.seed = seed;
    Xoshiro256 fault_draw(seed ^ 0xFA017);
    if (fault_draw.NextDouble() >= config.fault_rate) {
      channel_config.fault = net::ChannelFault::kNone;
    }
    // The wire hop: in-process Channel by default, or the installed
    // transport (real sockets) — which applies the same channel_config
    // at its sending edge, so both paths draw identical fault processes
    // from the campaign seed.
    Result<std::vector<uint8_t>> delivered = std::vector<uint8_t>();
    if (config.transport != nullptr) {
      delivered =
          config.transport->Deliver(device, payload.wire, channel_config);
    } else {
      net::Channel channel(channel_config);
      delivered = channel.Deliver(payload.wire);
    }
    if (config.delivery_latency_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(config.delivery_latency_us));
    }
    ++outcome.attempts;
    if (as_delta) ++outcome.delta_attempts;
    outcome.bytes_shipped += payload.wire.size();
    Result<core::TrustedRunResult> run = Status(
        ErrorCode::kUnavailable, "delivery never reached the device");
    last_health_failed = false;
    if (delivered.ok()) {
      DispatchMeta meta;
      meta.delta = as_delta;
      meta.version = programs.target_version;
      meta.key_fingerprint = full->key_fingerprint;
      run = registry_.Dispatch(device, *delivered, config.arg0, config.arg1,
                               &meta);
      outcome.rolled_back |= meta.rolled_back;
      outcome.health_failed |= meta.health_failed;
      last_health_failed = meta.health_failed;
    } else {
      // Transport-level failure (timeout, disconnect, backpressure):
      // the attempt is spent, the retry loop decides what happens next.
      run = delivered.status();
    }
    EngineMetrics& metrics = EngineMetrics::Get();
    metrics.delivery_us.Record(MicrosecondsSince(attempt_start));
    metrics.delivery_attempts.Add();
    if (!run.ok()) metrics.delivery_failures.Add();
    span.set_ok(run.ok());
    return run;
  };

  const auto start = std::chrono::steady_clock::now();
  const uint32_t max_attempts = std::max<uint32_t>(config.max_attempts, 1);
  bool use_delta = delta != nullptr;
  for (uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
    // A retry re-reads the sealing context: if the device's group rotated
    // since the last attempt, resending the old artifact is a package its
    // HDE must refuse. The re-fetch is a cache hit unless the key moved;
    // then the target re-seals and drops to full packages (its retained
    // base is sealed under the retired key).
    if (attempt > 0) {
      auto current = fetch_current();
      if (!current.ok()) {
        outcome.last_status = current.status();
        break;
      }
      if ((*current)->key_fingerprint != full->key_fingerprint) {
        use_delta = false;
      }
      full = std::move(*current);
    }
    // Governed campaigns gate every delivery: the governor blocks for
    // pause, rate tokens, and the per-group budget, and refuses admission
    // once the campaign is cancelled.
    if (config.governor != nullptr &&
        !config.governor->AdmitDelivery(info->group)) {
      outcome.cancelled = true;
      outcome.skipped = outcome.attempts == 0;
      outcome.last_status =
          Status(ErrorCode::kFailedPrecondition, "campaign cancelled");
      break;
    }
    // The full-package counterfactual accrues once per retry attempt: a
    // plain campaign would have made this attempt with the full package,
    // full stop. The delta+fallback pair inside one attempt therefore
    // counts F once — so a fallback-heavy campaign honestly reports
    // bytes_shipped ABOVE bytes_full_equivalent (it cost more wire than
    // never attempting deltas), instead of hiding the waste behind a
    // doubled denominator.
    outcome.bytes_full_equivalent += full->wire.size();
    auto run = deliver_once(use_delta ? *delta : *full, use_delta);
    bool fallback_refused = false;
    if (use_delta && !run.ok() &&
        (run.status().code() == ErrorCode::kCorruptPackage ||
         last_health_failed)) {
      // The patch failed closed (corrupted in flight, or the device's
      // retained base is not what its slot promised — the wrong-base
      // CRC catches both), OR it applied cleanly and the device's
      // post-apply health check vetoed it (the agent already rolled back
      // to the previous slot). Either way the delta is a dead end for
      // this target: a health failure after a byte-exact reconstruction
      // reproduces deterministically, so retrying the same patch burns
      // budget for nothing. The fallback protocol ships the full package
      // immediately — without consuming the retry budget (the same rule
      // for both failure shapes), but under its own governor admission:
      // it is a second wire delivery, and the rate/budget contracts are
      // per delivery. This target stays on full packages for any further
      // retries.
      outcome.delta_fallback = true;
      use_delta = false;
      if (config.governor != nullptr) {
        config.governor->CompleteDelivery(info->group);
        if (!config.governor->AdmitDelivery(info->group)) {
          outcome.cancelled = true;
          outcome.last_status =
              Status(ErrorCode::kFailedPrecondition, "campaign cancelled");
          fallback_refused = true;
        }
      }
      if (!fallback_refused) run = deliver_once(*full, false);
    }
    if (fallback_refused) break;  // admission already released above
    if (config.governor != nullptr) {
      config.governor->CompleteDelivery(info->group);
    }
    if (run.ok()) {
      outcome.ok = true;
      outcome.delta = use_delta;
      outcome.last_status = Status::Ok();
      outcome.exit_code = run->exec.exit_code;
      outcome.device_cycles = run->total_cycles();
      break;
    }
    outcome.last_status = run.status();
    if (run.status().code() == ErrorCode::kFailedPrecondition ||
        run.status().code() == ErrorCode::kNotFound) {
      // Revoked or unknown device: retrying cannot help.
      outcome.revoked =
          run.status().code() == ErrorCode::kFailedPrecondition;
      break;
    }
  }
  outcome.latency_us = MicrosecondsSince(start);
  if (outcome.attempts > 0) {
    // Only devices that saw at least one delivery (revoked/unknown
    // targets would skew p50 low).
    EngineMetrics::Get().target_latency_us.Record(outcome.latency_us);
  }
  return outcome;
}

void CampaignTotals::Add(const DeviceOutcome& outcome) {
  ++targets;
  if (outcome.ok) {
    ++succeeded;
  } else if (outcome.revoked) {
    ++revoked;
  } else if (outcome.skipped) {
    ++skipped;
  } else {
    ++failed;
  }
  deliveries += outcome.attempts;
  retries += outcome.attempts > 0 ? outcome.attempts - 1 : 0;
  delta_deliveries += outcome.delta_attempts;
  full_deliveries += outcome.attempts - outcome.delta_attempts;
  bytes_shipped += outcome.bytes_shipped;
  bytes_full_equivalent += outcome.bytes_full_equivalent;
  if (outcome.delta_fallback) ++delta_fallbacks;
  if (outcome.rolled_back) ++rollbacks;
  if (outcome.health_failed) ++health_failures;
  cache_artifact_hits += outcome.cache.artifact_hits;
  cache_artifact_misses += outcome.cache.artifact_misses;
  cache_compile_misses += outcome.cache.compile_misses;
  CampaignIsaStats& slice = by_isa[static_cast<size_t>(outcome.isa)];
  ++slice.targets;
  if (outcome.ok) ++slice.succeeded;
  slice.deliveries += outcome.attempts;
  slice.bytes_shipped += outcome.bytes_shipped;
  slice.seal_builds += outcome.cache.artifact_misses;
  slice.compile_builds += outcome.cache.compile_misses;
}

CampaignTotals& CampaignTotals::operator+=(const CampaignTotals& other) {
  targets += other.targets;
  succeeded += other.succeeded;
  failed += other.failed;
  revoked += other.revoked;
  skipped += other.skipped;
  deliveries += other.deliveries;
  retries += other.retries;
  delta_deliveries += other.delta_deliveries;
  full_deliveries += other.full_deliveries;
  delta_fallbacks += other.delta_fallbacks;
  bytes_shipped += other.bytes_shipped;
  bytes_full_equivalent += other.bytes_full_equivalent;
  rollbacks += other.rollbacks;
  health_failures += other.health_failures;
  cache_artifact_hits += other.cache_artifact_hits;
  cache_artifact_misses += other.cache_artifact_misses;
  cache_compile_misses += other.cache_compile_misses;
  for (size_t i = 0; i < isa::kNumIsaIds; ++i) {
    CampaignIsaStats& slice = by_isa[i];
    const CampaignIsaStats& add = other.by_isa[i];
    slice.targets += add.targets;
    slice.succeeded += add.succeeded;
    slice.deliveries += add.deliveries;
    slice.bytes_shipped += add.bytes_shipped;
    slice.seal_builds += add.seal_builds;
    slice.compile_builds += add.compile_builds;
  }
  return *this;
}

Result<std::vector<DeviceId>> ResolveCampaignTargets(
    const DeviceRegistry& registry, const CampaignConfig& config) {
  std::vector<DeviceId> targets = config.devices;
  if (targets.empty()) {
    if (config.group == kNoGroup) {
      return Status(ErrorCode::kInvalidArgument,
                    "campaign has no devices and no group");
    }
    auto members = registry.GroupMembers(config.group);
    if (!members.ok()) return members.status();
    targets = std::move(*members);
  }
  if (targets.empty()) {
    return Status(ErrorCode::kInvalidArgument, "campaign target set is empty");
  }
  return targets;
}

Result<CampaignReport> DeploymentEngine::Run(const CampaignConfig& config) {
  if (config.delta && config.delta_base_source.empty()) {
    return Status(ErrorCode::kInvalidArgument,
                  "delta campaign names no base source");
  }
  auto resolved = ResolveCampaignTargets(registry_, config);
  if (!resolved.ok()) return resolved.status();
  std::vector<DeviceId> targets = std::move(*resolved);

  const auto start = std::chrono::steady_clock::now();

  // Campaign-scoped tracing: one trace id for the whole run, one root
  // "campaign" span, and (via TraceScope below) every worker thread
  // carrying the context so cache/channel/WAL spans attach to it. All
  // of it collapses to a single relaxed load when tracing is off.
  obs::TraceCollector& tracer = obs::TraceCollector::Global();
  uint64_t trace_id = 0;
  uint64_t campaign_span = 0;
  double trace_start_us = 0;
  if (tracer.enabled()) {
    trace_id = tracer.BeginTrace();
    campaign_span = tracer.NextSpanId();
    trace_start_us = tracer.NowMicros();
  }

  CampaignReport report;
  report.trace_id = trace_id;
  report.outcomes.resize(targets.size());

  obs::EmitEvent(obs::EventSeverity::kInfo, "engine",
                 "campaign started: " + std::to_string(targets.size()) +
                     " targets",
                 0, trace_id);

  // Work-stealing by atomic cursor: each worker claims the next target.
  // Outcomes land at the target's own index, so no result lock is needed.
  std::atomic<size_t> cursor{0};
  // Key-independent version identities: what successful deliveries
  // label the device's slot with, and what the delta path requires the
  // slot the device runs to match. Then the programs' cache addresses
  // for every ISA, so no fetch re-hashes a source.
  CampaignPrograms programs;
  programs.target_version = ProgramVersionFingerprint(
      config.source, config.policy, config.compile_options);
  if (config.delta) {
    programs.base_version = ProgramVersionFingerprint(
        config.delta_base_source, config.policy, config.compile_options);
  }
  compiler::CompileOptions compile_options = config.compile_options;
  for (size_t i = 0; i < isa::kNumIsaIds; ++i) {
    compile_options.isa = static_cast<isa::IsaId>(i);
    programs.target.emplace_back(config.source, compile_options);
    if (config.delta) {
      programs.base.emplace_back(config.delta_base_source, compile_options);
    }
  }
  auto worker_body = [&] {
    // Pin the campaign's trace onto this worker thread; every span the
    // layers below open (seal, deliver, wal_append, ...) nests under
    // the per-target span, which nests under the campaign root.
    obs::TraceScope trace_scope(trace_id, campaign_span);
    for (;;) {
      const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= targets.size()) break;
      DeviceOutcome& outcome = report.outcomes[i];
      {
        obs::ScopedSpan target_span("target", targets[i]);
        outcome = DeployOne(config, targets[i], programs);
        // Revoked/skipped targets are policy outcomes, not failures.
        target_span.set_ok(outcome.ok || outcome.revoked ||
                           outcome.skipped || outcome.cancelled);
      }
      if (outcome.delta_fallback) {
        obs::EmitEvent(obs::EventSeverity::kWarn, "engine",
                       "delta fell back to full package", outcome.device,
                       trace_id);
      }
      if (!outcome.ok && !outcome.revoked && !outcome.skipped &&
          !outcome.cancelled) {
        obs::EmitEvent(
            obs::EventSeverity::kError, "engine",
            "target failed out of retries: " + outcome.last_status.message(),
            outcome.device, trace_id);
      }
      if (config.governor != nullptr) {
        TargetCheckpoint checkpoint;
        checkpoint.device = outcome.device;
        checkpoint.ok = outcome.ok;
        checkpoint.revoked = outcome.revoked;
        // A cancellation mid-retry is no more final than one before the
        // first delivery: either way the target's budget was never
        // exhausted, so the checkpoint must leave it resumable.
        checkpoint.skipped = outcome.skipped || outcome.cancelled;
        checkpoint.delta = outcome.delta;
        checkpoint.attempts = outcome.attempts;
        config.governor->NoteTargetCompleted(checkpoint);
      }
    }
  };

  const size_t worker_count =
      std::clamp<size_t>(config.workers, 1, targets.size());
  if (worker_count == 1) {
    worker_body();
  } else {
    std::vector<std::thread> workers;
    workers.reserve(worker_count);
    for (size_t w = 0; w < worker_count; ++w) {
      workers.emplace_back(worker_body);
    }
    for (auto& worker : workers) worker.join();
  }

  report.wall_ms = MillisecondsSince(start);
  for (const auto& outcome : report.outcomes) report.Add(outcome);
  if (config.governor != nullptr) {
    report.peak_in_flight = config.governor->peak_in_flight();
  }

  // Fold the campaign into the process-wide counters once, from the
  // finished report — no per-delivery contention on the globals.
  EngineMetrics& metrics = EngineMetrics::Get();
  metrics.campaigns.Add();
  metrics.deliveries.Add(report.deliveries);
  metrics.retries.Add(report.retries);
  metrics.delta_deliveries.Add(report.delta_deliveries);
  metrics.full_deliveries.Add(report.full_deliveries);
  metrics.delta_fallbacks.Add(report.delta_fallbacks);
  metrics.targets_succeeded.Add(report.succeeded);
  metrics.targets_failed.Add(report.failed);
  metrics.targets_revoked.Add(report.revoked);
  metrics.bytes_shipped.Add(report.bytes_shipped);
  // Per-ISA counters are registered by name on first use rather than
  // captured in EngineMetrics: only ISAs a campaign actually targeted
  // ever appear in the registry, so a homogeneous fleet's export stays
  // free of all-zero foreign-ISA rows.
  for (size_t i = 0; i < isa::kNumIsaIds; ++i) {
    const CampaignIsaStats& slice = report.by_isa[i];
    if (slice.targets == 0 && slice.seal_builds == 0 &&
        slice.compile_builds == 0) {
      continue;
    }
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    const std::string prefix =
        "fleet_isa_" + std::string(isa::IsaName(static_cast<isa::IsaId>(i)));
    registry.GetCounter(prefix + "_targets").Add(slice.targets);
    registry.GetCounter(prefix + "_targets_succeeded").Add(slice.succeeded);
    registry.GetCounter(prefix + "_deliveries").Add(slice.deliveries);
    registry.GetCounter(prefix + "_bytes_shipped").Add(slice.bytes_shipped);
    registry.GetCounter(prefix + "_seal_builds").Add(slice.seal_builds);
    registry.GetCounter(prefix + "_compile_builds").Add(slice.compile_builds);
  }

  obs::EmitEvent(report.failed == 0 ? obs::EventSeverity::kInfo
                                    : obs::EventSeverity::kWarn,
                 "engine",
                 "campaign finished: " + std::to_string(report.succeeded) +
                     " ok, " + std::to_string(report.failed) + " failed, " +
                     std::to_string(report.skipped) + " skipped",
                 0, trace_id);

  if (trace_id != 0) {
    obs::SpanRecord root;
    root.trace_id = trace_id;
    root.span_id = campaign_span;
    root.parent_id = 0;
    root.name = "campaign";
    root.start_us = trace_start_us;
    root.duration_us = tracer.NowMicros() - trace_start_us;
    root.ok = report.failed == 0;
    tracer.Emit(std::move(root));
  }
  return report;
}

}  // namespace eric::fleet
