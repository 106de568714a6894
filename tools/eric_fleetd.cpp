// eric_fleetd — fleet deployment campaigns from the command line.
//
// Stands up a simulated fleet (registry + enrolled devices), then runs a
// deployment campaign through the encrypt-once package cache and the
// multi-threaded engine, printing per-device outcomes and aggregates.
//
//   eric_fleetd --devices 100 [--groups 4] [--workers 8] [--attempts 3]
//               [--fault none|bitflips|bytepatch|truncate|instrpatch|dup]
//               [--fault-rate 0.3] [--latency-us 1000]
//               [--mode full|partial|field|none] [--fraction 0.5]
//               [--revoke K] [--source FILE] [--workload NAME]
//               [--canary N] [--canary-threshold P] [--wave-size N]
//               [--rate R] [--burst B] [--group-concurrency N]
//               [--pause-after MS] [--pause-for MS] [--shuffle]
//               [--state-dir DIR] [--resume] [--snapshot-every N]
//               [--rotate-epoch GROUP]
//               [--delta --base-source FILE | --delta --base-workload NAME]
//               [--metrics-out FILE] [--metrics-interval SEC]
//               [--trace-out FILE]
//               [--json FILE] [--verbose]
//
// The flags are parsed and their conflicts refused (exit 2) by
// fleet::ParseDaemonConfig (src/fleet/daemon_config.h). With no
// --source/--workload, deploys the crc32 workload. --revoke K revokes
// every K-th device before the campaign to show revocation handling in
// the report.
//
// Every campaign — plain, staged, rotation, and each --soak round —
// runs through one pipeline: the CampaignScheduler over the engine, and
// every report reads the scheduler's CampaignTotals. With no rollout
// flags it is a single wave. --canary N puts a canary cohort first,
// gated on --canary-threshold; --wave-size splits the rest into rolling
// waves; --rate/--burst and --group-concurrency throttle dispatch;
// --shuffle samples the canary across the fleet; and --pause-after MS
// pauses the rollout that long into the campaign, holds it for
// --pause-for MS, then resumes.
//
// --state-dir DIR makes the fleet durable: enrollments and revocations
// are write-ahead logged (and snapshotted) under DIR, and every target's
// campaign outcome is checkpointed to DIR/campaign.wal as it finalizes.
// A daemon killed mid-campaign (kill -9 included) restarts with its
// whole fleet intact; add --resume to continue the interrupted campaign
// over exactly the targets that had no durable outcome — nothing is
// delivered twice, nothing is lost. --snapshot-every N compacts the
// registry log after every N logged mutations.
//
// --delta ships patch packages: a device whose active slot holds the
// base release (--base-source/--base-workload) under its current key
// receives EncodeDelta(base wire, target wire) instead of the full
// sealed image; everything else — fresh devices, rotated keys,
// oversized deltas, corrupted patches — falls back to the full package
// automatically. Device agents persist their slots under --state-dir, so
// a restarted daemon's devices still hold their images and a resumed
// delta campaign patches its remaining targets, exactly once.
//
// --rotate-epoch GROUP makes the campaign a key-epoch rotation: the named
// group's key epoch is bumped (durably journaled under --state-dir), the
// package cache drops exactly that group's sealed artifacts, and the
// same pipeline redeploys the group with every package sealed under the
// new epoch. Killed mid-rotation, --resume --rotate-epoch GROUP finishes
// the rotation exactly once at the journaled target epoch — stale-epoch
// artifacts are never re-delivered (the members' rotated HDEs would
// reject them anyway).
//
// --metrics-out FILE exports the process metrics registry there as a
// versioned JSON snapshot every --metrics-interval seconds (default 1),
// written atomically so pollers — and readers that outlive a kill -9 —
// never see a torn document; FILE.prom carries the same snapshot in
// Prometheus text format. --trace-out FILE enables campaign tracing and
// appends one JSON span per line: seal, cache, dispatch, channel, and
// WAL timings stitched under each campaign's trace id. Every --json
// report additionally embeds the end-of-run registry under "telemetry".
//
// --slo SPEC (repeatable) arms the fleet health watchdog: each SPEC is
// an SLO in the grammar documented in obs/health.h, e.g.
// `ratio(fleet_delivery_failures,fleet_delivery_attempts)<0.05@30s:pause`.
// A background monitor evaluates every --slo-interval seconds (default
// 1) over rolling windows of the live metrics registry; a breach emits
// a structured event and applies the spec's policy to the running
// campaign: log (report only), pause (freeze dispatch via campaign
// control), or abort (cancel the campaign). With --state-dir the breach
// is journaled before the control action, so a daemon killed -9 right
// after the watchdog acted still resumes into a paused-by-watchdog
// campaign: --resume reports the breach and exits 3 until the operator
// acknowledges it with --resume --ack-watchdog. Fatal events (WAL
// poison, checkpoint-append failure) additionally dump the event ring
// as a flight record to DIR/flight-record.json (or FILE.flight next to
// --metrics-out when no state dir is configured).
//
// --soak runs the cross-layer chaos harness instead of a single
// campaign: a seeded, hours-compressed sequence of rounds that mixes
// enroll/revoke churn, concurrent key-epoch rotation and delta
// campaigns, every channel fault mode, probabilistic agent
// crash-mid-apply, and forced health-check failures — then sweeps the
// whole fleet after every round asserting the joint invariants (no
// device holds a torn image, every recovered agent is idle, an
// epoch-current active slot always boots, a stale-epoch one never
// does). --soak-profile short (default, CI-sized) or long (nightly);
// --soak-seed reseeds the whole run. Requires --state-dir: the harness
// exists to prove the durable fleet + slot manifests survive chaos, and
// the companion resume test kill -9s the soak itself and reruns it over
// the same state dir.
//
// Exit codes: 0 every non-revoked target ran the program; 1 a target
// failed or the daemon hit a runtime error; 2 invalid flags; 3 a resume
// refused pending a watchdog acknowledgement.
#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fleet/campaign_journal.h"
#include "fleet/campaign_scheduler.h"
#include "fleet/daemon_config.h"
#include "fleet/deployment_engine.h"
#include "fleet/package_cache.h"
#include "fleet/rotation_campaign.h"
#include "net/server.h"
#include "net/sim_client.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/bench_json.h"
#include "support/rng.h"
#include "workloads/workloads.h"

using namespace eric;
using fleet::SoakProfile;

namespace {

/// A program to deploy and the name reports call it by.
struct Program {
  std::string source;
  std::string name;
};

/// Reads `path`, or when it is empty the built-in workload `workload`.
bool LoadProgram(const std::string& path, const std::string& workload,
                 Program* program) {
  if (!path.empty()) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return false;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    *program = {buffer.str(), path};
    return true;
  }
  const auto* found = workloads::FindWorkload(workload);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", workload.c_str());
    return false;
  }
  *program = {found->source, found->name};
  return true;
}

/// Devices in `targets` whose active slot says they now run `version` —
/// what the crash-resume test asserts campaign completion on.
size_t CountManifestsAt(const fleet::DeviceRegistry& registry,
                        const std::vector<fleet::DeviceId>& targets,
                        uint64_t version) {
  size_t current = 0;
  for (fleet::DeviceId id : targets) {
    auto manifest = registry.DeliveredVersion(id);
    if (manifest.ok() && manifest->version == version) ++current;
  }
  return current;
}

/// End-of-run telemetry snapshot embedded in every --json report, so
/// one file carries the campaign's outcome and the telemetry that
/// explains it: the metrics registry plus the structured event ring and
/// the health watchdog's SLO report (the same composed document the
/// live exporter writes).
void WriteTelemetryJson(JsonWriter& json) {
  json.Key("telemetry");
  obs::WriteSnapshotJson(json);
}

// --- Chaos soak -------------------------------------------------------------

std::string SoakFormat(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return std::string(buf);
}

/// Per-round soak summary (the --json report carries one per round).
struct SoakRound {
  size_t round = 0;
  const char* fault = "none";
  double fault_rate = 0;
  bool delta = false;
  fleet::GroupId rotated_group = fleet::kNoGroup;
  uint64_t enrolled = 0, revoked_now = 0;
  fleet::CampaignTotals deploy;
  bool rotation_ran = false;
  uint64_t rotation_succeeded = 0, rotation_failed = 0;
  uint64_t rotation_new_epoch = 0;
};

/// Sweeps every device (revoked included) and appends one violation
/// string per broken joint invariant:
///   - RecoverAgent always succeeds and leaves the agent idle
///     (recovery is idempotent, so sweeping twice must change nothing);
///   - the active slot's bytes re-hash to the manifest CRC (no device
///     ever holds a torn image — no slot at all is fine, torn is not);
///   - an active slot sealed under the device's *current* key boots
///     through the HDE (every rollback leaves a runnable slot);
///   - an active slot sealed under a retired epoch NEVER executes
///     (fail-closed: the HDE must reject it like any stale package).
void SoakSweepFleet(fleet::DeviceRegistry& registry, size_t round,
                    std::vector<std::string>* violations) {
  for (fleet::DeviceId id : registry.AllDevices()) {
    auto recovered = registry.RecoverAgent(id);
    if (!recovered.ok()) {
      violations->push_back(SoakFormat(
          "round %zu device %llu: RecoverAgent failed: %s", round,
          static_cast<unsigned long long>(id),
          recovered.ToString().c_str()));
      continue;
    }
    auto inspection = registry.InspectAgent(id);
    if (!inspection.ok()) {
      violations->push_back(SoakFormat(
          "round %zu device %llu: InspectAgent failed: %s", round,
          static_cast<unsigned long long>(id),
          inspection.status().ToString().c_str()));
      continue;
    }
    if (!inspection->active_crc_valid) {
      violations->push_back(SoakFormat(
          "round %zu device %llu: TORN IMAGE (active slot CRC mismatch)",
          round, static_cast<unsigned long long>(id)));
    }
    if (inspection->state.phase != agent::ApplyPhase::kIdle) {
      violations->push_back(SoakFormat(
          "round %zu device %llu: agent not idle after recovery (%s)",
          round, static_cast<unsigned long long>(id),
          std::string(agent::ApplyPhaseName(inspection->state.phase))
              .c_str()));
    }
    const int active = inspection->state.active_slot;
    auto run = registry.RunActiveSlot(id);
    if (active < 0) {
      if (run.ok()) {
        violations->push_back(SoakFormat(
            "round %zu device %llu: no active slot but RunActiveSlot ran",
            round, static_cast<unsigned long long>(id)));
      }
      continue;
    }
    auto sealing = registry.SealingContextFor(id);
    if (!sealing.ok()) continue;  // cannot classify; CRC already checked
    const bool epoch_current =
        fleet::FingerprintKey(sealing->key) ==
        inspection->state.slots[active].key_fingerprint;
    if (epoch_current && !run.ok()) {
      violations->push_back(SoakFormat(
          "round %zu device %llu: epoch-current active slot failed to "
          "boot: %s",
          round, static_cast<unsigned long long>(id),
          run.status().ToString().c_str()));
    }
    if (!epoch_current && run.ok()) {
      violations->push_back(SoakFormat(
          "round %zu device %llu: STALE-EPOCH image executed", round,
          static_cast<unsigned long long>(id)));
    }
  }
}

/// The chaos soak: seeded rounds of churn + concurrent campaigns +
/// fault/crash injection, each followed by a full-fleet invariant sweep.
/// Returns the process exit code (0 = every invariant held every round).
int RunSoak(fleet::DeviceRegistry& registry, const SoakProfile& profile,
            uint64_t seed, size_t fleet_devices,
            const std::string& json_path) {
  Xoshiro256 rng(seed);
  registry.SetAgentCrashInjection(profile.crash_rate, seed ^ 0xC7A05);

  // Three synthetic releases cycled round-robin: each round deploys the
  // next one as a delta from the previous round's, so the delta path,
  // the fallback path, and fresh-device full packages all stay hot.
  const std::string releases[3] = {
      workloads::MakeSyntheticRelease(2),
      workloads::MakeSyntheticRelease(3),
      workloads::MakeSyntheticRelease(2, true),
  };

  // Group ids from the live fleet (a recovered fleet's groups came from
  // disk; a fresh one was just enrolled by main).
  std::vector<fleet::GroupId> group_ids;
  for (fleet::DeviceId id : registry.AllDevices()) {
    auto info = registry.Lookup(id);
    if (!info.ok() || info->group == fleet::kNoGroup) continue;
    if (std::find(group_ids.begin(), group_ids.end(), info->group) ==
        group_ids.end()) {
      group_ids.push_back(info->group);
    }
  }
  if (group_ids.empty()) {
    std::fprintf(stderr, "soak: fleet has no groups\n");
    return 1;
  }

  constexpr net::ChannelFault kFaults[] = {
      net::ChannelFault::kNone,          net::ChannelFault::kRandomBitFlips,
      net::ChannelFault::kBytePatch,     net::ChannelFault::kTruncate,
      net::ChannelFault::kInstructionPatch, net::ChannelFault::kDuplicate,
  };
  constexpr const char* kFaultNames[] = {"none",       "bitflips",
                                         "bytepatch",  "truncate",
                                         "instrpatch", "dup"};

  fleet::PackageCache cache;
  fleet::DeploymentEngine engine(registry, cache);
  fleet::CampaignScheduler scheduler(engine, registry);
  std::vector<std::string> violations;
  std::vector<SoakRound> rounds;
  uint64_t enrolled_total = 0, revoked_total = 0;
  const auto t0 = std::chrono::steady_clock::now();

  for (size_t round = 0; round < profile.rounds; ++round) {
    SoakRound summary;
    summary.round = round;
    const std::string& target = releases[round % 3];
    summary.delta = round > 0;
    const std::string& base = releases[(round + 2) % 3];

    // Live (non-revoked) devices as of this round; the campaign targets
    // the whole fleet snapshot, revoked members included (the engine
    // must keep reporting them as revoked, never retry them).
    std::vector<fleet::DeviceId> all = registry.AllDevices();
    std::vector<fleet::DeviceId> live;
    for (fleet::DeviceId id : all) {
      auto info = registry.Lookup(id);
      if (info.ok() && info->status == fleet::DeviceStatus::kEnrolled) {
        live.push_back(id);
      }
    }
    if (live.empty()) break;

    // Deterministic chaos arming: one device power-cuts mid-apply,
    // another fails its next post-flip self-test. Even rounds cut power
    // after the flip (kAfterFlip/kDuringHealth: a rollback to recover),
    // odd rounds before it (kAfterStage/kAfterVerify: nothing durable
    // yet, so nothing to recover). Every soak run therefore exercises
    // both kinds of crash, crash recovery and rollback, even if the
    // probabilistic injection draws unluckily.
    constexpr agent::CrashPoint kPostFlip[] = {
        agent::CrashPoint::kAfterFlip, agent::CrashPoint::kDuringHealth};
    constexpr agent::CrashPoint kPreFlip[] = {
        agent::CrashPoint::kAfterStage, agent::CrashPoint::kAfterVerify};
    const auto crash_victim = live[rng.NextBounded(live.size())];
    (void)registry.ArmAgentCrash(
        crash_victim,
        (round % 2 == 0 ? kPostFlip : kPreFlip)[rng.NextBounded(2)]);
    const auto health_victim = live[rng.NextBounded(live.size())];
    (void)registry.ArmAgentHealthFailures(health_victim, 1);

    const size_t fault_index = rng.NextBounded(6);
    summary.fault = kFaultNames[fault_index];
    summary.fault_rate =
        fault_index == 0 ? 0.0 : 0.05 + 0.25 * rng.NextDouble();

    fleet::CampaignConfig campaign;
    campaign.source = target;
    campaign.policy = core::EncryptionPolicy::PartialRandom(0.5);
    campaign.devices = all;
    campaign.workers = profile.workers;
    campaign.max_attempts = profile.attempts;
    campaign.channel.fault = kFaults[fault_index];
    campaign.fault_rate = summary.fault_rate;
    campaign.campaign_seed = seed ^ (0x50AC0000ull + round);
    campaign.delta = summary.delta;
    if (summary.delta) campaign.delta_base_source = base;

    // Concurrent chaos: every other round rotates a random group's key
    // epoch (and redeploys it) WHILE the fleet-wide campaign runs, and a
    // churn thread enrolls/revokes devices under both.
    const bool rotate = (round % 2) == 1;
    summary.rotation_ran = rotate;
    summary.rotated_group =
        rotate ? group_ids[rng.NextBounded(group_ids.size())]
               : fleet::kNoGroup;
    const uint64_t churn_births = rng.NextBounded(3);
    const bool churn_revoke =
        rng.NextDouble() < 0.2 && revoked_total + 1 < all.size() / 3;
    const auto churn_revoke_target =
        live[rng.NextBounded(live.size())];
    const uint64_t churn_group_pick = rng.NextBounded(group_ids.size());

    Result<fleet::RotationReport> rotation_result =
        Status(ErrorCode::kUnsupported, "rotation not run this round");
    std::thread rotator;
    if (rotate) {
      rotator = std::thread([&] {
        fleet::RotationConfig rotation_config;
        rotation_config.group = summary.rotated_group;
        rotation_config.campaign.source = target;
        rotation_config.campaign.policy =
            core::EncryptionPolicy::PartialRandom(0.5);
        rotation_config.campaign.workers = 2;
        rotation_config.campaign.max_attempts = profile.attempts;
        rotation_config.campaign.campaign_seed =
            seed ^ (0x40CA0000ull + round);
        fleet::RotationCampaign rotation(engine, registry, cache);
        rotation_result = rotation.Run(rotation_config);
      });
    }
    std::thread churner([&] {
      for (uint64_t b = 0; b < churn_births; ++b) {
        auto enrolled = registry.Enroll(
            0x50AD0000ull + enrolled_total + b,
            group_ids[churn_group_pick]);
        if (enrolled.ok()) ++summary.enrolled;
      }
      if (churn_revoke && registry.Revoke(churn_revoke_target).ok()) {
        ++summary.revoked_now;
      }
    });

    auto report = scheduler.Run(campaign, fleet::SchedulerConfig{});
    churner.join();
    if (rotator.joinable()) rotator.join();
    enrolled_total += summary.enrolled;
    revoked_total += summary.revoked_now;

    if (!report.ok()) {
      violations.push_back(SoakFormat("round %zu: campaign failed: %s",
                                      round,
                                      report.status().ToString().c_str()));
    } else {
      summary.deploy = *report;
      const auto& r = summary.deploy;
      // Accounting identities: every target lands in exactly one bucket,
      // and the wire totals decompose by package kind.
      if (r.succeeded + r.failed + r.revoked + r.skipped != r.targets) {
        violations.push_back(SoakFormat(
            "round %zu: outcome buckets do not partition targets "
            "(%llu+%llu+%llu+%llu != %llu)",
            round, static_cast<unsigned long long>(r.succeeded),
            static_cast<unsigned long long>(r.failed),
            static_cast<unsigned long long>(r.revoked),
            static_cast<unsigned long long>(r.skipped),
            static_cast<unsigned long long>(r.targets)));
      }
      if (r.delta_deliveries + r.full_deliveries != r.deliveries) {
        violations.push_back(SoakFormat(
            "round %zu: deliveries do not decompose by package kind",
            round));
      }
    }
    if (rotate) {
      if (rotation_result.ok()) {
        summary.rotation_succeeded = rotation_result->rollout.succeeded;
        summary.rotation_failed = rotation_result->rollout.failed;
        summary.rotation_new_epoch = rotation_result->new_epoch;
      } else {
        violations.push_back(SoakFormat(
            "round %zu: rotation campaign failed: %s", round,
            rotation_result.status().ToString().c_str()));
      }
    }

    SoakSweepFleet(registry, round, &violations);

    std::printf(
        "soak round %zu/%zu: fault=%s rate=%.2f delta=%d rotate=%s "
        "+%llu devices -%llu | %llu ok / %llu failed / %llu revoked, "
        "%llu rollbacks, %llu health rejections, violations so far: %zu\n",
        round + 1, profile.rounds, summary.fault, summary.fault_rate,
        summary.delta ? 1 : 0,
        rotate ? std::to_string(summary.rotated_group).c_str() : "no",
        static_cast<unsigned long long>(summary.enrolled),
        static_cast<unsigned long long>(summary.revoked_now),
        static_cast<unsigned long long>(summary.deploy.succeeded),
        static_cast<unsigned long long>(summary.deploy.failed),
        static_cast<unsigned long long>(summary.deploy.revoked),
        static_cast<unsigned long long>(summary.deploy.rollbacks),
        static_cast<unsigned long long>(summary.deploy.health_failures),
        violations.size());
    rounds.push_back(std::move(summary));
  }

  // Final sweep + fleet-wide agent history. The armed crash/health
  // victims make these counters deterministic lower bounds: a soak that
  // never recovered a crash or never rolled a flip back tested nothing.
  SoakSweepFleet(registry, profile.rounds, &violations);
  agent::AgentCounters totals;
  for (fleet::DeviceId id : registry.AllDevices()) {
    auto inspection = registry.InspectAgent(id);
    if (!inspection.ok()) continue;
    const auto& c = inspection->state.counters;
    totals.applies += c.applies;
    totals.rollbacks += c.rollbacks;
    totals.health_failures += c.health_failures;
    totals.crash_recoveries += c.crash_recoveries;
    totals.persist_failures += c.persist_failures;
  }
  if (!rounds.empty() && totals.crash_recoveries == 0) {
    violations.push_back(
        "soak never exercised crash recovery (armed crashes were lost)");
  }
  if (!rounds.empty() && totals.rollbacks == 0) {
    violations.push_back(
        "soak never exercised rollback (armed health failures were lost)");
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  for (const auto& violation : violations) {
    std::fprintf(stderr, "soak VIOLATION: %s\n", violation.c_str());
  }
  std::printf(
      "soak agents: %llu applies, %llu rollbacks, %llu health failures, "
      "%llu crash recoveries, %llu persist failures\n",
      static_cast<unsigned long long>(totals.applies),
      static_cast<unsigned long long>(totals.rollbacks),
      static_cast<unsigned long long>(totals.health_failures),
      static_cast<unsigned long long>(totals.crash_recoveries),
      static_cast<unsigned long long>(totals.persist_failures));

  if (!json_path.empty()) {
    JsonWriter json;
    json.BeginObject();
    json.Field("tool", "eric_fleetd");
    json.Field("soak", true);
    json.Field("profile", profile.name);
    json.Field("seed", seed);
    json.Field("fleet_devices", fleet_devices);
    json.Field("final_devices", registry.AllDevices().size());
    json.Field("rounds_run", rounds.size());
    json.Field("enrolled_during_soak", enrolled_total);
    json.Field("revoked_during_soak", revoked_total);
    json.Field("wall_ms", wall_ms);
    json.Key("rounds");
    json.BeginArray();
    for (const auto& r : rounds) {
      json.BeginObject();
      json.Field("round", r.round);
      json.Field("fault", r.fault);
      json.Field("fault_rate", r.fault_rate);
      json.Field("delta", r.delta);
      json.Field("targets", r.deploy.targets);
      json.Field("succeeded", r.deploy.succeeded);
      json.Field("failed", r.deploy.failed);
      json.Field("revoked", r.deploy.revoked);
      json.Field("deliveries", r.deploy.deliveries);
      json.Field("retries", r.deploy.retries);
      json.Field("delta_deliveries", r.deploy.delta_deliveries);
      json.Field("delta_fallbacks", r.deploy.delta_fallbacks);
      json.Field("rollbacks", r.deploy.rollbacks);
      json.Field("health_failures", r.deploy.health_failures);
      json.Field("rotation_ran", r.rotation_ran);
      json.Field("rotated_group", r.rotated_group);
      json.Field("rotation_succeeded", r.rotation_succeeded);
      json.Field("rotation_failed", r.rotation_failed);
      json.Field("rotation_new_epoch", r.rotation_new_epoch);
      json.EndObject();
    }
    json.EndArray();
    json.Key("agents");
    json.BeginObject();
    json.Field("applies", totals.applies);
    json.Field("rollbacks", totals.rollbacks);
    json.Field("health_failures", totals.health_failures);
    json.Field("crash_recoveries", totals.crash_recoveries);
    json.Field("persist_failures", totals.persist_failures);
    json.EndObject();
    json.Key("violations");
    json.BeginArray();
    for (const auto& violation : violations) json.Value(violation);
    json.EndArray();
    json.Field("pass", violations.empty());
    WriteTelemetryJson(json);
    json.EndObject();
    if (!json.WriteFile(json_path.c_str())) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (violations.empty()) {
    std::printf("soak: PASS (%zu rounds, %.1f ms)\n", rounds.size(),
                wall_ms);
    return 0;
  }
  std::printf("soak: FAIL (%zu violations over %zu rounds)\n",
              violations.size(), rounds.size());
  return 1;
}

// --- Campaign report --------------------------------------------------------

/// Identity + resume arithmetic of a campaign report: what the
/// crash-resume test asserts exactly-once completion on.
struct ReportContext {
  std::string program;
  bool resumed = false;
  size_t previously_completed = 0;
  /// Targets durably checkpointed as failed before a crash: excluded
  /// from the resume set (their retry budget is spent) but they still
  /// fail the exit code and show in the report.
  uint64_t previously_failed = 0;
  size_t original_targets = 0;
  size_t fleet_devices = 0;
};

double DevicesPerSecond(const fleet::CampaignTotals& report) {
  return report.wall_ms > 0
             ? static_cast<double>(report.targets) / (report.wall_ms / 1000.0)
             : 0.0;
}

void PrintReport(const fleet::ScheduledReport& report,
                 const fleet::DaemonConfig& config) {
  double latency_sum = 0, latency_max = 0;
  size_t delivered_to = 0;
  for (const auto& wave : report.waves) {
    for (const auto& outcome : wave.report.outcomes) {
      if (config.verbose) {
        std::printf("  device %llu: %s attempts=%u %s\n",
                    static_cast<unsigned long long>(outcome.device),
                    outcome.ok ? "ok"
                               : (outcome.revoked ? "revoked" : "FAILED"),
                    outcome.attempts,
                    outcome.ok ? "" : outcome.last_status.ToString().c_str());
      }
      if (outcome.attempts == 0) continue;
      ++delivered_to;
      latency_sum += outcome.latency_us;
      latency_max = std::max(latency_max, outcome.latency_us);
    }
  }
  if (report.waves.size() > 1) {
    for (const auto& wave : report.waves) {
      std::printf("  wave %zu%s: %llu targets, %llu ok / %llu failed / %llu "
                  "revoked, failure-rate %.2f%s\n",
                  wave.wave_index, wave.canary ? " (canary)" : "",
                  static_cast<unsigned long long>(wave.report.targets),
                  static_cast<unsigned long long>(wave.report.succeeded),
                  static_cast<unsigned long long>(wave.report.failed),
                  static_cast<unsigned long long>(wave.report.revoked),
                  wave.failure_rate,
                  wave.gate_breached ? "  << GATE BREACHED" : "");
    }
  }
  std::printf("\nresult: %s — %llu ok / %llu failed / %llu revoked, "
              "%llu never dispatched of %llu targets\n",
              std::string(fleet::CampaignOutcomeName(report.outcome)).c_str(),
              static_cast<unsigned long long>(report.succeeded),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.revoked),
              static_cast<unsigned long long>(report.skipped),
              static_cast<unsigned long long>(report.targets));
  std::printf("wire:   %llu deliveries (%llu retries), peak %llu in flight\n",
              static_cast<unsigned long long>(report.deliveries),
              static_cast<unsigned long long>(report.retries),
              static_cast<unsigned long long>(report.peak_in_flight));
  if (report.rollbacks > 0 || report.health_failures > 0) {
    std::printf("agent:  %llu targets rolled back, %llu health "
                "rejections\n",
                static_cast<unsigned long long>(report.rollbacks),
                static_cast<unsigned long long>(report.health_failures));
  }
  if (config.delta) {
    const double ratio =
        report.bytes_full_equivalent == 0
            ? 0.0
            : static_cast<double>(report.bytes_shipped) /
                  static_cast<double>(report.bytes_full_equivalent);
    std::printf("delta:  %llu delta / %llu full deliveries (%llu fallbacks), "
                "%llu of %llu bytes shipped (%.2fx)\n",
                static_cast<unsigned long long>(report.delta_deliveries),
                static_cast<unsigned long long>(report.full_deliveries),
                static_cast<unsigned long long>(report.delta_fallbacks),
                static_cast<unsigned long long>(report.bytes_shipped),
                static_cast<unsigned long long>(report.bytes_full_equivalent),
                ratio);
  }
  std::printf("time:   %.1f ms wall, %.0f devices/s, latency mean %.0f us "
              "max %.0f us\n",
              report.wall_ms, DevicesPerSecond(report),
              delivered_to == 0 ? 0.0 : latency_sum / delivered_to,
              latency_max);
  std::printf("cache:  %llu hits / %llu misses (%llu compiles)\n",
              static_cast<unsigned long long>(report.cache_artifact_hits),
              static_cast<unsigned long long>(report.cache_artifact_misses),
              static_cast<unsigned long long>(report.cache_compile_misses));
  const auto active_isas =
      std::count_if(report.by_isa.begin(), report.by_isa.end(),
                    [](const auto& slice) { return slice.targets > 0; });
  for (size_t i = 0; active_isas > 1 && i < isa::kNumIsaIds; ++i) {
    const fleet::CampaignIsaStats& slice = report.by_isa[i];
    if (slice.targets == 0) continue;
    std::printf("isa:    %s: %llu ok of %llu targets, %llu deliveries, "
                "%llu bytes (%llu compiles, %llu seals)\n",
                std::string(isa::IsaName(static_cast<isa::IsaId>(i))).c_str(),
                static_cast<unsigned long long>(slice.succeeded),
                static_cast<unsigned long long>(slice.targets),
                static_cast<unsigned long long>(slice.deliveries),
                static_cast<unsigned long long>(slice.bytes_shipped),
                static_cast<unsigned long long>(slice.compile_builds),
                static_cast<unsigned long long>(slice.seal_builds));
  }
}

/// The --json campaign report. One writer for every campaign (plain,
/// staged, rotation, and a resume with nothing left to dispatch), so the
/// field set cannot drift between them.
bool WriteReportJson(const std::string& path, const ReportContext& context,
                     const fleet::DaemonConfig& config,
                     const fleet::ScheduledReport& report,
                     const fleet::RotationReport* rotation,
                     size_t manifest_current) {
  JsonWriter json;
  json.BeginObject();
  json.Field("tool", "eric_fleetd");
  json.Field("program", context.program);
  json.Field("mode", config.mode);
  json.Field("resumed", context.resumed);
  json.Field("previously_completed", context.previously_completed);
  json.Field("previously_failed", context.previously_failed);
  json.Field("original_targets", context.original_targets);
  json.Field("fleet_devices", context.fleet_devices);
  json.Field("outcome", fleet::CampaignOutcomeName(report.outcome));
  json.Field("devices", report.targets);
  json.Field("groups", config.groups);
  json.Field("workers", config.workers);
  json.Field("fault", config.fault_name);
  json.Field("fault_rate", config.fault_rate);
  json.Field("succeeded", report.succeeded);
  json.Field("failed", report.failed);
  json.Field("revoked", report.revoked);
  json.Field("never_dispatched", report.skipped);
  json.Field("deliveries", report.deliveries);
  json.Field("retries", report.retries);
  json.Field("delta", config.delta);
  json.Field("delta_deliveries", report.delta_deliveries);
  json.Field("full_deliveries", report.full_deliveries);
  json.Field("delta_fallbacks", report.delta_fallbacks);
  json.Field("bytes_shipped", report.bytes_shipped);
  json.Field("bytes_full_equivalent", report.bytes_full_equivalent);
  json.Field("rollbacks", report.rollbacks);
  json.Field("health_failures", report.health_failures);
  json.Field("cache_hits", report.cache_artifact_hits);
  json.Field("cache_misses", report.cache_artifact_misses);
  json.Field("peak_in_flight", report.peak_in_flight);
  json.Field("wall_ms", report.wall_ms);
  json.Field("devices_per_second", DevicesPerSecond(report));
  json.Field("manifest_current", manifest_current);
  json.Field("trace_id",
             report.waves.empty() ? uint64_t{0}
                                  : report.waves.front().report.trace_id);
  // ISAs the campaign never touched are omitted, so homogeneous-fleet
  // reports carry exactly one entry.
  json.Key("by_isa");
  json.BeginObject();
  for (size_t i = 0; i < isa::kNumIsaIds; ++i) {
    const fleet::CampaignIsaStats& slice = report.by_isa[i];
    if (slice.targets == 0 && slice.seal_builds == 0 &&
        slice.compile_builds == 0) {
      continue;
    }
    json.Key(isa::IsaName(static_cast<isa::IsaId>(i)));
    json.BeginObject();
    json.Field("targets", slice.targets);
    json.Field("succeeded", slice.succeeded);
    json.Field("deliveries", slice.deliveries);
    json.Field("bytes_shipped", slice.bytes_shipped);
    json.Field("seal_builds", slice.seal_builds);
    json.Field("compile_builds", slice.compile_builds);
    json.EndObject();
  }
  json.EndObject();
  json.Key("waves");
  json.BeginArray();
  for (const auto& wave : report.waves) {
    json.BeginObject();
    json.Field("index", wave.wave_index);
    json.Field("canary", wave.canary);
    json.Field("trace_id", wave.report.trace_id);
    json.Field("targets", wave.report.targets);
    json.Field("succeeded", wave.report.succeeded);
    json.Field("failed", wave.report.failed);
    json.Field("failure_rate", wave.failure_rate);
    json.Field("gate_breached", wave.gate_breached);
    json.Field("wall_ms", wave.report.wall_ms);
    json.EndObject();
  }
  json.EndArray();
  if (rotation != nullptr) {
    json.Key("rotation");
    json.BeginObject();
    json.Field("group", config.rotate_group);
    json.Field("old_epoch", rotation->old_epoch);
    json.Field("new_epoch", rotation->new_epoch);
    json.Field("bumped", rotation->bumped);
    json.Field("members_rekeyed", rotation->members_rekeyed);
    json.Field("artifacts_invalidated", rotation->artifacts_invalidated);
    json.EndObject();
  }
  WriteTelemetryJson(json);
  json.EndObject();
  if (!json.WriteFile(path.c_str())) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// The refusal report of a resume stopped by a journaled watchdog breach.
void WriteWatchdogStopJson(const std::string& path,
                           const fleet::CampaignResumeState& recovered,
                           size_t remaining) {
  JsonWriter json;
  json.BeginObject();
  json.Field("tool", "eric_fleetd");
  json.Field("watchdog_stopped", true);
  json.Field("watchdog_aborted", recovered.watchdog_abort);
  json.Field("slo", recovered.watchdog_slo);
  json.Field("observed", recovered.watchdog_observed);
  json.Field("threshold", recovered.watchdog_threshold);
  json.Field("burn_rate", recovered.watchdog_burn);
  json.Field("previously_completed", recovered.completed.size());
  json.Field("previously_failed", recovered.failed);
  json.Field("original_targets", recovered.targets.size());
  json.Field("remaining", remaining);
  json.EndObject();
  if (!json.WriteFile(path.c_str())) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  } else {
    std::printf("wrote %s\n", path.c_str());
  }
}

// --- Fleet standup ----------------------------------------------------------

/// Opens the durable state (when configured) and enrolls the initial
/// fleet unless one was recovered. Returns every device, in enrollment
/// order.
Result<std::vector<fleet::DeviceId>> StandUpFleet(
    const fleet::DaemonConfig& config, fleet::DeviceRegistry& registry) {
  if (!config.state_dir.empty()) {
    fleet::RegistryStorageOptions storage_options;
    storage_options.snapshot_every = config.snapshot_every;
    auto opened = registry.OpenStorage(config.state_dir, storage_options);
    if (!opened.ok()) {
      return Status(opened.code(), "cannot open state dir " +
                                       config.state_dir + ": " +
                                       opened.message());
    }
  }
  // Flight recorder: any fatal event (WAL poison, checkpoint-append
  // failure) dumps the whole event ring here. Prefer the durable state
  // dir (OpenStorage created it); fall back to a sibling of the metrics
  // snapshot.
  if (!config.state_dir.empty()) {
    obs::EventLog::Global().SetFlightRecorderPath(config.state_dir +
                                                  "/flight-record.json");
  } else if (!config.metrics_out.empty()) {
    obs::EventLog::Global().SetFlightRecorderPath(config.metrics_out +
                                                  ".flight");
  }

  std::vector<fleet::DeviceId> devices;
  const auto storage = registry.storage_info();
  if (storage.devices_recovered > 0) {
    // The durable fleet is authoritative; the --devices/--groups/--revoke
    // /--rv32-every flags only describe the *initial* enrollment.
    std::printf("state: recovered %llu devices / %llu groups from %s in "
                "%.1f ms (%s%llu WAL records replayed%s)\n",
                static_cast<unsigned long long>(storage.devices_recovered),
                static_cast<unsigned long long>(storage.groups_recovered),
                config.state_dir.c_str(), storage.recovery_ms,
                storage.snapshot_loaded ? "snapshot + " : "",
                static_cast<unsigned long long>(storage.wal_records_replayed),
                storage.corrupt_tails > 0 ? ", corrupt tail repaired" : "");
    devices = registry.AllDevices();
    if (devices.size() != config.devices) {
      std::printf("state: recovered fleet has %zu devices (ignoring "
                  "--devices %zu)\n", devices.size(), config.devices);
    }
    if (config.revoke_every > 0) {
      std::printf("state: fleet recovered from disk; --revoke only "
                  "shapes the initial enrollment (ignored)\n");
    }
    if (config.rv32_every > 0) {
      std::printf("state: fleet recovered from disk; --rv32-every only "
                  "shapes the initial enrollment (ignored)\n");
    }
  } else {
    if (!config.state_dir.empty()) {
      std::printf("state: fresh state dir %s\n", config.state_dir.c_str());
    }
    std::vector<fleet::GroupId> group_ids;
    for (size_t g = 0; g < config.groups; ++g) {
      group_ids.push_back(registry.CreateGroup("group-" + std::to_string(g)));
    }
    for (size_t i = 0; i < config.devices; ++i) {
      // Every K-th device enrolls as RV32I: a device's ISA is a silicon
      // property the durable registry remembers.
      const isa::IsaId device_isa =
          config.rv32_every > 0 && (i + 1) % config.rv32_every == 0
              ? isa::IsaId::kRv32I
              : isa::IsaId::kRv64Gc;
      auto id = registry.Enroll(0xF1EED000 + i, group_ids[i % config.groups],
                                device_isa);
      if (!id.ok()) return id.status();
      devices.push_back(*id);
    }
    for (size_t i = config.revoke_every - 1;
         config.revoke_every > 0 && i < devices.size();
         i += config.revoke_every) {
      (void)registry.Revoke(devices[i]);
    }
    if (!config.state_dir.empty()) {
      // One snapshot after initial enrollment: cold restarts recover from
      // the snapshot instead of replaying the whole enrollment log.
      auto snapped = registry.Snapshot();
      if (!snapped.ok()) return snapped;
    }
  }

  const auto stats = registry.Stats();
  std::printf("fleet: %zu devices / %zu groups, %zu revoked\n",
              stats.devices, stats.groups, stats.revoked);
  // Per-ISA composition, printed only for heterogeneous fleets so
  // homogeneous runs keep their exact output.
  std::array<size_t, isa::kNumIsaIds> isa_counts{};
  for (fleet::DeviceId id : devices) {
    auto info = registry.Lookup(id);
    if (info.ok()) ++isa_counts[static_cast<size_t>(info->isa)];
  }
  if (isa_counts[static_cast<size_t>(isa::IsaId::kRv64Gc)] != devices.size()) {
    std::printf("isa:   ");
    const char* separator = "";
    for (size_t i = 0; i < isa::kNumIsaIds; ++i) {
      if (isa_counts[i] == 0) continue;
      std::printf("%s%s %zu", separator,
                  std::string(isa::IsaName(static_cast<isa::IsaId>(i))).c_str(),
                  isa_counts[i]);
      separator = ", ";
    }
    std::printf("\n");
  }
  return devices;
}

/// The --listen wire: a FleetServer plus the simulated device fleet that
/// connects to it. Both outlive the campaign.
struct Wire {
  std::unique_ptr<net::FleetServer> server;
  std::unique_ptr<net::SimClientFleet> clients;
};

/// Starts the wire for `devices`; returns the process exit code on
/// failure. Transport choice shapes only the delivery path, never the
/// bytes, so it stays out of the campaign fingerprint and a --listen run
/// can resume a plain one.
std::optional<int> StartWire(const fleet::DaemonConfig& config,
                             const std::vector<fleet::DeviceId>& devices,
                             Wire* wire) {
  net::FleetServerConfig server_config;
  server_config.port = *config.listen_port;
  wire->server = std::make_unique<net::FleetServer>(server_config);
  auto started = wire->server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start fleet server: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  const size_t want =
      config.sim_clients == 0 ? devices.size() : config.sim_clients;
  if (want < devices.size()) {
    std::fprintf(stderr,
                 "--sim-clients %zu is smaller than the enrolled fleet "
                 "(%zu devices); every campaign target needs a "
                 "connection\n",
                 config.sim_clients, devices.size());
    return 2;
  }
  net::SimClientFleetConfig fleet_config;
  fleet_config.port = wire->server->port();
  fleet_config.devices.assign(devices.begin(), devices.end());
  // Extra connections beyond the enrolled fleet handshake and idle: they
  // load the event loop without joining the campaign.
  uint64_t synthetic = 0;
  for (fleet::DeviceId id : devices) {
    synthetic = std::max<uint64_t>(synthetic, id);
  }
  for (size_t extra = devices.size(); extra < want; ++extra) {
    fleet_config.devices.push_back(++synthetic);
  }
  wire->clients =
      std::make_unique<net::SimClientFleet>(std::move(fleet_config));
  auto fleet_up = wire->clients->Start();
  if (!fleet_up.ok()) {
    std::fprintf(stderr, "cannot start sim client fleet: %s\n",
                 fleet_up.ToString().c_str());
    return 1;
  }
  if (!wire->server->WaitForDevices(want, 60'000)) {
    std::fprintf(stderr,
                 "sim fleet incomplete: %zu of %zu connections handshaken "
                 "within 60 s\n",
                 wire->server->connected_devices(), want);
    return 1;
  }
  std::printf("listen: 127.0.0.1:%u, %zu device connections handshaken "
              "(%zu campaign targets)\n",
              wire->server->port(), wire->server->connected_devices(),
              devices.size());
  return std::nullopt;
}

// --- The campaign pipeline --------------------------------------------------

/// Stops the watchdog (one final evaluation) and then the exporter (one
/// final snapshot) on every exit path, in that order, so the final
/// snapshot's health section carries the final verdict.
struct TelemetryShutdown {
  obs::HealthMonitor* watchdog;
  obs::MetricsExporter* exporter;
  ~TelemetryShutdown() {
    watchdog->Stop();
    exporter->Stop();
  }
};

/// Runs the one campaign this invocation asked for: resolve targets,
/// match or begin the durable journal, arm the watchdog, bump the key
/// epoch for a rotation, run the scheduler, report. Returns the process
/// exit code.
int RunCampaign(const fleet::DaemonConfig& config, const Program& program,
                const Program& base, fleet::DeviceRegistry& registry,
                const std::vector<fleet::DeviceId>& fleet_targets,
                net::DeliveryTransport* transport,
                obs::MetricsExporter& exporter) {
  fleet::PackageCache cache;
  fleet::DeploymentEngine engine(registry, cache);

  fleet::CampaignConfig campaign;
  campaign.source = program.source;
  campaign.policy = config.policy;
  campaign.compile_options = config.compile_options;
  campaign.devices = fleet_targets;  // across all groups
  campaign.workers = config.workers;
  campaign.max_attempts = config.attempts;
  campaign.channel.fault = config.fault;
  campaign.fault_rate = config.fault_rate;
  campaign.delivery_latency_us = config.latency_us;
  campaign.delta = config.delta;
  campaign.delta_base_source = base.source;
  campaign.transport = transport;

  // Version identities: what device slots record, what resume matches on.
  const uint64_t target_version = fleet::ProgramVersionFingerprint(
      program.source, config.policy, config.compile_options);
  const uint64_t base_version =
      config.delta ? fleet::ProgramVersionFingerprint(
                         base.source, config.policy, config.compile_options)
                   : 0;

  // A rotation targets the rotated group only; its target epoch defaults
  // to current+1 and is overridden by the journal on resume.
  uint64_t rotate_epoch = 0;
  if (config.rotate_group != 0) {
    auto members = registry.GroupMembers(config.rotate_group);
    auto epoch = registry.GroupEpoch(config.rotate_group);
    if (!members.ok() || !epoch.ok()) {
      std::fprintf(stderr, "--rotate-epoch: unknown group %llu\n",
                   static_cast<unsigned long long>(config.rotate_group));
      return 1;
    }
    campaign.devices = *members;
    rotate_epoch = *epoch + 1;
  }

  // --- Durable campaign checkpoints ---
  ReportContext context;
  context.program = program.name;
  context.original_targets = campaign.devices.size();
  context.fleet_devices = registry.Stats().devices;
  // The full original target set (resume included): what the manifest
  // completion count in the report is computed over.
  std::vector<fleet::DeviceId> manifest_targets = campaign.devices;
  fleet::CampaignJournal journal;
  const bool journaled = !config.state_dir.empty();
  if (journaled) {
    auto opened = journal.Open(config.state_dir);
    if (!opened.ok()) {
      std::fprintf(stderr, "cannot open campaign journal: %s\n",
                   opened.ToString().c_str());
      return 1;
    }
    const auto& recovered = journal.recovered();
    if (recovered.active && !config.resume) {
      std::fprintf(stderr,
                   "an interrupted campaign is checkpointed in %s; rerun "
                   "with --resume to continue it\n",
                   config.state_dir.c_str());
      return 1;
    }
    if (recovered.active) {
      if (recovered.rotation && config.rotate_group == 0) {
        std::fprintf(stderr,
                     "refusing to resume: the interrupted campaign is a key "
                     "rotation; rerun with --rotate-epoch %llu\n",
                     static_cast<unsigned long long>(recovered.rotation_group));
        return 1;
      }
      if (!recovered.rotation && config.rotate_group != 0) {
        std::fprintf(stderr,
                     "refusing to resume: the interrupted campaign is not a "
                     "key rotation (drop --rotate-epoch)\n");
        return 1;
      }
      // A resumed rotation continues to the *journaled* target epoch:
      // the registry may or may not have durably bumped before the
      // crash, and recomputing current+1 here would rotate one epoch too
      // far whenever it had.
      if (recovered.rotation &&
          recovered.rotation_group == config.rotate_group) {
        rotate_epoch = recovered.rotation_epoch;
      }
    }
    const uint64_t fingerprint =
        fleet::CampaignFingerprint(config, program.source,
                                   campaign.campaign_seed, rotate_epoch,
                                   base_version);
    if (recovered.active) {
      if (recovered.campaign_fingerprint != fingerprint) {
        std::fprintf(stderr,
                     "refusing to resume: the interrupted campaign ran a "
                     "different program, policy, or rotation target\n");
        return 1;
      }
      manifest_targets = recovered.targets;
      campaign.devices = recovered.RemainingTargets();
      context.resumed = true;
      context.previously_completed = recovered.completed.size();
      context.previously_failed = recovered.failed;
      context.original_targets = recovered.targets.size();
      std::printf("resume: %zu of %zu targets already checkpointed "
                  "(%llu failed), %zu remain\n",
                  context.previously_completed, context.original_targets,
                  static_cast<unsigned long long>(context.previously_failed),
                  campaign.devices.size());
      if (recovered.watchdog) {
        const char* verb = recovered.watchdog_abort ? "aborted" : "paused";
        std::printf(
            "resume: campaign was %s by the health watchdog: SLO %s "
            "observed %.6g > %.6g (burn %.2fx)\n",
            verb, recovered.watchdog_slo.c_str(), recovered.watchdog_observed,
            recovered.watchdog_threshold, recovered.watchdog_burn);
        if (!config.ack_watchdog) {
          std::fprintf(stderr,
                       "refusing to resume a watchdog-%s campaign; rerun "
                       "with --resume --ack-watchdog to acknowledge the "
                       "breach and continue\n",
                       verb);
          if (!config.json_path.empty()) {
            WriteWatchdogStopJson(config.json_path, recovered,
                                  campaign.devices.size());
          }
          return 3;
        }
        std::printf("resume: watchdog %s acknowledged; continuing over "
                    "the remaining targets\n",
                    recovered.watchdog_abort ? "abort" : "pause");
      }
    } else {
      if (config.resume) {
        std::printf("resume: no interrupted campaign in %s; starting "
                    "fresh\n", config.state_dir.c_str());
      }
      auto begun = config.rotate_group != 0
                       ? journal.BeginRotation(fingerprint, campaign.devices,
                                               config.rotate_group,
                                               rotate_epoch)
                       : journal.Begin(fingerprint, campaign.devices);
      if (!begun.ok()) {
        std::fprintf(stderr, "cannot begin campaign journal: %s\n",
                     begun.ToString().c_str());
        return 1;
      }
    }
  }

  // Declaration order is the safety argument: the watchdog (and the
  // shutdown guard after it) is declared after the journal and the
  // control, so its breach action can never fire against a destroyed
  // journal or control block.
  fleet::CampaignControl control;
  obs::HealthMonitor watchdog;
  TelemetryShutdown telemetry_shutdown{&watchdog, &exporter};
  fleet::ScheduledReport scheduled;  // empty when nothing is left to run
  std::optional<fleet::RotationReport> rotated;

  if (context.resumed && campaign.devices.empty()) {
    // The crash landed between the last checkpoint and the end record:
    // nothing to dispatch, but --json consumers still get a report.
    std::printf("resume: every target already has a durable outcome; "
                "campaign complete\n");
  } else {
    std::printf("campaign: %s, %s encryption, %zu workers, %u attempts, "
                "fault=%s rate=%.2f\n",
                program.name.c_str(), config.mode.c_str(), config.workers,
                config.attempts, config.fault_name.c_str(),
                config.fault_rate);
    const fleet::SchedulerConfig& rollout = config.rollout;
    if (rollout.canary_size > 0 || rollout.wave_size > 0 ||
        rollout.limits.dispatch_rate > 0 ||
        rollout.limits.group_concurrency > 0) {
      std::printf("rollout:  canary=%zu (threshold %.2f), wave-size=%zu, "
                  "rate=%.0f/s, group-concurrency=%zu\n",
                  rollout.canary_size, rollout.canary_failure_threshold,
                  rollout.wave_size, rollout.limits.dispatch_rate,
                  rollout.limits.group_concurrency);
    }

    for (const auto& spec : config.slos) {
      auto added = watchdog.AddSlo(spec);
      if (!added.ok()) {
        std::fprintf(stderr, "--slo %s: %s\n",
                     obs::FormatSloSpec(spec).c_str(),
                     added.ToString().c_str());
        return 2;
      }
      std::printf("watchdog: %s\n", obs::FormatSloSpec(spec).c_str());
    }
    if (!config.slos.empty()) {
      watchdog.SetBreachAction([&](const obs::BreachInfo& breach) {
        std::fprintf(stderr,
                     "watchdog: SLO %s breached: observed %.6g > %.6g "
                     "(burn %.2fx, n=%llu) -> %s\n",
                     breach.slo_name.c_str(), breach.observed,
                     breach.threshold, breach.burn_rate,
                     static_cast<unsigned long long>(breach.window_count),
                     std::string(obs::BreachPolicyName(breach.policy))
                         .c_str());
        if (breach.policy == obs::BreachPolicy::kLog) return;
        const bool abort = breach.policy == obs::BreachPolicy::kAbort;
        // Journal before control: a kill -9 landing between the two
        // still resumes into a watchdog-stopped campaign, never a
        // silently half-paused one.
        if (journaled) {
          auto noted = journal.NoteWatchdog(breach.slo_name, abort,
                                            breach.observed,
                                            breach.threshold,
                                            breach.burn_rate);
          if (!noted.ok()) {
            std::fprintf(stderr, "watchdog: cannot journal the breach: %s\n",
                         noted.ToString().c_str());
          }
        }
        if (abort) {
          control.Cancel();
        } else {
          control.Pause();
        }
      });
      obs::SetGlobalHealthMonitor(&watchdog);
      auto started = watchdog.Start(config.slo_interval);
      if (!started.ok()) {
        std::fprintf(stderr, "cannot start health watchdog: %s\n",
                     started.ToString().c_str());
        return 1;
      }
    }
    if (journaled) {
      control.AttachCheckpointSink(&journal);
      journal.CancelCampaignOnError(&control);
    }

    if (config.rotate_group != 0) {
      fleet::RotationCampaign rotation(engine, registry, cache);
      auto bumped = rotation.Bump(config.rotate_group, rotate_epoch);
      if (!bumped.ok()) {
        std::fprintf(stderr, "rotation campaign failed: %s\n",
                     bumped.status().ToString().c_str());
        return 1;
      }
      rotated = std::move(*bumped);
      std::printf("rotation: group %llu epoch %llu -> %llu%s, %zu members "
                  "re-keyed, %zu stale artifacts invalidated "
                  "(bump %.1f ms, invalidate %.2f ms)\n",
                  static_cast<unsigned long long>(config.rotate_group),
                  static_cast<unsigned long long>(rotated->old_epoch),
                  static_cast<unsigned long long>(rotated->new_epoch),
                  rotated->bumped ? "" : " (already durable; resume)",
                  rotated->members_rekeyed, rotated->artifacts_invalidated,
                  rotated->bump_ms, rotated->invalidate_ms);
    }

    std::thread pauser;
    if (config.pause_after_ms > 0) {
      pauser = std::thread([&] {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(config.pause_after_ms));
        control.Pause();
        const auto at_pause = control.progress();
        std::printf("[control] paused %u ms in (wave %u, %llu deliveries)\n",
                    config.pause_after_ms, at_pause.waves_started,
                    static_cast<unsigned long long>(at_pause.deliveries));
        std::this_thread::sleep_for(
            std::chrono::milliseconds(config.pause_for_ms));
        control.Resume();
        std::printf("[control] resumed after %u ms\n", config.pause_for_ms);
      });
    }
    fleet::CampaignScheduler scheduler(engine, registry);
    auto ran = scheduler.Run(campaign, config.rollout, &control);
    if (pauser.joinable()) pauser.join();
    if (!ran.ok()) {
      std::fprintf(stderr, "campaign failed: %s\n",
                   ran.status().ToString().c_str());
      return 1;
    }
    scheduled = std::move(*ran);
    if (journaled && !journal.last_error().ok()) {
      std::fprintf(stderr, "checkpoint append failed: %s\n",
                   journal.last_error().ToString().c_str());
      return 1;
    }
  }
  // A cancelled campaign stays open for --resume; a completed or
  // gate-aborted one is over (a gate abort is a policy decision, not
  // lost work).
  if (journaled && scheduled.outcome != fleet::CampaignOutcome::kCancelled &&
      !journal.Complete().ok()) {
    return 1;
  }

  PrintReport(scheduled, config);
  if (!config.json_path.empty() &&
      !WriteReportJson(config.json_path, context, config, scheduled,
                       rotated ? &*rotated : nullptr,
                       CountManifestsAt(registry, manifest_targets,
                                        target_version))) {
    return 1;
  }
  // Complete: every non-revoked target of this run succeeded and no
  // target was durably checkpointed as failed before a resume.
  const bool complete =
      scheduled.outcome == fleet::CampaignOutcome::kCompleted &&
      scheduled.succeeded == scheduled.targets - scheduled.revoked &&
      context.previously_failed == 0;
  return complete ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed =
      fleet::ParseDaemonConfig(std::vector<std::string>(argv + 1, argv + argc));
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.status().message().c_str(),
                 fleet::DaemonUsage());
    return 2;
  }
  const fleet::DaemonConfig& config = *parsed;
  for (const auto& warning : config.warnings) {
    std::fprintf(stderr, "warning: %s\n", warning.c_str());
  }

  Program program, base;
  if (!LoadProgram(config.source_path, config.workload_name, &program) ||
      (config.delta && !LoadProgram(config.base_source_path,
                                    config.base_workload_name, &base))) {
    return 1;
  }

  // The exporter starts before the fleet stands up (enrollment gauges are
  // telemetry too) and flushes one final snapshot on every exit path.
  if (!config.trace_out.empty()) obs::TraceCollector::Global().Enable();
  obs::MetricsExporter exporter;
  if (!config.metrics_out.empty() || !config.trace_out.empty()) {
    obs::MetricsExporter::Options telemetry;
    telemetry.json_path = config.metrics_out;
    telemetry.trace_path = config.trace_out;
    telemetry.interval_seconds = config.metrics_interval;
    auto started = exporter.Start(std::move(telemetry));
    if (!started.ok()) {
      std::fprintf(stderr, "cannot start telemetry exporter: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    if (!config.metrics_out.empty()) {
      std::printf("telemetry: metrics -> %s (+ .prom) every %.2f s%s%s\n",
                  config.metrics_out.c_str(), config.metrics_interval,
                  config.trace_out.empty() ? "" : ", spans -> ",
                  config.trace_out.c_str());
    } else {
      std::printf("telemetry: spans -> %s\n", config.trace_out.c_str());
    }
  }

  fleet::RegistryConfig registry_config;
  registry_config.key_config.domain = "fleetd.v1";
  fleet::DeviceRegistry registry(registry_config);
  auto devices = StandUpFleet(config, registry);
  if (!devices.ok()) {
    std::fprintf(stderr, "fleet standup failed: %s\n",
                 devices.status().ToString().c_str());
    return 1;
  }

  if (config.soak != nullptr) {
    std::printf("soak: profile=%s seed=0x%llx (%zu rounds)\n",
                config.soak->name,
                static_cast<unsigned long long>(config.soak_seed),
                config.soak->rounds);
    return RunSoak(registry, *config.soak, config.soak_seed,
                   registry.Stats().devices, config.json_path);
  }

  Wire wire;
  if (config.listen_port) {
    if (auto failed = StartWire(config, *devices, &wire)) return *failed;
  }
  return RunCampaign(config, program, base, registry, *devices,
                     wire.server.get(), exporter);
}
