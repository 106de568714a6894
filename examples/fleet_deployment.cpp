// Scenario: fleet deployment through the fleet distribution subsystem.
//
// The paper's scaling story (Sec. III.1 group keys — "programs can be
// created to run on multiple hardware of their own with a single compile
// step") run through the production-shaped stack: the DeviceRegistry
// enrolls the fleet, the PackageCache compiles + seals ONCE for the whole
// group, and the DeploymentEngine pushes the campaign over a lossy channel
// with retries — while a grey-market clone outside the group stays locked
// out and a revoked device is skipped.
//
// Act 2 stages the rollout: a broken firmware build (every delivery
// truncated) is stopped by the canary gate before 5/6 of the fleet ever
// sees a byte of it, then the fixed build ships in rolling waves to
// everyone.
//
// Act 3 kills the daemon: a durable registry and campaign journal under
// a state directory are torn down mid-campaign, rebuilt from disk, and
// the resumed campaign finishes the fleet exactly-once — no enrollment
// lost, no device delivered twice.
#include <cstdio>
#include <filesystem>
#include <set>

#include "fleet/campaign_journal.h"
#include "fleet/campaign_scheduler.h"
#include "fleet/deployment_engine.h"

int main() {
  using namespace eric;

  // Fab side: registry + one product-line group, 8 devices.
  fleet::RegistryConfig registry_config;
  registry_config.key_config.domain = "acme.fleet.v1";
  fleet::DeviceRegistry registry(registry_config);
  const fleet::GroupId group = registry.CreateGroup("acme-widget-rev-a");
  for (uint64_t i = 0; i < 8; ++i) {
    auto id = registry.Enroll(0xFAB000 + i, group);
    if (!id.ok()) {
      std::printf("enroll failed: %s\n", id.status().ToString().c_str());
      return 1;
    }
  }
  auto members = registry.GroupMembers(group);
  if (!members.ok()) return 1;
  std::printf("fab: enrolled %zu devices onto one group key\n",
              members->size());

  // One device falls off a truck; the fab revokes it.
  const fleet::DeviceId revoked = members->back();
  if (!registry.Revoke(revoked).ok()) return 1;
  std::printf("fab: revoked device %llu\n",
              static_cast<unsigned long long>(revoked));

  auto group_key = registry.GroupKey(group);
  if (!group_key.ok()) return 1;

  // Vendor runs the campaign: the cache compiles + seals once; the engine
  // retries through a channel that randomly corrupts one delivery in three.
  fleet::PackageCache cache;
  fleet::DeploymentEngine engine(registry, cache);

  fleet::CampaignConfig campaign;
  campaign.source = R"(
    fn main() {
      var check = 0;
      var i = 1;
      while (i <= 64) { check = (check * 31 + i) % 1000003; i = i + 1; }
      return check;
    }
  )";
  campaign.policy = core::EncryptionPolicy::PartialRandom(0.5);
  campaign.group = group;
  campaign.workers = 4;
  campaign.max_attempts = 5;
  campaign.channel.fault = net::ChannelFault::kRandomBitFlips;
  campaign.fault_rate = 1.0 / 3.0;

  auto report = engine.Run(campaign);
  if (!report.ok()) {
    std::printf("campaign failed: %s\n", report.status().ToString().c_str());
    return 1;
  }
  // Every successful run must agree on the result — a "success" with a
  // divergent exit code would be exactly the misexecution ERIC forbids.
  int64_t expected_exit = -1;
  bool exits_agree = true;
  for (const auto& outcome : report->outcomes) {
    if (outcome.ok) {
      if (expected_exit < 0) expected_exit = outcome.exit_code;
      if (outcome.exit_code != expected_exit) exits_agree = false;
      std::printf("device %llu: ok (exit %lld, %u attempt%s)\n",
                  static_cast<unsigned long long>(outcome.device),
                  static_cast<long long>(outcome.exit_code), outcome.attempts,
                  outcome.attempts == 1 ? "" : "s");
    } else if (outcome.revoked) {
      std::printf("device %llu: skipped (revoked)\n",
                  static_cast<unsigned long long>(outcome.device));
    } else {
      std::printf("device %llu: FAILED (%s)\n",
                  static_cast<unsigned long long>(outcome.device),
                  outcome.last_status.ToString().c_str());
    }
  }
  std::printf("\ncampaign: %llu ok / %llu revoked of %llu targets, "
              "%llu deliveries (%llu retries), sealed once (%llu cache "
              "hits)\n",
              static_cast<unsigned long long>(report->succeeded),
              static_cast<unsigned long long>(report->revoked),
              static_cast<unsigned long long>(report->targets),
              static_cast<unsigned long long>(report->deliveries),
              static_cast<unsigned long long>(report->retries),
              static_cast<unsigned long long>(report->cache_artifact_hits));

  // A clone outside the group receives the same bytes — and rejects them.
  core::TrustedDevice clone(0xC107E, registry.key_config());
  clone.Enroll();
  auto artifact = cache.GetOrBuild(campaign.source, *group_key,
                                   registry.key_config(), campaign.policy);
  if (!artifact.ok()) return 1;
  auto pirate_run = clone.ReceiveAndRun((*artifact)->wire);
  std::printf("clone device: %s\n",
              pirate_run.ok() ? "RAN (bug!)" : "rejected");

  const bool act1_ok = report->succeeded == report->targets - 1 &&
                       report->revoked == 1 && exits_agree && !pirate_run.ok();

  // --- Act 2: canary-gated staged rollout ------------------------------------
  // A new firmware rev goes out to a bigger product line — but the first
  // push rides a channel that truncates every delivery (a botched CDN
  // config, say). The canary cohort burns; the gate stops the campaign
  // before the rest of the fleet is touched. The second push is healthy
  // and rolls out in waves.
  std::printf("\n--- staged rollout with canary gate ---\n");
  const fleet::GroupId line_b = registry.CreateGroup("acme-widget-rev-b");
  for (uint64_t i = 0; i < 24; ++i) {
    auto id = registry.Enroll(0xFAB100 + i, line_b);
    if (!id.ok()) return 1;
  }

  fleet::DeploymentEngine staged_engine(registry, cache);
  fleet::CampaignScheduler scheduler(staged_engine, registry);

  fleet::CampaignConfig rollout;
  rollout.source = campaign.source;
  rollout.policy = campaign.policy;
  rollout.group = line_b;
  rollout.workers = 4;

  fleet::SchedulerConfig staged;
  staged.canary_size = 4;
  staged.canary_failure_threshold = 0.25;
  staged.wave_size = 8;

  // Push 1: the broken pipe. Every delivery is truncated; the HDE
  // rejects each one, the canary failure rate hits 1.0, and the gate
  // aborts the campaign.
  fleet::CampaignConfig broken = rollout;
  broken.channel.fault = net::ChannelFault::kTruncate;
  broken.fault_rate = 1.0;
  auto bad_push = scheduler.Run(broken, staged);
  if (!bad_push.ok()) return 1;
  std::printf("push 1 (broken build): %s — canary failure rate %.2f, "
              "%llu of %llu devices never dispatched\n",
              std::string(fleet::CampaignOutcomeName(bad_push->outcome))
                  .c_str(),
              bad_push->waves.front().failure_rate,
              static_cast<unsigned long long>(bad_push->skipped),
              static_cast<unsigned long long>(bad_push->targets));

  // Push 2: the fixed build rolls out canary-first, then in waves of 8.
  auto good_push = scheduler.Run(rollout, staged);
  if (!good_push.ok()) return 1;
  std::printf("push 2 (fixed build):  %s — %zu waves, %llu/%llu ok\n",
              std::string(fleet::CampaignOutcomeName(good_push->outcome))
                  .c_str(),
              good_push->waves.size(),
              static_cast<unsigned long long>(good_push->succeeded),
              static_cast<unsigned long long>(good_push->targets));

  const bool act2_ok =
      bad_push->outcome == fleet::CampaignOutcome::kAbortedByGate &&
      bad_push->skipped == 20 && bad_push->succeeded == 0 &&
      good_push->outcome == fleet::CampaignOutcome::kCompleted &&
      good_push->succeeded == 24;

  // --- Act 3: the daemon dies mid-campaign; the fleet does not ---------------
  // Registry mutations are write-ahead logged and campaign outcomes
  // checkpointed under a state directory. We enroll a durable fleet,
  // "crash" the daemon (cancel + tear down every in-memory object) after
  // a few deliveries, then bring up a fresh process image from disk and
  // resume.
  std::printf("\n--- durable state: crash mid-campaign, resume ---\n");
  const std::string state_dir =
      (std::filesystem::temp_directory_path() / "eric-example-fleet-state")
          .string();
  std::filesystem::remove_all(state_dir);

  fleet::RegistryConfig durable_config;
  durable_config.key_config.domain = "acme.fleet.v1";
  std::set<fleet::DeviceId> first_run, second_run;
  size_t enrolled_before_crash = 0;
  {
    fleet::DeviceRegistry durable(durable_config);
    if (!durable.OpenStorage(state_dir).ok()) return 1;
    const fleet::GroupId line_c = durable.CreateGroup("acme-widget-rev-c");
    for (uint64_t i = 0; i < 12; ++i) {
      if (!durable.Enroll(0xFAB200 + i, line_c).ok()) return 1;
    }
    enrolled_before_crash = durable.Stats().devices;

    fleet::CampaignJournal journal;
    if (!journal.Open(state_dir).ok()) return 1;
    const auto targets = durable.AllDevices();
    if (!journal.Begin(/*campaign_fingerprint=*/0xACE3, targets).ok()) {
      return 1;
    }

    // Cancel the campaign after 5 durable checkpoints — the in-process
    // stand-in for kill -9 (the real signal path is exercised by
    // tests/fleetd_resume_test.py).
    struct CrashAfter : fleet::CampaignCheckpointSink {
      fleet::CampaignJournal* journal;
      fleet::CampaignControl* control;
      int remaining = 5;
      void OnTargetCheckpoint(
          const fleet::TargetCheckpoint& checkpoint) override {
        journal->OnTargetCheckpoint(checkpoint);
        if (--remaining == 0) control->Cancel();
      }
    };
    fleet::CampaignControl control;
    CrashAfter crash;
    crash.journal = &journal;
    crash.control = &control;
    control.AttachCheckpointSink(&crash);
    fleet::DispatchGovernor governor({}, &control);

    fleet::PackageCache durable_cache;
    fleet::DeploymentEngine durable_engine(durable, durable_cache);
    fleet::CampaignConfig doomed = rollout;
    doomed.group = line_c;
    doomed.workers = 1;
    doomed.governor = &governor;
    auto crashed = durable_engine.Run(doomed);
    if (!crashed.ok()) return 1;
    for (const auto& outcome : crashed->outcomes) {
      if (outcome.ok) first_run.insert(outcome.device);
    }
    std::printf("daemon: delivered %zu of 12, then died (kill -9)\n",
                first_run.size());
  }  // every in-memory object is gone

  // "Restart": recover fleet and campaign from disk, resume.
  bool act3_ok = false;
  {
    fleet::DeviceRegistry recovered(durable_config);
    if (!recovered.OpenStorage(state_dir).ok()) return 1;
    const auto storage = recovered.storage_info();
    fleet::CampaignJournal journal;
    if (!journal.Open(state_dir).ok()) return 1;
    std::printf("restart: %llu devices recovered in %.1f ms; journal shows "
                "%zu targets checkpointed\n",
                static_cast<unsigned long long>(storage.devices_recovered),
                storage.recovery_ms, journal.recovered().completed.size());

    fleet::CampaignControl control;
    control.AttachCheckpointSink(&journal);
    fleet::DispatchGovernor governor({}, &control);
    fleet::PackageCache recovered_cache;
    fleet::DeploymentEngine recovered_engine(recovered, recovered_cache);
    fleet::CampaignConfig resumed = rollout;
    resumed.group = fleet::kNoGroup;
    resumed.devices = journal.recovered().RemainingTargets();
    resumed.governor = &governor;
    auto finish = recovered_engine.Run(resumed);
    if (!finish.ok() || !journal.Complete().ok()) return 1;
    for (const auto& outcome : finish->outcomes) {
      if (outcome.ok) second_run.insert(outcome.device);
    }

    // Exactly-once: the two runs partition the fleet.
    bool disjoint = true;
    for (fleet::DeviceId id : second_run) {
      if (first_run.count(id) > 0) disjoint = false;
    }
    std::printf("resume: delivered the remaining %zu exactly-once (%zu + "
                "%zu = %zu, disjoint: %s)\n",
                second_run.size(), first_run.size(), second_run.size(),
                first_run.size() + second_run.size(),
                disjoint ? "yes" : "NO");
    act3_ok = storage.devices_recovered == enrolled_before_crash &&
              disjoint && first_run.size() + second_run.size() == 12;
  }
  std::filesystem::remove_all(state_dir);

  const bool ok = act1_ok && act2_ok && act3_ok;
  std::printf("\nfleet result: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
