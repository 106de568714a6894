// Fleet subsystem tests: device registry under concurrency, encrypt-once
// cache correctness (a cached artifact is exactly as device-bound as a
// freshly sealed one), campaign retry behaviour under every channel
// fault, and the campaign scheduler (waves, canary gates, throttling,
// pause/resume/cancel).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <thread>

#include "fleet/campaign_scheduler.h"
#include "fleet/deployment_engine.h"
#include "fleet/rotation_campaign.h"
#include "net/channel.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pkg/delta.h"
#include "workloads/workloads.h"

namespace eric::fleet {
namespace {

// sum of i*i for i in 1..10
constexpr int64_t kTinyProgramResult = 385;
constexpr const char* kTinyProgram = R"(
  fn main() {
    var sum = 0;
    var i = 1;
    while (i <= 10) { sum = sum + i * i; i = i + 1; }
    return sum;
  }
)";

// --- Campaign accounting oracle -------------------------------------------------

/// The never-dispatched bucket of a campaign or scheduled report.
template <typename Report>
uint64_t NeverDispatched(const Report& report) {
  if constexpr (requires { report.never_dispatched; }) {
    return report.never_dispatched;
  } else {
    return report.skipped;
  }
}

/// Accounting identities every campaign report must satisfy: the outcome
/// buckets partition the targets, deliveries decompose by package kind
/// and equal the per-target attempts, wire bytes equal the per-target
/// bytes, and the per-ISA slices sum to the totals.
void ExpectTalliesAddUp(const CampaignReport& report) {
  EXPECT_EQ(report.succeeded + report.failed + report.revoked +
                NeverDispatched(report),
            report.targets);
  EXPECT_EQ(report.outcomes.size(), report.targets);
  EXPECT_EQ(report.delta_deliveries + report.full_deliveries,
            report.deliveries);
  uint64_t attempts = 0, bytes = 0;
  for (const auto& outcome : report.outcomes) {
    attempts += outcome.attempts;
    bytes += outcome.bytes_shipped;
  }
  EXPECT_EQ(report.deliveries, attempts);
  EXPECT_EQ(report.bytes_shipped, bytes);
  CampaignIsaStats sum;
  for (const auto& slice : report.by_isa) {
    sum.targets += slice.targets;
    sum.succeeded += slice.succeeded;
    sum.deliveries += slice.deliveries;
    sum.bytes_shipped += slice.bytes_shipped;
    sum.seal_builds += slice.seal_builds;
    sum.compile_builds += slice.compile_builds;
  }
  EXPECT_EQ(sum.targets, report.targets);
  EXPECT_EQ(sum.succeeded, report.succeeded);
  EXPECT_EQ(sum.deliveries, report.deliveries);
  EXPECT_EQ(sum.bytes_shipped, report.bytes_shipped);
  EXPECT_EQ(sum.seal_builds, report.cache_artifact_misses);
  EXPECT_EQ(sum.compile_builds, report.cache_compile_misses);
}

/// A scheduled report: every wave adds up on its own, and every counter
/// is the sum over its waves, with the targets of waves that never
/// launched counted as never dispatched.
void ExpectTalliesAddUp(const ScheduledReport& report) {
  CampaignReport sum;
  uint64_t never_dispatched = 0;
  for (const auto& wave : report.waves) {
    SCOPED_TRACE("wave " + std::to_string(wave.wave_index));
    ExpectTalliesAddUp(wave.report);
    const CampaignReport& w = wave.report;
    sum.targets += w.targets;
    sum.succeeded += w.succeeded;
    sum.failed += w.failed;
    sum.revoked += w.revoked;
    never_dispatched += NeverDispatched(w);
    sum.deliveries += w.deliveries;
    sum.retries += w.retries;
    sum.delta_deliveries += w.delta_deliveries;
    sum.full_deliveries += w.full_deliveries;
    sum.delta_fallbacks += w.delta_fallbacks;
    sum.bytes_shipped += w.bytes_shipped;
    sum.bytes_full_equivalent += w.bytes_full_equivalent;
    sum.rollbacks += w.rollbacks;
    sum.health_failures += w.health_failures;
    sum.cache_artifact_hits += w.cache_artifact_hits;
    sum.cache_artifact_misses += w.cache_artifact_misses;
    sum.cache_compile_misses += w.cache_compile_misses;
    for (size_t i = 0; i < isa::kNumIsaIds; ++i) {
      sum.by_isa[i].targets += w.by_isa[i].targets;
      sum.by_isa[i].succeeded += w.by_isa[i].succeeded;
      sum.by_isa[i].deliveries += w.by_isa[i].deliveries;
      sum.by_isa[i].bytes_shipped += w.by_isa[i].bytes_shipped;
      sum.by_isa[i].seal_builds += w.by_isa[i].seal_builds;
      sum.by_isa[i].compile_builds += w.by_isa[i].compile_builds;
    }
  }
  ASSERT_LE(sum.targets, report.targets);
  const uint64_t never_launched = report.targets - sum.targets;
  EXPECT_EQ(report.succeeded + report.failed + report.revoked +
                NeverDispatched(report),
            report.targets);
  EXPECT_EQ(NeverDispatched(report), never_dispatched + never_launched);
  EXPECT_EQ(report.succeeded, sum.succeeded);
  EXPECT_EQ(report.failed, sum.failed);
  EXPECT_EQ(report.revoked, sum.revoked);
  EXPECT_EQ(report.deliveries, sum.deliveries);
  EXPECT_EQ(report.retries, sum.retries);
  EXPECT_EQ(report.delta_deliveries, sum.delta_deliveries);
  EXPECT_EQ(report.full_deliveries, sum.full_deliveries);
  EXPECT_EQ(report.delta_deliveries + report.full_deliveries,
            report.deliveries);
  EXPECT_EQ(report.delta_fallbacks, sum.delta_fallbacks);
  EXPECT_EQ(report.bytes_shipped, sum.bytes_shipped);
  EXPECT_EQ(report.bytes_full_equivalent, sum.bytes_full_equivalent);
  EXPECT_EQ(report.rollbacks, sum.rollbacks);
  EXPECT_EQ(report.health_failures, sum.health_failures);
  EXPECT_EQ(report.cache_artifact_hits, sum.cache_artifact_hits);
  EXPECT_EQ(report.cache_artifact_misses, sum.cache_artifact_misses);
  EXPECT_EQ(report.cache_compile_misses, sum.cache_compile_misses);
  uint64_t isa_targets = 0;
  for (size_t i = 0; i < isa::kNumIsaIds; ++i) {
    const CampaignIsaStats& slice = report.by_isa[i];
    EXPECT_EQ(slice.targets, sum.by_isa[i].targets);
    EXPECT_EQ(slice.succeeded, sum.by_isa[i].succeeded);
    EXPECT_EQ(slice.deliveries, sum.by_isa[i].deliveries);
    EXPECT_EQ(slice.bytes_shipped, sum.by_isa[i].bytes_shipped);
    EXPECT_EQ(slice.seal_builds, sum.by_isa[i].seal_builds);
    EXPECT_EQ(slice.compile_builds, sum.by_isa[i].compile_builds);
    isa_targets += slice.targets;
  }
  EXPECT_EQ(isa_targets + never_launched, report.targets);
}

// --- DeviceRegistry -----------------------------------------------------------

TEST(DeviceRegistryTest, EnrollLookupRoundTrip) {
  DeviceRegistry registry;
  const GroupId group = registry.CreateGroup("g");
  auto id = registry.Enroll(0xD0, group);
  ASSERT_TRUE(id.ok());

  auto info = registry.Lookup(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->id, *id);
  EXPECT_EQ(info->device_seed, 0xD0u);
  EXPECT_EQ(info->group, group);
  EXPECT_EQ(info->status, DeviceStatus::kEnrolled);

  EXPECT_EQ(registry.Lookup(9999).status().code(), ErrorCode::kNotFound);
}

TEST(DeviceRegistryTest, GroupedDeviceDeploysWithGroupKey) {
  DeviceRegistry registry;
  const GroupId group = registry.CreateGroup("g");
  auto id = registry.Enroll(0xD1, group);
  ASSERT_TRUE(id.ok());
  auto group_key = registry.GroupKey(group);
  auto deploy = registry.SealingContextFor(*id);
  ASSERT_TRUE(group_key.ok());
  ASSERT_TRUE(deploy.ok());
  EXPECT_EQ(*group_key, deploy->key);

  // Ungrouped devices get their own key.
  auto solo = registry.Enroll(0xD2);
  ASSERT_TRUE(solo.ok());
  auto solo_deploy = registry.SealingContextFor(*solo);
  ASSERT_TRUE(solo_deploy.ok());
  EXPECT_FALSE(solo_deploy->key == *group_key);
}

TEST(DeviceRegistryTest, RevokeSemantics) {
  DeviceRegistry registry;
  auto id = registry.Enroll(0xD3);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(registry.Revoke(12345).code(), ErrorCode::kNotFound);
  EXPECT_TRUE(registry.Revoke(*id).ok());
  EXPECT_EQ(registry.Revoke(*id).code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(registry.Lookup(*id)->status, DeviceStatus::kRevoked);

  // Revoked devices refuse dispatch.
  const std::vector<uint8_t> bytes(16, 0);
  EXPECT_EQ(registry.Dispatch(*id, bytes).status().code(),
            ErrorCode::kFailedPrecondition);
}

TEST(DeviceRegistryTest, ConcurrentEnrollLookupRevoke) {
  DeviceRegistry registry;
  const GroupId group = registry.CreateGroup("swarm");

  constexpr int kThreads = 4;
  constexpr int kPerThread = 16;
  std::vector<std::vector<DeviceId>> enrolled(kThreads);
  std::atomic<int> lookup_errors{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto id = registry.Enroll(
            0xC0FFEE00u + static_cast<uint64_t>(t * kPerThread + i), group);
        if (!id.ok()) { ++lookup_errors; continue; }
        enrolled[static_cast<size_t>(t)].push_back(*id);
        // Immediately read back through the shared table.
        auto info = registry.Lookup(*id);
        if (!info.ok() || info->group != group) ++lookup_errors;
        // Revoke every 4th enrollment from its own thread.
        if (i % 4 == 3 && !registry.Revoke(*id).ok()) ++lookup_errors;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(lookup_errors.load(), 0);
  std::set<DeviceId> unique_ids;
  for (const auto& ids : enrolled) unique_ids.insert(ids.begin(), ids.end());
  EXPECT_EQ(unique_ids.size(),
            static_cast<size_t>(kThreads) * kPerThread);

  const auto stats = registry.Stats();
  EXPECT_EQ(stats.devices, static_cast<size_t>(kThreads) * kPerThread);
  EXPECT_EQ(stats.revoked, static_cast<size_t>(kThreads) * (kPerThread / 4));
  EXPECT_EQ(stats.groups, 1u);
  auto members = registry.GroupMembers(group);
  ASSERT_TRUE(members.ok());
  EXPECT_EQ(members->size(), unique_ids.size());
}

// Revoke-then-re-enroll is how a fleet replaces compromised or RMA'd
// silicon: the old record stays (soft delete, its id is burned forever),
// a new record with a fresh id takes over — even for the same physical
// seed. These semantics are what the persistence layer's WAL replay must
// reproduce byte for byte, so they are pinned here.
TEST(DeviceRegistryTest, RevokeThenReEnrollReplacesDevice) {
  DeviceRegistry registry;
  const GroupId group = registry.CreateGroup("g");
  auto first = registry.Enroll(0x5111C0, group);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(registry.Revoke(*first).ok());

  // Same silicon seed, fresh enrollment: a distinct, live record.
  auto second = registry.Enroll(0x5111C0, group);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(*first, *second);
  EXPECT_EQ(registry.Lookup(*first)->status, DeviceStatus::kRevoked);
  EXPECT_EQ(registry.Lookup(*second)->status, DeviceStatus::kEnrolled);

  // The replacement deploys on the group key; the corpse still refuses.
  PackageCache cache;
  auto key = registry.GroupKey(group);
  ASSERT_TRUE(key.ok());
  auto artifact = cache.GetOrBuild(kTinyProgram, *key, registry.key_config(),
                                   core::EncryptionPolicy::Full());
  ASSERT_TRUE(artifact.ok());
  auto run = registry.Dispatch(*second, (*artifact)->wire);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->exec.exit_code, kTinyProgramResult);
  EXPECT_EQ(registry.Dispatch(*first, (*artifact)->wire).status().code(),
            ErrorCode::kFailedPrecondition);

  // Membership keeps both: history is never rewritten.
  auto members = registry.GroupMembers(group);
  ASSERT_TRUE(members.ok());
  EXPECT_EQ(members->size(), 2u);
  const auto stats = registry.Stats();
  EXPECT_EQ(stats.devices, 2u);
  EXPECT_EQ(stats.revoked, 1u);
}

// Group membership under concurrent revoke/re-enroll churn: mutators
// cycle devices through revoke -> replacement enrollment while readers
// hammer GroupMembers and Lookup. The membership list must never show a
// duplicate id or a torn read, and the final census must account for
// every enrollment exactly once.
TEST(DeviceRegistryTest, GroupMembershipConsistentUnderRevokeReEnrollRaces) {
  DeviceRegistry registry;
  const GroupId group = registry.CreateGroup("churn");

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::atomic<int> errors{0};
  std::atomic<bool> stop{false};

  // Reader thread: membership snapshots must always be duplicate-free
  // and every listed member must resolve through Lookup.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto members = registry.GroupMembers(group);
      if (!members.ok()) { ++errors; continue; }
      std::set<DeviceId> unique(members->begin(), members->end());
      if (unique.size() != members->size()) ++errors;
      for (DeviceId id : *members) {
        if (!registry.Lookup(id).ok()) ++errors;
      }
    }
  });

  std::vector<std::thread> mutators;
  for (int t = 0; t < kThreads; ++t) {
    mutators.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t seed =
            0xC1C1000 + static_cast<uint64_t>(t * kPerThread + i);
        auto id = registry.Enroll(seed, group);
        if (!id.ok()) { ++errors; continue; }
        if (!registry.Revoke(*id).ok()) ++errors;
        auto replacement = registry.Enroll(seed, group);
        if (!replacement.ok()) ++errors;
        else if (registry.Lookup(*replacement)->status !=
                 DeviceStatus::kEnrolled) {
          ++errors;
        }
      }
    });
  }
  for (auto& thread : mutators) thread.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(errors.load(), 0);
  constexpr size_t kEnrollments = 2u * kThreads * kPerThread;
  auto members = registry.GroupMembers(group);
  ASSERT_TRUE(members.ok());
  EXPECT_EQ(members->size(), kEnrollments);
  EXPECT_EQ(std::set<DeviceId>(members->begin(), members->end()).size(),
            kEnrollments);
  const auto stats = registry.Stats();
  EXPECT_EQ(stats.devices, kEnrollments);
  EXPECT_EQ(stats.revoked, kEnrollments / 2);
}

// --- PackageCache -------------------------------------------------------------

TEST(PackageCacheTest, HitOnSameInputsMissOnDifferent) {
  DeviceRegistry registry;
  const GroupId group = registry.CreateGroup("g");
  ASSERT_TRUE(registry.Enroll(0xCA, group).ok());
  auto key = registry.GroupKey(group);
  ASSERT_TRUE(key.ok());
  const auto policy = core::EncryptionPolicy::Full();

  PackageCache cache;
  auto first = cache.GetOrBuild(kTinyProgram, *key, registry.key_config(),
                                policy);
  ASSERT_TRUE(first.ok());
  auto second = cache.GetOrBuild(kTinyProgram, *key, registry.key_config(),
                                 policy);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // same shared artifact
  EXPECT_EQ(cache.Stats().artifact_hits, 1u);
  EXPECT_EQ(cache.Stats().artifact_misses, 1u);

  // A different policy re-seals but does not recompile.
  auto partial = cache.GetOrBuild(kTinyProgram, *key, registry.key_config(),
                                  core::EncryptionPolicy::PartialRandom(0.5));
  ASSERT_TRUE(partial.ok());
  EXPECT_NE(first->get(), partial->get());
  EXPECT_EQ(cache.Stats().artifact_misses, 2u);
  EXPECT_EQ(cache.Stats().compile_misses, 1u);
  EXPECT_EQ(cache.Stats().compile_hits, 1u);

  // A different key epoch is a different artifact address.
  crypto::KeyConfig rotated = registry.key_config();
  rotated.epoch = 7;
  auto rotated_artifact = cache.GetOrBuild(kTinyProgram, *key, rotated,
                                           policy);
  ASSERT_TRUE(rotated_artifact.ok());
  EXPECT_EQ(cache.Stats().artifact_misses, 3u);
}

TEST(PackageCacheTest, CachedArtifactValidatesOnMembersRejectsElsewhere) {
  DeviceRegistry registry;
  const GroupId group = registry.CreateGroup("g");
  std::vector<DeviceId> members;
  for (uint64_t i = 0; i < 5; ++i) {
    auto id = registry.Enroll(0xCAFE00 + i, group);
    ASSERT_TRUE(id.ok());
    members.push_back(*id);
  }
  // A device enrolled on its own key and one in a different group.
  auto outsider = registry.Enroll(0xBAD);
  ASSERT_TRUE(outsider.ok());
  const GroupId other_group = registry.CreateGroup("other");
  auto other_member = registry.Enroll(0xBAD2, other_group);
  ASSERT_TRUE(other_member.ok());

  auto key = registry.GroupKey(group);
  ASSERT_TRUE(key.ok());
  PackageCache cache;
  auto artifact = cache.GetOrBuild(
      kTinyProgram, *key, registry.key_config(),
      core::EncryptionPolicy::PartialRandom(0.5));
  ASSERT_TRUE(artifact.ok());

  // The one cached artifact validates and runs on EVERY group member...
  for (DeviceId member : members) {
    auto run = registry.Dispatch(member, (*artifact)->wire);
    ASSERT_TRUE(run.ok()) << "member " << member << ": "
                          << run.status().ToString();
    EXPECT_EQ(run->exec.exit_code, kTinyProgramResult);
  }
  // ...and only cache hits were spent serving them.
  EXPECT_EQ(cache.Stats().artifact_misses, 1u);

  // Non-members reject the same bytes (wrong PUF-based key -> bad digest).
  for (DeviceId stranger : {*outsider, *other_member}) {
    auto run = registry.Dispatch(stranger, (*artifact)->wire);
    EXPECT_FALSE(run.ok()) << "non-member " << stranger << " ran the package";
  }
}

TEST(PackageCacheTest, LruEvictsAtCapacity) {
  PackageCacheConfig config;
  config.max_artifacts = 2;
  PackageCache cache(config);

  DeviceRegistry registry;
  auto id = registry.Enroll(0xE1);
  ASSERT_TRUE(id.ok());
  auto sealing = registry.SealingContextFor(*id);
  ASSERT_TRUE(sealing.ok());

  // Three distinct artifacts through a 2-slot cache.
  for (uint64_t epoch = 0; epoch < 3; ++epoch) {
    crypto::KeyConfig config_epoch = registry.key_config();
    config_epoch.epoch = epoch;
    ASSERT_TRUE(cache.GetOrBuild(kTinyProgram, sealing->key, config_epoch,
                                 core::EncryptionPolicy::Full())
                    .ok());
  }
  const auto stats = cache.Stats();
  EXPECT_EQ(stats.artifact_misses, 3u);
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.artifact_entries, 2u);
}

TEST(PackageCacheTest, EvictsTheLeastRecentlyUsedArtifact) {
  PackageCacheConfig config;
  config.max_artifacts = 2;
  PackageCache cache(config);

  DeviceRegistry registry;
  auto id = registry.Enroll(0xE2);
  ASSERT_TRUE(id.ok());
  auto sealing = registry.SealingContextFor(*id);
  ASSERT_TRUE(sealing.ok());
  const auto get = [&](uint64_t epoch) {
    crypto::KeyConfig config_epoch = registry.key_config();
    config_epoch.epoch = epoch;
    ASSERT_TRUE(cache.GetOrBuild(kTinyProgram, sealing->key, config_epoch,
                                 core::EncryptionPolicy::Full())
                    .ok());
  };

  get(0);
  get(1);
  get(0);  // epoch 1 is now the least recently used
  get(2);  // evicts epoch 1
  EXPECT_EQ(cache.Stats().evictions, 1u);
  get(0);
  EXPECT_EQ(cache.Stats().artifact_misses, 3u);
  get(1);
  EXPECT_EQ(cache.Stats().artifact_misses, 4u);
}

// A Clear() while GetOrBuild callers race must never invalidate a handed-out
// artifact (readers hold shared_ptrs) and must leave the cache genuinely
// empty, so post-clear seals are fresh builds. This is the key-epoch
// rotation hook: bump the epoch, Clear(), and the fleet re-seals.
TEST(PackageCacheTest, ClearUnderConcurrentGetOrBuildIsSafeAndFresh) {
  DeviceRegistry registry;
  const GroupId group = registry.CreateGroup("g");
  auto device = registry.Enroll(0xC1EA2, group);
  ASSERT_TRUE(device.ok());
  auto key = registry.GroupKey(group);
  ASSERT_TRUE(key.ok());

  PackageCache cache;
  constexpr int kThreads = 4;
  constexpr int kIterations = 25;
  std::atomic<int> errors{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> builders;
  for (int t = 0; t < kThreads; ++t) {
    builders.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        // Three distinct artifact addresses (epochs) keep hits and misses
        // both in play while Clear() races.
        crypto::KeyConfig config = registry.key_config();
        config.epoch = static_cast<uint64_t>((t + i) % 3);
        auto artifact = cache.GetOrBuild(kTinyProgram, *key, config,
                                         core::EncryptionPolicy::Full());
        if (!artifact.ok() || (*artifact)->wire.empty()) ++errors;
      }
    });
  }
  std::thread clearer([&] {
    while (!stop.load()) {
      cache.Clear();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& thread : builders) thread.join();
  stop.store(true);
  clearer.join();
  EXPECT_EQ(errors.load(), 0);

  // A final Clear() empties the cache for real...
  cache.Clear();
  EXPECT_EQ(cache.Stats().artifact_entries, 0u);
  // ...and the next build is fresh: a miss that still seals a wire image
  // every group member validates.
  const auto misses_before = cache.Stats().artifact_misses;
  auto fresh = cache.GetOrBuild(kTinyProgram, *key, registry.key_config(),
                                core::EncryptionPolicy::Full());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(cache.Stats().artifact_misses, misses_before + 1);
  auto run = registry.Dispatch(*device, (*fresh)->wire);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->exec.exit_code, kTinyProgramResult);
}

// The documented contract: hit/miss/eviction/invalidation counters are
// monotonic, every GetOrBuild counts exactly one hit or one miss, and
// racing builders share one build — no matter how Clear() interleaves.
TEST(PackageCacheTest, StatsMonotonicUnderRacingGetOrBuildAndClear) {
  DeviceRegistry registry;
  const GroupId group = registry.CreateGroup("g");
  ASSERT_TRUE(registry.Enroll(0x57A7, group).ok());
  auto key = registry.GroupKey(group);
  ASSERT_TRUE(key.ok());

  PackageCache cache;
  constexpr int kThreads = 4;
  constexpr int kIterations = 30;
  std::atomic<int> errors{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> builders;
  for (int t = 0; t < kThreads; ++t) {
    builders.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        crypto::KeyConfig config = registry.key_config();
        config.epoch = static_cast<uint64_t>((t + i) % 2);
        if (!cache.GetOrBuild(kTinyProgram, *key, config,
                              core::EncryptionPolicy::Full())
                 .ok()) {
          ++errors;
        }
      }
    });
  }
  std::atomic<uint64_t> clears{0};
  std::thread clearer([&] {
    while (!stop.load()) {
      cache.Clear();
      ++clears;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // Sample the monotonic counters while the race runs: none may ever
  // step backwards, no matter how Clear() interleaves.
  std::atomic<bool> monotonic{true};
  std::thread sampler([&] {
    PackageCacheStats last;
    while (!stop.load()) {
      const auto stats = cache.Stats();
      if (stats.artifact_hits < last.artifact_hits ||
          stats.artifact_misses < last.artifact_misses ||
          stats.compile_hits < last.compile_hits ||
          stats.compile_misses < last.compile_misses ||
          stats.evictions < last.evictions ||
          stats.invalidations < last.invalidations) {
        monotonic.store(false);
      }
      last = stats;
    }
  });
  for (auto& thread : builders) thread.join();
  stop.store(true);
  clearer.join();
  sampler.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_TRUE(monotonic.load());

  // Exactly one hit or miss per call, and one miss per address: an
  // address stays resident or in flight from its first build on, so only
  // a Clear() in between can make it cold again.
  const auto stats = cache.Stats();
  EXPECT_EQ(stats.artifact_hits + stats.artifact_misses,
            static_cast<uint64_t>(kThreads) * kIterations);
  constexpr uint64_t kAddresses = 2;  // two epochs
  EXPECT_LE(stats.artifact_misses, kAddresses * (clears.load() + 1));
  EXPECT_LE(stats.compile_misses, clears.load() + 1);
}

/// Runs `call` on `threads` threads released together, so they race on
/// whatever cache address `call` names.
template <typename Call>
void RaceThreads(int threads, Call call) {
  std::atomic<int> ready{0};
  std::vector<std::thread> racers;
  for (int t = 0; t < threads; ++t) {
    racers.emplace_back([&, t] {
      ++ready;
      while (ready.load() < threads) std::this_thread::yield();
      call(t);
    });
  }
  for (auto& racer : racers) racer.join();
}

TEST(PackageCacheTest, RacingCallersOfOneColdAddressShareOneBuild) {
  DeviceRegistry registry;
  const GroupId group = registry.CreateGroup("g");
  ASSERT_TRUE(registry.Enroll(0x51F1, group).ok());
  auto key = registry.GroupKey(group);
  ASSERT_TRUE(key.ok());
  const std::string source = workloads::MakeSyntheticRelease(3);

  PackageCache cache;
  constexpr int kThreads = 8;
  std::vector<const CachedArtifact*> seen(kThreads, nullptr);
  std::vector<PackageCacheStats> per_call(kThreads);
  RaceThreads(kThreads, [&](int t) {
    auto artifact = cache.GetOrBuild(source, *key, registry.key_config(),
                                     core::EncryptionPolicy::Full(),
                                     core::CipherKind::kXor, {}, &per_call[t]);
    if (artifact.ok()) seen[t] = artifact->get();
  });

  const auto stats = cache.Stats();
  EXPECT_EQ(stats.compile_misses, 1u);
  EXPECT_EQ(stats.compile_hits, 0u);  // waiters never reach level 1
  EXPECT_EQ(stats.artifact_misses, 1u);
  EXPECT_EQ(stats.artifact_hits, kThreads - 1u);
  uint64_t call_misses = 0;
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(seen[t], nullptr) << "caller " << t;
    EXPECT_EQ(seen[t], seen[0]) << "caller " << t;
    EXPECT_EQ(per_call[t].artifact_hits + per_call[t].artifact_misses, 1u);
    call_misses += per_call[t].artifact_misses;
  }
  EXPECT_EQ(call_misses, 1u);  // the per-call stats agree on the builder
}

TEST(PackageCacheTest, TwoKeysRacingOnOneProgramCompileOnce) {
  DeviceRegistry registry;
  const GroupId first = registry.CreateGroup("first");
  const GroupId second = registry.CreateGroup("second");
  ASSERT_TRUE(registry.Enroll(0x2C01, first).ok());
  ASSERT_TRUE(registry.Enroll(0x2C02, second).ok());
  const std::array<Result<crypto::Key256>, 2> keys = {
      registry.GroupKey(first), registry.GroupKey(second)};
  ASSERT_TRUE(keys[0].ok() && keys[1].ok());
  const std::string source = workloads::MakeSyntheticRelease(3);

  PackageCache cache;
  std::atomic<int> errors{0};
  RaceThreads(2, [&](int t) {
    if (!cache.GetOrBuild(source, *keys[t], registry.key_config(),
                          core::EncryptionPolicy::Full())
             .ok()) {
      ++errors;
    }
  });
  EXPECT_EQ(errors.load(), 0);
  const auto stats = cache.Stats();
  EXPECT_EQ(stats.compile_misses, 1u);
  EXPECT_EQ(stats.compile_hits, 1u);
  EXPECT_EQ(stats.artifact_misses, 2u);  // one seal per key
}

TEST(PackageCacheTest, FailedBuildReachesEveryWaiterAndIsNotCached) {
  DeviceRegistry registry;
  const GroupId group = registry.CreateGroup("g");
  ASSERT_TRUE(registry.Enroll(0xBADC, group).ok());
  auto key = registry.GroupKey(group);
  ASSERT_TRUE(key.ok());
  const std::string broken =
      workloads::MakeSyntheticRelease(3) + "\nfn broken( {";
  PackageCache cache;
  const auto build = [&] {
    return cache.GetOrBuild(broken, *key, registry.key_config(),
                            core::EncryptionPolicy::Full());
  };
  // Every compile attempt, failed or not, closes one "compile" span.
  obs::TraceCollector& tracer = obs::TraceCollector::Global();
  tracer.Enable();
  (void)tracer.Drain();
  const uint64_t trace = tracer.BeginTrace();
  const auto compile_attempts = [&] {
    size_t attempts = 0;
    for (const auto& span : tracer.Drain()) {
      if (span.name == "compile") ++attempts;
    }
    return attempts;
  };

  constexpr int kThreads = 6;
  std::vector<Status> statuses(kThreads);
  RaceThreads(kThreads, [&](int t) {
    obs::TraceScope scope(trace, 0);
    statuses[t] = build().status();
  });
  const size_t raced = compile_attempts();
  EXPECT_GE(raced, 1u);
  EXPECT_LE(raced, static_cast<size_t>(kThreads));
  for (const Status& status : statuses) {
    EXPECT_EQ(status.code(), ErrorCode::kParseError) << status.ToString();
    EXPECT_EQ(status.ToString(), statuses[0].ToString());
  }

  // The failure was not cached: the next call compiles (and fails) anew.
  {
    obs::TraceScope scope(trace, 0);
    EXPECT_EQ(build().status().code(), ErrorCode::kParseError);
  }
  EXPECT_EQ(compile_attempts(), 1u);
  tracer.Disable();
  const auto stats = cache.Stats();
  EXPECT_EQ(stats.artifact_entries, 0u);
  EXPECT_EQ(stats.artifact_hits + stats.artifact_misses, 0u);
  EXPECT_EQ(stats.compile_hits + stats.compile_misses, 0u);
}

TEST(PackageCacheTest, TargetedInvalidationLeavesOtherKeysHot) {
  DeviceRegistry registry;
  const GroupId rotated = registry.CreateGroup("rotated");
  const GroupId bystander = registry.CreateGroup("bystander");
  ASSERT_TRUE(registry.Enroll(0x1A, rotated).ok());
  ASSERT_TRUE(registry.Enroll(0x1B, bystander).ok());
  auto rotated_key = registry.GroupKey(rotated);
  auto bystander_key = registry.GroupKey(bystander);
  ASSERT_TRUE(rotated_key.ok());
  ASSERT_TRUE(bystander_key.ok());
  const auto policy = core::EncryptionPolicy::Full();

  PackageCache cache;
  // Two policies under the rotated key (two artifacts), one under the
  // bystander key.
  ASSERT_TRUE(cache.GetOrBuild(kTinyProgram, *rotated_key,
                               registry.key_config(), policy)
                  .ok());
  ASSERT_TRUE(cache.GetOrBuild(kTinyProgram, *rotated_key,
                               registry.key_config(),
                               core::EncryptionPolicy::PartialRandom(0.5))
                  .ok());
  ASSERT_TRUE(cache.GetOrBuild(kTinyProgram, *bystander_key,
                               registry.key_config(), policy)
                  .ok());
  ASSERT_EQ(cache.Stats().artifact_entries, 3u);

  // Targeted invalidation drops exactly the rotated key's artifacts.
  EXPECT_EQ(cache.InvalidateKeyFingerprint(FingerprintKey(*rotated_key)), 2u);
  const auto after = cache.Stats();
  EXPECT_EQ(after.invalidations, 2u);
  EXPECT_EQ(after.artifact_entries, 1u);

  // The bystander stays hot (a hit), the rotated key re-seals (a miss) —
  // and the compile cache survived, so no recompilation either way.
  const auto misses_before = after.artifact_misses;
  ASSERT_TRUE(cache.GetOrBuild(kTinyProgram, *bystander_key,
                               registry.key_config(), policy)
                  .ok());
  EXPECT_EQ(cache.Stats().artifact_misses, misses_before);
  ASSERT_TRUE(cache.GetOrBuild(kTinyProgram, *rotated_key,
                               registry.key_config(), policy)
                  .ok());
  const auto final_stats = cache.Stats();
  EXPECT_EQ(final_stats.artifact_misses, misses_before + 1);
  EXPECT_EQ(final_stats.compile_misses, 1u);  // only the very first build

  // Unknown fingerprints invalidate nothing.
  EXPECT_EQ(cache.InvalidateKeyFingerprint(crypto::Sha256Digest{}), 0u);
}

// --- Key-epoch rotation -------------------------------------------------------

TEST(RotationTest, RotatedGroupRejectsOldSealsAndAcceptsNew) {
  DeviceRegistry registry;
  const GroupId group = registry.CreateGroup("rotating");
  const GroupId other = registry.CreateGroup("steady");
  std::vector<DeviceId> members;
  for (uint64_t i = 0; i < 3; ++i) {
    auto id = registry.Enroll(0x201 + i, group);
    ASSERT_TRUE(id.ok());
    members.push_back(*id);
  }
  auto other_member = registry.Enroll(0x2FF, other);
  auto solo = registry.Enroll(0x2FE);
  ASSERT_TRUE(other_member.ok());
  ASSERT_TRUE(solo.ok());

  PackageCache cache;
  const auto policy = core::EncryptionPolicy::PartialRandom(0.5);
  auto old_context = registry.SealingContextFor(members[0]);
  ASSERT_TRUE(old_context.ok());
  auto old_artifact = cache.GetOrBuild(kTinyProgram, old_context->key,
                                       old_context->config, policy);
  ASSERT_TRUE(old_artifact.ok());
  auto other_context = registry.SealingContextFor(*other_member);
  ASSERT_TRUE(other_context.ok());
  auto other_artifact = cache.GetOrBuild(kTinyProgram, other_context->key,
                                         other_context->config, policy);
  ASSERT_TRUE(other_artifact.ok());

  auto rotation = registry.RotateGroupEpoch(group);
  ASSERT_TRUE(rotation.ok());
  EXPECT_TRUE(rotation->rotated);
  EXPECT_EQ(rotation->old_epoch, 0u);
  EXPECT_EQ(rotation->new_epoch, 1u);
  EXPECT_EQ(rotation->members_rekeyed, members.size());
  EXPECT_EQ(rotation->old_key_fingerprint,
            FingerprintKey(old_context->key));

  // Members reject the stale-epoch package...
  for (DeviceId member : members) {
    auto run = registry.Dispatch(member, (*old_artifact)->wire);
    EXPECT_FALSE(run.ok()) << "member " << member
                           << " accepted a stale-epoch package";
  }
  // ...and run a fresh seal under the new context on every member.
  auto new_context = registry.SealingContextFor(members[0]);
  ASSERT_TRUE(new_context.ok());
  EXPECT_EQ(new_context->config.epoch, 1u);
  EXPECT_FALSE(new_context->key == old_context->key);
  auto new_artifact = cache.GetOrBuild(kTinyProgram, new_context->key,
                                       new_context->config, policy);
  ASSERT_TRUE(new_artifact.ok());
  for (DeviceId member : members) {
    auto run = registry.Dispatch(member, (*new_artifact)->wire);
    ASSERT_TRUE(run.ok()) << "member " << member << ": "
                          << run.status().ToString();
    EXPECT_EQ(run->exec.exit_code, kTinyProgramResult);
  }

  // The other group and the solo device never noticed.
  auto other_run = registry.Dispatch(*other_member, (*other_artifact)->wire);
  ASSERT_TRUE(other_run.ok());
  auto other_epoch = registry.GroupEpoch(other);
  ASSERT_TRUE(other_epoch.ok());
  EXPECT_EQ(*other_epoch, 0u);
  auto solo_context = registry.SealingContextFor(*solo);
  ASSERT_TRUE(solo_context.ok());
  EXPECT_EQ(solo_context->config.epoch, 0u);

  // A device enrolled into the group AFTER the rotation joins at the
  // current epoch and runs the new artifact as-is.
  auto late = registry.Enroll(0x204, group);
  ASSERT_TRUE(late.ok());
  auto late_run = registry.Dispatch(*late, (*new_artifact)->wire);
  ASSERT_TRUE(late_run.ok()) << late_run.status().ToString();
}

TEST(RotationTest, RotateToTargetIsIdempotentAndValidates) {
  DeviceRegistry registry;
  const GroupId group = registry.CreateGroup("g");
  ASSERT_TRUE(registry.Enroll(0x301, group).ok());

  EXPECT_EQ(registry.RotateGroupEpoch(kNoGroup).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(registry.RotateGroupEpoch(777).status().code(),
            ErrorCode::kNotFound);

  ASSERT_TRUE(registry.RotateGroupEpochTo(group, 3).ok());
  auto epoch = registry.GroupEpoch(group);
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 3u);
  // Replaying the same (or an older) target is a counted no-op.
  auto replay = registry.RotateGroupEpochTo(group, 3);
  ASSERT_TRUE(replay.ok());
  EXPECT_FALSE(replay->rotated);
  EXPECT_EQ(replay->members_rekeyed, 0u);
  EXPECT_EQ(replay->new_epoch, 3u);
  ASSERT_TRUE(registry.RotateGroupEpochTo(group, 1).ok());
  epoch = registry.GroupEpoch(group);
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 3u);
}

// Enrollments racing rotations must never strand a device: whichever
// side finishes second re-keys the newcomer, so after the dust settles
// every member runs a package sealed under the group's current context.
TEST(RotationTest, EnrollRacingRotationNeverStrandsAMember) {
  DeviceRegistry registry;
  const GroupId group = registry.CreateGroup("contested");
  ASSERT_TRUE(registry.Enroll(0x500, group).ok());

  constexpr int kEnrollers = 3;
  constexpr int kPerThread = 8;
  std::atomic<int> errors{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> enrollers;
  for (int t = 0; t < kEnrollers; ++t) {
    enrollers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        if (!registry.Enroll(0x510 + t * kPerThread + i, group).ok()) {
          ++errors;
        }
      }
    });
  }
  std::thread rotator([&] {
    while (!stop.load()) {
      if (!registry.RotateGroupEpoch(group).ok()) ++errors;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& thread : enrollers) thread.join();
  stop.store(true);
  rotator.join();
  ASSERT_EQ(errors.load(), 0);

  // Every member — including any that enrolled mid-rotation — validates
  // a package sealed under the group's final context.
  auto members = registry.GroupMembers(group);
  ASSERT_TRUE(members.ok());
  ASSERT_EQ(members->size(), 1u + kEnrollers * kPerThread);
  PackageCache cache;
  auto context = registry.SealingContextFor(members->front());
  ASSERT_TRUE(context.ok());
  auto artifact = cache.GetOrBuild(kTinyProgram, context->key,
                                   context->config,
                                   core::EncryptionPolicy::Full());
  ASSERT_TRUE(artifact.ok());
  for (DeviceId member : *members) {
    auto run = registry.Dispatch(member, (*artifact)->wire);
    EXPECT_TRUE(run.ok()) << "member " << member << " stranded: "
                          << run.status().ToString();
  }
}

TEST(RotationTest, RotationCampaignInvalidatesTargetedAndRedeploys) {
  DeviceRegistry registry;
  const GroupId rotating = registry.CreateGroup("rotating");
  const GroupId steady = registry.CreateGroup("steady");
  std::vector<DeviceId> all;
  for (uint64_t i = 0; i < 4; ++i) {
    auto a = registry.Enroll(0x401 + i, rotating);
    auto b = registry.Enroll(0x481 + i, steady);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    all.push_back(*a);
    all.push_back(*b);
  }
  PackageCache cache;
  DeploymentEngine engine(registry, cache);

  CampaignConfig campaign;
  campaign.source = kTinyProgram;
  campaign.devices = all;
  campaign.workers = 2;
  auto cold = engine.Run(campaign);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold->succeeded, all.size());
  ASSERT_EQ(cold->cache_artifact_misses, 2u);  // one seal per group
  ExpectTalliesAddUp(*cold);

  RotationConfig rotation_config;
  rotation_config.group = rotating;
  rotation_config.campaign = campaign;
  rotation_config.campaign.devices.clear();  // redeploy the group only
  rotation_config.rollout.canary_size = 1;   // exercise the wave machinery
  rotation_config.rollout.wave_size = 2;
  RotationCampaign rotation(engine, registry, cache);
  auto report = rotation.Run(rotation_config);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->bumped);
  EXPECT_EQ(report->old_epoch, 0u);
  EXPECT_EQ(report->new_epoch, 1u);
  EXPECT_EQ(report->members_rekeyed, 4u);
  EXPECT_EQ(report->artifacts_invalidated, 1u);  // targeted: rotating only
  EXPECT_EQ(report->rollout.outcome, CampaignOutcome::kCompleted);
  EXPECT_EQ(report->rollout.targets, 4u);
  EXPECT_EQ(report->rollout.succeeded, 4u);
  EXPECT_EQ(report->rollout.waves.size(), 3u);  // canary(1) + 2 + 1
  ExpectTalliesAddUp(report->rollout);

  // The steady group's artifact stayed hot: redeploying it is all hits.
  CampaignConfig steady_campaign = campaign;
  steady_campaign.devices.clear();
  steady_campaign.group = steady;
  auto steady_report = engine.Run(steady_campaign);
  ASSERT_TRUE(steady_report.ok());
  EXPECT_EQ(steady_report->succeeded, 4u);
  EXPECT_EQ(steady_report->cache_artifact_misses, 0u);
  ExpectTalliesAddUp(*steady_report);

  // Rotating again goes to epoch 2 and re-seals again.
  auto again = rotation.Run(rotation_config);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->new_epoch, 2u);
  EXPECT_EQ(again->rollout.succeeded, 4u);
  ExpectTalliesAddUp(again->rollout);
}

TEST(RotationTest, BumpAloneRotatesAndInvalidatesWithoutRedeploying) {
  DeviceRegistry registry;
  const GroupId group = registry.CreateGroup("g");
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(registry.Enroll(0x4B1 + i, group).ok());
  }
  PackageCache cache;
  DeploymentEngine engine(registry, cache);
  CampaignConfig campaign;
  campaign.source = kTinyProgram;
  campaign.group = group;
  ASSERT_TRUE(engine.Run(campaign).ok());

  RotationCampaign rotation(engine, registry, cache);
  EXPECT_EQ(rotation.Bump(kNoGroup).status().code(),
            ErrorCode::kInvalidArgument);
  auto bumped = rotation.Bump(group);
  ASSERT_TRUE(bumped.ok());
  EXPECT_TRUE(bumped->bumped);
  EXPECT_EQ(bumped->new_epoch, 1u);
  EXPECT_EQ(bumped->members_rekeyed, 3u);
  EXPECT_EQ(bumped->artifacts_invalidated, 1u);
  EXPECT_TRUE(bumped->rollout.waves.empty());  // nothing redeployed yet

  // Replaying the same target epoch is the resume case: a no-op.
  auto replayed = rotation.Bump(group, 1);
  ASSERT_TRUE(replayed.ok());
  EXPECT_FALSE(replayed->bumped);
  EXPECT_EQ(replayed->artifacts_invalidated, 0u);

  // The caller's own scheduled redeploy then seals under the new epoch.
  CampaignScheduler scheduler(engine, registry);
  auto redeploy = scheduler.Run(campaign, SchedulerConfig{});
  ASSERT_TRUE(redeploy.ok());
  EXPECT_EQ(redeploy->succeeded, 3u);
  EXPECT_EQ(redeploy->cache_artifact_misses, 1u);
  ExpectTalliesAddUp(*redeploy);
}

// --- DeploymentEngine ---------------------------------------------------------

struct FleetFixture {
  FleetFixture(size_t member_count, GroupId* group_out) {
    *group_out = registry.CreateGroup("fleet");
    for (uint64_t i = 0; i < member_count; ++i) {
      auto id = registry.Enroll(0xF00 + i, *group_out);
      EXPECT_TRUE(id.ok());
    }
  }
  DeviceRegistry registry;
  PackageCache cache;
};

TEST(DeploymentEngineTest, CleanCampaignSealsOnceAndRunsEverywhere) {
  GroupId group;
  FleetFixture fleet(6, &group);
  DeploymentEngine engine(fleet.registry, fleet.cache);

  CampaignConfig campaign;
  campaign.source = kTinyProgram;
  campaign.group = group;
  campaign.workers = 3;
  auto report = engine.Run(campaign);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->targets, 6u);
  EXPECT_EQ(report->succeeded, 6u);
  EXPECT_EQ(report->failed, 0u);
  EXPECT_EQ(report->deliveries, 6u);
  EXPECT_EQ(report->retries, 0u);
  for (const auto& outcome : report->outcomes) {
    EXPECT_TRUE(outcome.ok);
    EXPECT_EQ(outcome.exit_code, kTinyProgramResult);
    EXPECT_EQ(outcome.attempts, 1u);
  }
  // Encrypt-once: one miss, the rest hits.
  EXPECT_EQ(report->cache_artifact_misses, 1u);
  EXPECT_EQ(report->cache_artifact_hits, 5u);
  EXPECT_EQ(report->cache_compile_misses, 1u);
  ExpectTalliesAddUp(*report);
}

TEST(DeploymentEngineTest, RevokedDevicesAreSkippedNotRetried) {
  GroupId group;
  FleetFixture fleet(4, &group);
  auto members = fleet.registry.GroupMembers(group);
  ASSERT_TRUE(members.ok());
  ASSERT_TRUE(fleet.registry.Revoke(members->front()).ok());

  DeploymentEngine engine(fleet.registry, fleet.cache);
  CampaignConfig campaign;
  campaign.source = kTinyProgram;
  campaign.group = group;
  campaign.max_attempts = 5;
  auto report = engine.Run(campaign);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->succeeded, 3u);
  EXPECT_EQ(report->revoked, 1u);
  for (const auto& outcome : report->outcomes) {
    if (outcome.revoked) {
      // Skipped before any wire work: no deliveries spent on it at all.
      EXPECT_EQ(outcome.attempts, 0u);
      EXPECT_EQ(outcome.last_status.code(), ErrorCode::kFailedPrecondition);
    }
  }
  // Only the three live devices consumed deliveries.
  EXPECT_EQ(report->deliveries, 3u);
  ExpectTalliesAddUp(*report);
}

TEST(DeploymentEngineTest, EmptyCampaignIsAnError) {
  DeviceRegistry registry;
  PackageCache cache;
  DeploymentEngine engine(registry, cache);
  CampaignConfig campaign;
  campaign.source = kTinyProgram;
  EXPECT_EQ(engine.Run(campaign).status().code(), ErrorCode::kInvalidArgument);
}

/// A transport that rotates `group`'s key epoch during its first delivery
/// and otherwise delivers faithfully: the race a soak hits when a key
/// rotation lands between a target's seal and its delivery.
class RotateOnFirstDelivery : public net::DeliveryTransport {
 public:
  RotateOnFirstDelivery(DeviceRegistry& registry, GroupId group)
      : registry_(registry), group_(group) {}

  Result<std::vector<uint8_t>> Deliver(
      uint64_t, std::span<const uint8_t> wire_bytes,
      const net::ChannelConfig&) override {
    if (!rotated_.exchange(true)) {
      EXPECT_TRUE(registry_.RotateGroupEpoch(group_).ok());
    }
    return std::vector<uint8_t>(wire_bytes.begin(), wire_bytes.end());
  }

 private:
  DeviceRegistry& registry_;
  GroupId group_;
  std::atomic<bool> rotated_{false};
};

TEST(DeploymentEngineTest, RetryReSealsAfterARacedKeyRotation) {
  GroupId group;
  FleetFixture fleet(1, &group);
  DeploymentEngine engine(fleet.registry, fleet.cache);
  RotateOnFirstDelivery transport(fleet.registry, group);

  CampaignConfig campaign;
  campaign.source = kTinyProgram;
  campaign.group = group;
  campaign.max_attempts = 3;
  campaign.transport = &transport;
  auto report = engine.Run(campaign);
  ASSERT_TRUE(report.ok());
  const DeviceOutcome& outcome = report->outcomes[0];
  // The first delivery carried the retired epoch's package and was
  // refused; the retry re-read the sealing context and shipped a fresh
  // seal under the new epoch.
  EXPECT_TRUE(outcome.ok) << outcome.last_status.ToString();
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_EQ(outcome.exit_code, kTinyProgramResult);
  EXPECT_EQ(report->cache_artifact_misses, 2u);  // one seal per epoch
  EXPECT_EQ(report->cache_compile_misses, 1u);
  auto group_key = fleet.registry.GroupKey(group);
  ASSERT_TRUE(group_key.ok());
  auto manifest = fleet.registry.DeliveredVersion(outcome.device);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->key_fingerprint, FingerprintKey(*group_key));
  ExpectTalliesAddUp(*report);
}

// Retry behaviour under every channel fault: with a 50 % fault rate and a
// deep retry budget, every device eventually lands a clean delivery, no
// faulted delivery ever executes, and mutating faults show real retries.
class CampaignFaultTest : public ::testing::TestWithParam<net::ChannelFault> {};

TEST_P(CampaignFaultTest, RetriesUntilCleanDelivery) {
  GroupId group;
  FleetFixture fleet(8, &group);
  DeploymentEngine engine(fleet.registry, fleet.cache);

  CampaignConfig campaign;
  campaign.source = kTinyProgram;
  campaign.group = group;
  campaign.workers = 2;
  campaign.max_attempts = 40;  // p(fail) = 0.5^40 per device
  campaign.channel.fault = GetParam();
  campaign.channel.patch_offset = 40;  // inside the text section
  campaign.fault_rate = 0.5;
  campaign.campaign_seed = 0xFA015 + static_cast<uint64_t>(GetParam());

  auto report = engine.Run(campaign);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->succeeded, 8u) << net::ChannelFaultName(GetParam());
  for (const auto& outcome : report->outcomes) {
    ASSERT_TRUE(outcome.ok);
    // A faulted delivery must never execute: success always means the
    // signed program ran bit-exact.
    EXPECT_EQ(outcome.exit_code, kTinyProgramResult)
        << net::ChannelFaultName(GetParam()) << ": MISEXECUTION";
  }
  if (GetParam() == net::ChannelFault::kNone) {
    EXPECT_EQ(report->retries, 0u);
  } else {
    // 8 devices at 50 % first-attempt fault rate: retries are all but
    // certain (p(none) = 0.5^8), and every retry stems from a rejection.
    EXPECT_GT(report->retries, 0u) << net::ChannelFaultName(GetParam());
  }
  ExpectTalliesAddUp(*report);
}

INSTANTIATE_TEST_SUITE_P(
    AllFaults, CampaignFaultTest,
    ::testing::Values(net::ChannelFault::kNone,
                      net::ChannelFault::kRandomBitFlips,
                      net::ChannelFault::kBytePatch,
                      net::ChannelFault::kTruncate,
                      net::ChannelFault::kInstructionPatch,
                      net::ChannelFault::kDuplicate),
    [](const ::testing::TestParamInfo<net::ChannelFault>& info) {
      std::string name(net::ChannelFaultName(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --- CampaignScheduler --------------------------------------------------------

TEST(CampaignSchedulerTest, RollingWavesPartitionAndCompleteExactlyOnce) {
  GroupId group;
  FleetFixture fleet(10, &group);
  DeploymentEngine engine(fleet.registry, fleet.cache);
  CampaignScheduler scheduler(engine, fleet.registry);

  CampaignConfig campaign;
  campaign.source = kTinyProgram;
  campaign.group = group;
  campaign.workers = 2;

  SchedulerConfig policy;
  policy.canary_size = 3;
  policy.canary_failure_threshold = 0.0;
  policy.wave_size = 4;  // waves: canary 3, then 4 + 3

  auto report = scheduler.Run(campaign, policy);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->outcome, CampaignOutcome::kCompleted);
  ASSERT_EQ(report->waves.size(), 3u);
  EXPECT_TRUE(report->waves[0].canary);
  EXPECT_EQ(report->waves[0].report.targets, 3u);
  EXPECT_FALSE(report->waves[1].canary);
  EXPECT_EQ(report->waves[1].report.targets, 4u);
  EXPECT_EQ(report->waves[2].report.targets, 3u);
  EXPECT_EQ(report->waves[1].first_target, 3u);
  EXPECT_EQ(report->waves[2].first_target, 7u);

  // Exactly once: every target delivered, no duplicate dispatch anywhere.
  EXPECT_EQ(report->targets, 10u);
  EXPECT_EQ(report->succeeded, 10u);
  EXPECT_EQ(report->skipped, 0u);
  EXPECT_EQ(report->deliveries, 10u);
  // Encrypt-once survives wave slicing: the cache sealed a single time.
  uint64_t misses = 0;
  for (const auto& wave : report->waves) {
    misses += wave.report.cache_artifact_misses;
  }
  EXPECT_EQ(misses, 1u);
  // The report-level totals are the sums over waves.
  EXPECT_EQ(report->cache_artifact_misses, 1u);
  EXPECT_EQ(report->cache_artifact_hits, 9u);
  EXPECT_EQ(report->cache_compile_misses, 1u);
  EXPECT_EQ(report->rollbacks, 0u);
  EXPECT_EQ(report->health_failures, 0u);
  const CampaignIsaStats& rv64 =
      report->by_isa[static_cast<size_t>(isa::IsaId::kRv64Gc)];
  EXPECT_EQ(rv64.targets, 10u);
  EXPECT_EQ(rv64.succeeded, 10u);
  EXPECT_EQ(rv64.deliveries, 10u);
  EXPECT_EQ(rv64.seal_builds, 1u);
  EXPECT_EQ(rv64.compile_builds, 1u);
  EXPECT_EQ(rv64.bytes_shipped, report->bytes_shipped);
  ExpectTalliesAddUp(*report);
}

// The acceptance scenario: a 1000-device campaign whose fault rate is
// far beyond the canary threshold dies after the canary wave, and the
// 980 non-canary devices never see a single delivery.
TEST(CampaignSchedulerTest, BadCanaryAbortsThousandDeviceCampaign) {
  GroupId group;
  FleetFixture fleet(1000, &group);
  DeploymentEngine engine(fleet.registry, fleet.cache);
  CampaignScheduler scheduler(engine, fleet.registry);

  CampaignConfig campaign;
  campaign.source = kTinyProgram;
  campaign.group = group;
  campaign.workers = 4;
  campaign.max_attempts = 1;
  campaign.channel.fault = net::ChannelFault::kTruncate;
  campaign.fault_rate = 1.0;  // every delivery is corrupted

  SchedulerConfig policy;
  policy.canary_size = 20;
  policy.canary_failure_threshold = 0.25;
  policy.wave_size = 100;

  auto report = scheduler.Run(campaign, policy);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->outcome, CampaignOutcome::kAbortedByGate);
  ASSERT_EQ(report->waves.size(), 1u);
  EXPECT_TRUE(report->waves[0].canary);
  EXPECT_TRUE(report->waves[0].gate_breached);
  EXPECT_DOUBLE_EQ(report->waves[0].failure_rate, 1.0);
  // No corrupted image ever executed, and the fleet was protected.
  EXPECT_EQ(report->succeeded, 0u);
  EXPECT_EQ(report->failed, 20u);
  EXPECT_EQ(report->deliveries, 20u);
  EXPECT_EQ(report->skipped, 980u);
  ExpectTalliesAddUp(*report);
}

TEST(CampaignSchedulerTest, HealthyCanaryPromotesThroughGate) {
  GroupId group;
  FleetFixture fleet(12, &group);
  DeploymentEngine engine(fleet.registry, fleet.cache);
  CampaignScheduler scheduler(engine, fleet.registry);

  CampaignConfig campaign;
  campaign.source = kTinyProgram;
  campaign.group = group;
  campaign.workers = 2;
  campaign.max_attempts = 20;
  campaign.channel.fault = net::ChannelFault::kRandomBitFlips;
  campaign.fault_rate = 0.3;  // noisy but survivable with retries

  SchedulerConfig policy;
  policy.canary_size = 4;
  policy.canary_failure_threshold = 0.25;
  policy.wave_size = 8;
  policy.wave_failure_threshold = 0.25;

  auto report = scheduler.Run(campaign, policy);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->outcome, CampaignOutcome::kCompleted);
  EXPECT_EQ(report->succeeded, 12u);
  EXPECT_EQ(report->skipped, 0u);
  ExpectTalliesAddUp(*report);
}

TEST(CampaignSchedulerTest, PauseResumeDeliversEveryTargetExactlyOnce) {
  GroupId group;
  FleetFixture fleet(24, &group);
  DeploymentEngine engine(fleet.registry, fleet.cache);
  CampaignScheduler scheduler(engine, fleet.registry);

  CampaignConfig campaign;
  campaign.source = kTinyProgram;
  campaign.group = group;
  campaign.workers = 3;
  campaign.delivery_latency_us = 2000;  // stretch the campaign out

  SchedulerConfig policy;
  policy.wave_size = 8;
  policy.canary_size = 4;
  policy.canary_failure_threshold = 0.0;
  // Rate-limit the dispatch so some workers are parked inside the token
  // bucket when Pause() lands — a pause must freeze those too, not just
  // workers at the AwaitRunnable boundary.
  policy.limits.dispatch_rate = 400.0;
  policy.limits.dispatch_burst = 1.0;

  CampaignControl control;
  Result<ScheduledReport> report = Status(ErrorCode::kInternal, "unset");
  std::thread runner([&] { report = scheduler.Run(campaign, policy, &control); });

  // Pause mid-campaign, then wait until the checkpoint stabilizes (an
  // already-admitted delivery may still drain on a loaded host — poll
  // rather than trust a fixed sleep) and verify it stays frozen.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  control.Pause();
  auto frozen = control.progress();
  for (int i = 0; i < 200; ++i) {  // up to 2 s for in-flight drain
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const auto next = control.progress();
    if (next.deliveries == frozen.deliveries &&
        next.targets_completed == frozen.targets_completed) {
      break;
    }
    frozen = next;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const auto still_frozen = control.progress();
  EXPECT_EQ(frozen.deliveries, still_frozen.deliveries);
  EXPECT_EQ(frozen.targets_completed, still_frozen.targets_completed);
  EXPECT_LT(still_frozen.deliveries, 24u);  // it really was mid-flight

  control.Resume();
  runner.join();

  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->outcome, CampaignOutcome::kCompleted);
  EXPECT_EQ(report->succeeded, 24u);
  // Exactly once: 24 deliveries for 24 targets, nothing skipped and
  // nothing double-dispatched across the pause boundary.
  EXPECT_EQ(report->deliveries, 24u);
  EXPECT_EQ(report->skipped, 0u);
  const auto final_progress = control.progress();
  EXPECT_EQ(final_progress.targets_completed, 24u);
  EXPECT_EQ(final_progress.waves_completed, 4u);  // 4 + 8 + 8 + 4
  ExpectTalliesAddUp(*report);
}

TEST(CampaignSchedulerTest, TokenBucketRateLimitIsHonored) {
  GroupId group;
  FleetFixture fleet(8, &group);
  DeploymentEngine engine(fleet.registry, fleet.cache);
  CampaignScheduler scheduler(engine, fleet.registry);

  CampaignConfig campaign;
  campaign.source = kTinyProgram;
  campaign.group = group;
  campaign.workers = 4;

  SchedulerConfig policy;
  policy.limits.dispatch_rate = 100.0;  // 100 deliveries/s, burst 1
  policy.limits.dispatch_burst = 1.0;

  auto report = scheduler.Run(campaign, policy);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->succeeded, 8u);
  EXPECT_EQ(report->deliveries, 8u);
  // 8 deliveries at 100/s from a 1-token bucket need >= 70 ms of refill.
  // Allow scheduling slack below the theoretical floor but reject a
  // campaign that clearly ignored the limiter.
  EXPECT_GE(report->wall_ms, 60.0);
}

TEST(CampaignSchedulerTest, GroupConcurrencyBudgetCapsInFlight) {
  DeviceRegistry registry;
  PackageCache cache;
  const GroupId group_a = registry.CreateGroup("a");
  const GroupId group_b = registry.CreateGroup("b");
  std::vector<DeviceId> targets;
  for (uint64_t i = 0; i < 12; ++i) {
    auto id = registry.Enroll(0xAB00 + i, i % 2 == 0 ? group_a : group_b);
    ASSERT_TRUE(id.ok());
    targets.push_back(*id);
  }
  DeploymentEngine engine(registry, cache);
  CampaignScheduler scheduler(engine, registry);

  CampaignConfig campaign;
  campaign.source = kTinyProgram;
  campaign.devices = targets;
  campaign.workers = 6;
  campaign.delivery_latency_us = 1000;

  SchedulerConfig policy;
  policy.limits.group_concurrency = 1;

  auto report = scheduler.Run(campaign, policy);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->succeeded, 12u);
  // Two groups at one in-flight delivery each: the peak can never exceed
  // 2 no matter how many workers raced.
  EXPECT_GT(report->peak_in_flight, 0u);
  EXPECT_LE(report->peak_in_flight, 2u);
  ExpectTalliesAddUp(*report);
}

TEST(DispatchGovernorTest, PauseAndCancelWakeBudgetParkedWorkers) {
  // Regression: Pause()/Cancel() only notified AwaitRunnable's own cv,
  // never the governor's group-budget cv — a worker parked on a full
  // group-concurrency budget slept through the transition until some
  // unrelated delivery released a slot. With every slot held and the
  // campaign cancelled, that worker hung forever.
  CampaignControl control;
  DispatchGovernor::Limits limits;
  limits.group_concurrency = 1;
  DispatchGovernor governor(limits, &control);

  const GroupId group = 5;
  ASSERT_TRUE(governor.AdmitDelivery(group));  // hold the only slot

  std::atomic<bool> returned{false};
  bool admitted = true;
  std::thread waiter([&] {
    admitted = governor.AdmitDelivery(group);  // parks on the full budget
    returned.store(true, std::memory_order_release);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load(std::memory_order_acquire));

  // Pause reaches the parked waiter (it re-parks on AwaitRunnable), and
  // the cancel must then unwind it promptly — the held slot is never
  // released, so only the notification path can wake it.
  control.Pause();
  control.Cancel();
  const auto start = std::chrono::steady_clock::now();
  waiter.join();
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(admitted);
  EXPECT_LT(waited, std::chrono::seconds(2));
  governor.CompleteDelivery(group);
}

TEST(DispatchGovernorTest, CancelAndPauseReachRateParkedWorkers) {
  // A worker waiting on an empty token bucket sleeps until the next
  // token is due (5 s here), so only the control's notification can end
  // the wait early.
  CampaignControl control;
  DispatchGovernor::Limits limits;
  limits.dispatch_rate = 0.2;
  limits.dispatch_burst = 1.0;
  DispatchGovernor governor(limits, &control);

  const GroupId group = 3;
  ASSERT_TRUE(governor.AdmitDelivery(group));  // takes the only token
  governor.CompleteDelivery(group);

  std::atomic<bool> returned{false};
  bool admitted = true;
  std::thread waiter([&] {
    admitted = governor.AdmitDelivery(group);  // parks on the bucket
    returned.store(true, std::memory_order_release);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load(std::memory_order_acquire));
  // A pause keeps the worker parked: it is not admitted.
  control.Pause();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load(std::memory_order_acquire));

  control.Cancel();
  const auto start = std::chrono::steady_clock::now();
  waiter.join();
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(admitted);
  EXPECT_LT(waited, std::chrono::seconds(2));
}

/// Runs a one-device campaign under `policy` and returns the status code.
ErrorCode RunPolicyStatus(const SchedulerConfig& policy) {
  GroupId group;
  FleetFixture fleet(1, &group);
  DeploymentEngine engine(fleet.registry, fleet.cache);
  CampaignScheduler scheduler(engine, fleet.registry);
  CampaignConfig campaign;
  campaign.source = kTinyProgram;
  campaign.group = group;
  return scheduler.Run(campaign, policy).status().code();
}

TEST(CampaignSchedulerTest, RejectsNanCanaryThreshold) {
  // NaN compares false both ways, so a range test written as
  // `< 0 || > 1` let it through and the canary gate never fired.
  SchedulerConfig policy;
  policy.canary_size = 1;
  policy.canary_failure_threshold = std::nan("");
  EXPECT_EQ(RunPolicyStatus(policy), ErrorCode::kInvalidArgument);
}

TEST(CampaignSchedulerTest, RejectsNanWaveThreshold) {
  SchedulerConfig policy;
  policy.wave_failure_threshold = std::nan("");
  EXPECT_EQ(RunPolicyStatus(policy), ErrorCode::kInvalidArgument);
}

TEST(CampaignSchedulerTest, RejectsNanDispatchRate) {
  SchedulerConfig policy;
  policy.limits.dispatch_rate = std::nan("");
  EXPECT_EQ(RunPolicyStatus(policy), ErrorCode::kInvalidArgument);
}

TEST(CampaignSchedulerTest, RejectsInfiniteDispatchRate) {
  SchedulerConfig policy;
  policy.limits.dispatch_rate = std::numeric_limits<double>::infinity();
  EXPECT_EQ(RunPolicyStatus(policy), ErrorCode::kInvalidArgument);
}

TEST(CampaignSchedulerTest, RejectsNanDispatchBurst) {
  SchedulerConfig policy;
  policy.limits.dispatch_burst = std::nan("");
  EXPECT_EQ(RunPolicyStatus(policy), ErrorCode::kInvalidArgument);
}

TEST(CampaignSchedulerTest, RejectsInfiniteDispatchBurst) {
  SchedulerConfig policy;
  policy.limits.dispatch_burst = std::numeric_limits<double>::infinity();
  EXPECT_EQ(RunPolicyStatus(policy), ErrorCode::kInvalidArgument);
}

TEST(CampaignSchedulerTest, NegativeDispatchRateDisablesLimiting) {
  // Like a rate of 0 (the default), and unlike NaN, a negative rate is
  // accepted and means "unlimited".
  SchedulerConfig policy;
  policy.limits.dispatch_rate = -5.0;
  EXPECT_EQ(RunPolicyStatus(policy), ErrorCode::kOk);
}

TEST(CampaignSchedulerTest, CancelSkipsRemainingWaves) {
  GroupId group;
  FleetFixture fleet(9, &group);
  DeploymentEngine engine(fleet.registry, fleet.cache);
  CampaignScheduler scheduler(engine, fleet.registry);

  CampaignConfig campaign;
  campaign.source = kTinyProgram;
  campaign.group = group;

  SchedulerConfig policy;
  policy.wave_size = 3;

  CampaignControl control;
  control.Cancel();  // cancelled before the first wave launches
  auto report = scheduler.Run(campaign, policy, &control);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->outcome, CampaignOutcome::kCancelled);
  EXPECT_EQ(report->succeeded, 0u);
  EXPECT_EQ(report->deliveries, 0u);
  EXPECT_EQ(report->skipped, 9u);
  EXPECT_TRUE(report->waves.empty());
  ExpectTalliesAddUp(*report);
}

TEST(CampaignSchedulerTest, ShuffledCanarySamplesDeterministically) {
  GroupId group;
  FleetFixture fleet(16, &group);
  DeploymentEngine engine(fleet.registry, fleet.cache);
  CampaignScheduler scheduler(engine, fleet.registry);

  CampaignConfig campaign;
  campaign.source = kTinyProgram;
  campaign.group = group;
  campaign.campaign_seed = 0x5EED;

  SchedulerConfig policy;
  policy.canary_size = 4;
  policy.shuffle_targets = true;

  auto first = scheduler.Run(campaign, policy);
  auto second = scheduler.Run(campaign, policy);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->succeeded, 16u);
  // Same seed, same cohort: the shuffle is reproducible.
  ASSERT_EQ(first->waves[0].report.outcomes.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(first->waves[0].report.outcomes[i].device,
              second->waves[0].report.outcomes[i].device);
  }
}

// --- Delta deployment ---------------------------------------------------------

/// A small grouped fleet plus an engine, the fixture every delta test
/// starts from. The release pair is the shared synthetic one (a multi-KB
/// image, versions one loop bound apart), so "small mutation" here means
/// the same bytes the CI-gated bench_delta baseline measures.
struct DeltaFleet {
  DeviceRegistry registry;
  GroupId group;
  std::vector<DeviceId> devices;
  PackageCache cache;
  DeploymentEngine engine{registry, cache};
  std::string v1_source = workloads::MakeSyntheticRelease(3);
  std::string v2_source = workloads::MakeSyntheticRelease(5);

  explicit DeltaFleet(size_t count = 6) {
    group = registry.CreateGroup("delta");
    for (size_t i = 0; i < count; ++i) {
      auto id = registry.Enroll(0xDE17A000 + i, group);
      EXPECT_TRUE(id.ok());
      devices.push_back(*id);
    }
  }

  CampaignConfig V1Campaign() const {
    CampaignConfig config;
    config.source = v1_source;
    config.devices = devices;
    config.workers = 2;
    return config;
  }

  CampaignConfig V2DeltaCampaign() const {
    CampaignConfig config = V1Campaign();
    config.source = v2_source;
    config.delta = true;
    config.delta_base_source = v1_source;
    return config;
  }
};

TEST(DeltaCampaignTest, ShipsDeltasToCurrentDevicesAndAdvancesManifests) {
  DeltaFleet fleet;
  const CampaignConfig v1 = fleet.V1Campaign();
  auto first = fleet.engine.Run(v1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->succeeded, fleet.devices.size());
  EXPECT_EQ(first->delta_deliveries, 0u);
  EXPECT_EQ(first->full_deliveries, fleet.devices.size());
  EXPECT_EQ(first->bytes_shipped, first->bytes_full_equivalent);

  // Every success left a manifest at v1 under the group key.
  const uint64_t v1_version = ProgramVersionFingerprint(
      fleet.v1_source, v1.policy, v1.compile_options);
  const crypto::Sha256Digest key_fp =
      FingerprintKey(*fleet.registry.GroupKey(fleet.group));
  for (DeviceId id : fleet.devices) {
    auto manifest = fleet.registry.DeliveredVersion(id);
    ASSERT_TRUE(manifest.ok());
    EXPECT_EQ(manifest->version, v1_version);
    EXPECT_EQ(manifest->key_fingerprint, key_fp);
  }

  const CampaignConfig v2 = fleet.V2DeltaCampaign();
  auto second = fleet.engine.Run(v2);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->succeeded, fleet.devices.size());
  EXPECT_EQ(second->delta_deliveries, fleet.devices.size());
  EXPECT_EQ(second->full_deliveries, 0u);
  EXPECT_EQ(second->delta_fallbacks, 0u);
  // The whole point: a one-constant change must not re-ship the image.
  EXPECT_LT(second->bytes_shipped, second->bytes_full_equivalent / 2);
  const uint64_t v2_version = ProgramVersionFingerprint(
      fleet.v2_source, v2.policy, v2.compile_options);
  for (const auto& outcome : second->outcomes) {
    EXPECT_TRUE(outcome.ok);
    EXPECT_TRUE(outcome.delta);
    auto manifest = fleet.registry.DeliveredVersion(outcome.device);
    ASSERT_TRUE(manifest.ok());
    EXPECT_EQ(manifest->version, v2_version);
  }
  ExpectTalliesAddUp(*second);
}

TEST(DeltaCampaignTest, FreshDevicesWithoutManifestsGetFullPackages) {
  DeltaFleet fleet(4);
  auto report = fleet.engine.Run(fleet.V2DeltaCampaign());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->succeeded, 4u);
  EXPECT_EQ(report->delta_deliveries, 0u);
  EXPECT_EQ(report->full_deliveries, 4u);
  EXPECT_EQ(report->delta_fallbacks, 0u);
  for (const auto& outcome : report->outcomes) EXPECT_FALSE(outcome.delta);
}

TEST(DeltaCampaignTest, DeltaCampaignWithoutBaseSourceIsRefused) {
  DeltaFleet fleet(1);
  CampaignConfig config = fleet.V2DeltaCampaign();
  config.delta_base_source.clear();
  EXPECT_EQ(fleet.engine.Run(config).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(DeltaCampaignTest, SizeFractionForcesFullPackages) {
  DeltaFleet fleet(3);
  ASSERT_TRUE(fleet.engine.Run(fleet.V1Campaign()).ok());
  CampaignConfig v2 = fleet.V2DeltaCampaign();
  v2.delta_max_fraction = 0.0;  // no delta is ever small enough
  auto report = fleet.engine.Run(v2);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->succeeded, 3u);
  EXPECT_EQ(report->delta_deliveries, 0u);
  EXPECT_EQ(report->full_deliveries, 3u);
  EXPECT_EQ(report->delta_fallbacks, 0u);  // suppressed, not attempted
}

TEST(DeltaCampaignTest, EpochRotationForcesFullPackagesViaKeyFingerprint) {
  DeltaFleet fleet(4);
  ASSERT_TRUE(fleet.engine.Run(fleet.V1Campaign()).ok());
  // Rotate the group: retained v1 images are sealed under the retired
  // key, so the manifest's key fingerprint no longer matches and a patch
  // must not even be attempted.
  auto rotation = fleet.registry.RotateGroupEpoch(fleet.group);
  ASSERT_TRUE(rotation.ok());
  ASSERT_TRUE(rotation->rotated);
  auto report = fleet.engine.Run(fleet.V2DeltaCampaign());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->succeeded, 4u);
  EXPECT_EQ(report->delta_deliveries, 0u);
  EXPECT_EQ(report->full_deliveries, 4u);
  // The full deliveries re-recorded manifests under the new key: the
  // next update deploys deltas again.
  CampaignConfig v3 = fleet.V2DeltaCampaign();
  v3.source = fleet.v1_source;  // "roll back" release, v2 as base
  v3.delta_base_source = fleet.v2_source;
  auto next = fleet.engine.Run(v3);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->delta_deliveries, 4u);
}

TEST(DeltaCampaignTest, RacedKeyRotationDropsTheRetryToFullPackages) {
  DeltaFleet fleet(1);
  ASSERT_TRUE(fleet.engine.Run(fleet.V1Campaign()).ok());
  RotateOnFirstDelivery transport(fleet.registry, fleet.group);
  CampaignConfig v2 = fleet.V2DeltaCampaign();
  v2.max_attempts = 3;
  v2.transport = &transport;
  auto report = fleet.engine.Run(v2);
  ASSERT_TRUE(report.ok());
  const DeviceOutcome& outcome = report->outcomes[0];
  // The first delivery was a delta under the retired key; once the key
  // moved, the device's retained base is undecryptable, so the target
  // finishes on a full package sealed under the new epoch.
  EXPECT_TRUE(outcome.ok) << outcome.last_status.ToString();
  EXPECT_FALSE(outcome.delta);
  EXPECT_EQ(outcome.delta_attempts, 1u);
  EXPECT_GE(outcome.attempts, 2u);
  ExpectTalliesAddUp(*report);
}

/// Finds (campaign_seed, fault_rate) such that the target's first
/// delivery (the delta) is faulted by the engine's per-delivery draw and
/// the second (the fallback full package) is not. Uses the engine's own
/// DeliverySeed mixing, so the test stays correct if seeds reshuffle.
bool FindFaultWindow(DeviceId device, uint64_t* campaign_seed,
                     double* fault_rate) {
  for (uint64_t seed = 1; seed < 64; ++seed) {
    const double draw0 =
        Xoshiro256(DeliverySeed(seed, device, 0) ^ 0xFA017).NextDouble();
    const double draw1 =
        Xoshiro256(DeliverySeed(seed, device, 1) ^ 0xFA017).NextDouble();
    if (draw0 < draw1 - 0.05) {  // margin against float quirks
      *campaign_seed = seed;
      *fault_rate = (draw0 + draw1) / 2;  // faults #0, spares #1
      return true;
    }
  }
  return false;
}

TEST(DeltaCampaignTest, CorruptedDeltaFailsClosedAndFallsBackToFull) {
  DeltaFleet fleet(1);
  ASSERT_TRUE(fleet.engine.Run(fleet.V1Campaign()).ok());

  CampaignConfig v2 = fleet.V2DeltaCampaign();
  v2.workers = 1;
  v2.max_attempts = 1;  // the fallback is protocol, not a retry
  v2.channel.fault = net::ChannelFault::kBytePatch;
  v2.channel.patch_offset = 24;  // inside the delta's CRC-pinned header
  ASSERT_TRUE(FindFaultWindow(fleet.devices[0], &v2.campaign_seed,
                              &v2.fault_rate));

  // Guard the setup, not just the draw: the patch must actually change
  // delta bytes (a patch writing a byte's existing value would deliver
  // an intact patch and void the scenario). The delta the engine will
  // ship comes from the same shared cache.
  {
    auto sealing = fleet.registry.SealingContextFor(fleet.devices[0]);
    ASSERT_TRUE(sealing.ok());
    auto base = fleet.cache.GetOrBuild(v2.delta_base_source, sealing->key,
                                       sealing->config, v2.policy);
    auto target = fleet.cache.GetOrBuild(v2.source, sealing->key,
                                         sealing->config, v2.policy);
    ASSERT_TRUE(base.ok() && target.ok());
    auto delta = fleet.cache.GetOrBuildDelta(**base, **target);
    ASSERT_TRUE(delta.ok());
    net::Channel probe(v2.channel);
    ASSERT_NE(probe.Deliver((*delta)->wire), (*delta)->wire)
        << "byte patch left the delta intact; move patch_offset";
  }

  auto report = fleet.engine.Run(v2);
  ASSERT_TRUE(report.ok());
  const DeviceOutcome& outcome = report->outcomes[0];
  // The corrupted patch was rejected without executing anything, and the
  // same admission re-shipped the full package successfully.
  EXPECT_TRUE(outcome.ok) << outcome.last_status.ToString();
  EXPECT_TRUE(outcome.delta_fallback);
  EXPECT_FALSE(outcome.delta);
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_EQ(report->delta_fallbacks, 1u);
  EXPECT_EQ(report->delta_deliveries, 1u);
  EXPECT_EQ(report->full_deliveries, 1u);
  // The counterfactual counts the attempt's full size once: a fallback
  // target honestly costs MORE wire than never attempting the delta.
  EXPECT_GT(report->bytes_shipped, report->bytes_full_equivalent);
  ExpectTalliesAddUp(*report);
}

TEST(DeltaCampaignTest, WrongRetainedBaseFallsBackToFull) {
  DeltaFleet fleet(2);
  ASSERT_TRUE(fleet.engine.Run(fleet.V1Campaign()).ok());

  // Behind the engine's back, hand one device the v2 image labelled as
  // v1: its slot says v1, so the campaign diffs against v1, but the
  // retained bytes are v2. Only the delta's base CRC stands between this
  // device and a corrupting patch.
  const CampaignConfig v1 = fleet.V1Campaign();
  auto sealing = fleet.registry.SealingContextFor(fleet.devices[0]);
  ASSERT_TRUE(sealing.ok());
  auto v2_artifact = fleet.cache.GetOrBuild(
      fleet.v2_source, sealing->key, sealing->config,
      core::EncryptionPolicy::Full());
  ASSERT_TRUE(v2_artifact.ok());
  DispatchMeta mislabelled;
  mislabelled.version = ProgramVersionFingerprint(fleet.v1_source, v1.policy,
                                                  v1.compile_options);
  mislabelled.key_fingerprint = (*v2_artifact)->key_fingerprint;
  ASSERT_TRUE(fleet.registry
                  .Dispatch(fleet.devices[0], (*v2_artifact)->wire, 0, 0,
                            &mislabelled)
                  .ok());

  auto report = fleet.engine.Run(fleet.V2DeltaCampaign());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->succeeded, 2u);
  EXPECT_EQ(report->delta_fallbacks, 1u);  // the tampered device only
  size_t fallbacks = 0, deltas = 0;
  for (const auto& outcome : report->outcomes) {
    EXPECT_TRUE(outcome.ok);
    if (outcome.delta_fallback) ++fallbacks;
    if (outcome.delta) ++deltas;
  }
  EXPECT_EQ(fallbacks, 1u);
  EXPECT_EQ(deltas, 1u);  // the untouched device still got its patch
  ExpectTalliesAddUp(*report);
}

TEST(PackageCacheDeltaTest, DeltaEntriesCacheAndRotationInvalidates) {
  DeltaFleet fleet(1);
  auto sealing = fleet.registry.SealingContextFor(fleet.devices[0]);
  ASSERT_TRUE(sealing.ok());
  const core::EncryptionPolicy policy = core::EncryptionPolicy::Full();
  auto v1 = fleet.cache.GetOrBuild(fleet.v1_source, sealing->key,
                                   sealing->config, policy);
  auto v2 = fleet.cache.GetOrBuild(fleet.v2_source, sealing->key,
                                   sealing->config, policy);
  ASSERT_TRUE(v1.ok() && v2.ok());

  PackageCacheStats first_stats;
  auto first = fleet.cache.GetOrBuildDelta(**v1, **v2, &first_stats);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first_stats.delta_misses, 1u);
  PackageCacheStats second_stats;
  auto second = fleet.cache.GetOrBuildDelta(**v1, **v2, &second_stats);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second_stats.delta_hits, 1u);
  EXPECT_EQ(second->get(), first->get());  // the cached entry itself

  // The delta patches v1's wire into v2's wire exactly.
  auto applied = pkg::ApplyDelta((*v1)->wire, (*first)->wire);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, (*v2)->wire);

  // Rotation invalidation drops the retired key's deltas too.
  EXPECT_GT(fleet.cache.InvalidateKeyFingerprint((*v2)->key_fingerprint), 0u);
  PackageCacheStats third_stats;
  ASSERT_TRUE(fleet.cache.GetOrBuildDelta(**v1, **v2, &third_stats).ok());
  EXPECT_EQ(third_stats.delta_misses, 1u);

  // Endpoints sealed under different keys cannot be delta'd.
  auto solo = fleet.registry.Enroll(0x5010);
  ASSERT_TRUE(solo.ok());
  auto solo_deploy = fleet.registry.SealingContextFor(*solo);
  ASSERT_TRUE(solo_deploy.ok());
  auto other = fleet.cache.GetOrBuild(fleet.v2_source, solo_deploy->key,
                                      fleet.registry.key_config(), policy);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(fleet.cache.GetOrBuildDelta(**v1, **other).status().code(),
            ErrorCode::kInvalidArgument);
}

// --- Update agent through the fleet layer -------------------------------------

namespace fs = std::filesystem;

std::string MakeAgentTempDir(const char* tag) {
  static std::atomic<uint64_t> counter{0};
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("eric-fleet-agent-" + std::string(tag) + "-" +
                        std::to_string(counter.fetch_add(1)));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// The PR 5 gap, closed: delta bases live in the durable slot manifest,
// so a daemon restart between the full-package campaign and the delta
// campaign must not cost a single device its patch. This is the
// regression test for "retained images are in-memory only".
TEST(AgentFleetTest, DeltaBasesSurviveDaemonRestart) {
  const std::string dir = MakeAgentTempDir("restart-delta");
  const std::string v1 = workloads::MakeSyntheticRelease(3);
  const std::string v2 = workloads::MakeSyntheticRelease(5);
  std::vector<DeviceId> devices;
  GroupId group = kNoGroup;

  {
    DeviceRegistry registry;
    ASSERT_TRUE(registry.OpenStorage(dir).ok());
    group = registry.CreateGroup("restart-delta");
    for (uint64_t i = 0; i < 6; ++i) {
      auto id = registry.Enroll(0x4E57A000 + i, group);
      ASSERT_TRUE(id.ok());
      devices.push_back(*id);
    }
    PackageCache cache;
    DeploymentEngine engine(registry, cache);
    CampaignConfig first;
    first.source = v1;
    first.devices = devices;
    first.workers = 2;
    auto report = engine.Run(first);
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->succeeded, devices.size());
  }  // daemon dies mid-fleet: every device holds v1 in its active slot

  DeviceRegistry recovered;
  ASSERT_TRUE(recovered.OpenStorage(dir).ok());
  // The recovered agents report the applied image, not a blank slate.
  for (DeviceId id : devices) {
    auto inspection = recovered.InspectAgent(id);
    ASSERT_TRUE(inspection.ok());
    EXPECT_GE(inspection->state.active_slot, 0);
    EXPECT_TRUE(inspection->active_crc_valid);
    EXPECT_EQ(inspection->state.counters.applies, 1u);
  }

  PackageCache cache;
  DeploymentEngine engine(recovered, cache);
  CampaignConfig second;
  second.source = v2;
  second.delta = true;
  second.delta_base_source = v1;
  second.devices = devices;
  second.workers = 2;
  auto report = engine.Run(second);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->succeeded, devices.size());
  // Every device patches against its recovered base: real deltas, zero
  // fallbacks, and the wire win survives the restart.
  EXPECT_EQ(report->delta_deliveries, devices.size());
  EXPECT_EQ(report->full_deliveries, 0u);
  EXPECT_EQ(report->delta_fallbacks, 0u);
  const double ratio = static_cast<double>(report->bytes_shipped) /
                       static_cast<double>(report->bytes_full_equivalent);
  EXPECT_LE(ratio, 0.35) << "restarted fleet lost its delta win";
}

// XORs one byte of `path` at `offset`.
void DamageByte(const fs::path& path, uint64_t offset) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.is_open());
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5A);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
}

// Damage to the newer of a slot file's two record copies costs only that
// record: the older copy loads and no reset is counted. Every apply writes
// its flip into copy 0 and its commit into copy 1, so after a v1 and a v2
// campaign copy 0 holds the v2 flip. With copy 1 damaged the restart loads
// that flip and rolls it back to the v1 slot, which is still a delta base.
TEST(AgentFleetTest, DamagedNewerSlotCopyLoadsTheOlderRecord) {
  const std::string dir = MakeAgentTempDir("newer-copy");
  const std::string v1 = workloads::MakeSyntheticRelease(3);
  const std::string v2 = workloads::MakeSyntheticRelease(5);
  std::vector<DeviceId> devices;
  {
    DeviceRegistry registry;
    ASSERT_TRUE(registry.OpenStorage(dir).ok());
    const GroupId group = registry.CreateGroup("newer-copy");
    for (uint64_t i = 0; i < 2; ++i) {
      auto id = registry.Enroll(0x4E57C000 + i, group);
      ASSERT_TRUE(id.ok());
      devices.push_back(*id);
    }
    PackageCache cache;
    DeploymentEngine engine(registry, cache);
    for (const std::string* source : {&v1, &v2}) {
      CampaignConfig campaign;
      campaign.source = *source;
      campaign.devices = devices;
      campaign.workers = 2;
      auto report = engine.Run(campaign);
      ASSERT_TRUE(report.ok());
      ASSERT_EQ(report->succeeded, devices.size());
    }
  }

  const DeviceId damaged = devices[0];
  const fs::path slots =
      fs::path(dir) / "agent" / ("slots-" + std::to_string(damaged) + ".bin");
  DamageByte(slots, fs::file_size(slots) / 2 + 100);
  const obs::Counter& resets =
      obs::MetricsRegistry::Global().GetCounter("agent_manifest_resets");
  const uint64_t resets_before = resets.value();
  DeviceRegistry recovered;
  ASSERT_TRUE(recovered.OpenStorage(dir).ok());
  EXPECT_EQ(resets.value(), resets_before);

  auto inspection = recovered.InspectAgent(damaged);
  ASSERT_TRUE(inspection.ok());
  EXPECT_TRUE(inspection->active_crc_valid);
  const agent::AgentState& state = inspection->state;
  EXPECT_EQ(state.phase, agent::ApplyPhase::kIdle);
  EXPECT_EQ(state.counters.applies, 1u);  // the v2 commit never loaded
  EXPECT_EQ(state.counters.crash_recoveries, 1u);
  ASSERT_GE(state.active_slot, 0);
  auto intact = recovered.InspectAgent(devices[1]);
  ASSERT_TRUE(intact.ok());
  EXPECT_EQ(intact->state.counters.applies, 2u);
  EXPECT_EQ(intact->state.counters.crash_recoveries, 0u);

  // The rolled-back device still holds v1, so v1 -> v2 is a delta.
  PackageCache cache;
  DeploymentEngine engine(recovered, cache);
  CampaignConfig again;
  again.source = v2;
  again.delta = true;
  again.delta_base_source = v1;
  again.devices = {damaged};
  auto report = engine.Run(again);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->succeeded, 1u);
  EXPECT_EQ(report->delta_deliveries, 1u);
  EXPECT_EQ(report->full_deliveries, 0u);
  EXPECT_EQ(report->delta_fallbacks, 0u);
}

// A device whose slot manifest is damaged restarts with no image at
// all. The next delta campaign must know that before it ships anything:
// one full package, no delta attempt, no fallback.
TEST(AgentFleetTest, DeviceWithResetSlotsGetsOneFullPackage) {
  const std::string dir = MakeAgentTempDir("reset-slots");
  const std::string v1 = workloads::MakeSyntheticRelease(3);
  const std::string v2 = workloads::MakeSyntheticRelease(5);
  std::vector<DeviceId> devices;
  {
    DeviceRegistry registry;
    ASSERT_TRUE(registry.OpenStorage(dir).ok());
    const GroupId group = registry.CreateGroup("reset-slots");
    for (uint64_t i = 0; i < 3; ++i) {
      auto id = registry.Enroll(0x4E57B000 + i, group);
      ASSERT_TRUE(id.ok());
      devices.push_back(*id);
    }
    PackageCache cache;
    DeploymentEngine engine(registry, cache);
    CampaignConfig first;
    first.source = v1;
    first.devices = devices;
    first.workers = 2;
    auto report = engine.Run(first);
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->succeeded, devices.size());
  }

  // Flip one byte inside each of the two record copies of device 0's
  // slot file: neither CRC matches any more, so the restarted agent
  // abandons the file.
  const DeviceId reset = devices[0];
  const fs::path slots =
      fs::path(dir) / "agent" / ("slots-" + std::to_string(reset) + ".bin");
  const uint64_t copy_bytes = fs::file_size(slots) / 2;
  DamageByte(slots, 100);
  DamageByte(slots, copy_bytes + 100);
  const obs::Counter& resets =
      obs::MetricsRegistry::Global().GetCounter("agent_manifest_resets");
  const uint64_t resets_before = resets.value();
  DeviceRegistry recovered;
  ASSERT_TRUE(recovered.OpenStorage(dir).ok());
  EXPECT_EQ(resets.value(), resets_before + 1);

  PackageCache cache;
  DeploymentEngine engine(recovered, cache);
  CampaignConfig second;
  second.source = v2;
  second.delta = true;
  second.delta_base_source = v1;
  second.devices = devices;
  second.workers = 2;
  auto report = engine.Run(second);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->succeeded, devices.size());
  EXPECT_EQ(report->delta_deliveries, devices.size() - 1);
  EXPECT_EQ(report->full_deliveries, 1u);
  EXPECT_EQ(report->delta_fallbacks, 0u);
  for (const auto& outcome : report->outcomes) {
    EXPECT_TRUE(outcome.ok) << outcome.last_status.ToString();
    EXPECT_EQ(outcome.attempts, 1u);
    EXPECT_FALSE(outcome.delta_fallback);
    EXPECT_EQ(outcome.delta_attempts, outcome.device == reset ? 0u : 1u);
  }
  ExpectTalliesAddUp(*report);
}

// A crash-interrupted apply surfaces as a retryable failure; the next
// delivery recovers the agent (rollback) and lands the update. The
// engine's report carries the rollback so operators see the chaos.
TEST(AgentFleetTest, CrashMidApplyRecoversOnRetry) {
  DeltaFleet fleet(1);
  ASSERT_TRUE(
      fleet.registry
          .ArmAgentCrash(fleet.devices[0], agent::CrashPoint::kAfterFlip)
          .ok());
  CampaignConfig config = fleet.V1Campaign();
  config.workers = 1;
  config.max_attempts = 2;
  auto report = fleet.engine.Run(config);
  ASSERT_TRUE(report.ok());
  const DeviceOutcome& outcome = report->outcomes[0];
  EXPECT_TRUE(outcome.ok) << outcome.last_status.ToString();
  EXPECT_EQ(outcome.attempts, 2u);  // crash burned one delivery
  EXPECT_TRUE(outcome.rolled_back);
  EXPECT_EQ(report->rollbacks, 1u);
  ExpectTalliesAddUp(*report);
  auto inspection = fleet.registry.InspectAgent(fleet.devices[0]);
  ASSERT_TRUE(inspection.ok());
  EXPECT_EQ(inspection->state.counters.crash_recoveries, 1u);
  EXPECT_EQ(inspection->state.counters.rollbacks, 1u);
  EXPECT_TRUE(inspection->active_crc_valid);
  EXPECT_TRUE(fleet.registry.RunActiveSlot(fleet.devices[0]).ok());
}

// A device that lost power right after flipping to an unproven image
// still runs v1: recovery will boot the previous slot. The next v1 -> v2
// delta campaign must patch that recovered base (no full package, no
// fallback), and the recovery's rollback is reported for that device
// alone, as the full path reports it.
TEST(AgentFleetTest, CrashAfterFlipStillPatchesTheRecoveredBase) {
  DeltaFleet fleet(2);
  const CampaignConfig v1 = fleet.V1Campaign();
  ASSERT_TRUE(fleet.engine.Run(v1).ok());

  // The crashed image is v2 and labelled v2, so a delta check that read
  // the flipped slot instead of the one recovery leaves active would
  // see no v1 base and ship a full package.
  const DeviceId crashed = fleet.devices[0];
  auto sealing = fleet.registry.SealingContextFor(crashed);
  ASSERT_TRUE(sealing.ok());
  auto v2_artifact =
      fleet.cache.GetOrBuild(fleet.v2_source, sealing->key, sealing->config,
                             core::EncryptionPolicy::Full());
  ASSERT_TRUE(v2_artifact.ok());
  ASSERT_TRUE(
      fleet.registry.ArmAgentCrash(crashed, agent::CrashPoint::kAfterFlip)
          .ok());
  DispatchMeta crashing;
  crashing.version = ProgramVersionFingerprint(fleet.v2_source, v1.policy,
                                               v1.compile_options);
  crashing.key_fingerprint = (*v2_artifact)->key_fingerprint;
  EXPECT_EQ(fleet.registry
                .Dispatch(crashed, (*v2_artifact)->wire, 0, 0, &crashing)
                .status()
                .code(),
            ErrorCode::kInjectedCrash);

  auto report = fleet.engine.Run(fleet.V2DeltaCampaign());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->succeeded, 2u);
  EXPECT_EQ(report->delta_deliveries, 2u);
  EXPECT_EQ(report->full_deliveries, 0u);
  EXPECT_EQ(report->delta_fallbacks, 0u);
  for (const auto& outcome : report->outcomes) {
    EXPECT_TRUE(outcome.ok) << outcome.last_status.ToString();
    EXPECT_TRUE(outcome.delta);
    EXPECT_FALSE(outcome.delta_fallback);
    EXPECT_EQ(outcome.attempts, 1u);
    EXPECT_EQ(outcome.rolled_back, outcome.device == crashed);
  }
  EXPECT_EQ(report->rollbacks, 1u);
  ExpectTalliesAddUp(*report);
  auto inspection = fleet.registry.InspectAgent(crashed);
  ASSERT_TRUE(inspection.ok());
  EXPECT_EQ(inspection->state.phase, agent::ApplyPhase::kIdle);
  EXPECT_EQ(inspection->state.counters.crash_recoveries, 1u);
  EXPECT_EQ(inspection->state.counters.rollbacks, 1u);
  EXPECT_EQ(inspection->state.counters.applies, 2u);
  EXPECT_TRUE(fleet.registry.RunActiveSlot(crashed).ok());
}

// Health-check failures on the delta path are vetoes, not wire faults:
// the fallback full package ships inside the SAME retry admission, so a
// max_attempts=1 campaign still recovers the device. The channel is
// genuinely faulty here — the seed search pins a window where both the
// delta and its fallback dodge the fault draw, proving the budget rule
// (and not a quiet channel) is what saved the target.
TEST(AgentFleetTest, HealthFailureOnDeltaDoesNotConsumeRetryBudget) {
  DeltaFleet fleet(1);
  ASSERT_TRUE(fleet.engine.Run(fleet.V1Campaign()).ok());

  CampaignConfig v2 = fleet.V2DeltaCampaign();
  v2.workers = 1;
  v2.max_attempts = 1;  // the fallback is protocol, not a retry
  v2.channel.fault = net::ChannelFault::kRandomBitFlips;

  // Seed-search the engine's own per-delivery draws for a window where
  // deliveries #0 (delta) and #1 (fallback full) both stay clean under a
  // nonzero fault rate.
  bool found = false;
  for (uint64_t seed = 1; seed < 256 && !found; ++seed) {
    const double draw0 =
        Xoshiro256(DeliverySeed(seed, fleet.devices[0], 0) ^ 0xFA017)
            .NextDouble();
    const double draw1 =
        Xoshiro256(DeliverySeed(seed, fleet.devices[0], 1) ^ 0xFA017)
            .NextDouble();
    if (draw0 > 0.3 && draw1 > 0.3) {
      v2.campaign_seed = seed;
      v2.fault_rate = 0.25;  // below both draws: neither delivery faults
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no clean fault window in 256 seeds";

  // The device boots the patched v2 image and fails self-test once.
  ASSERT_TRUE(fleet.registry.ArmAgentHealthFailures(fleet.devices[0], 1).ok());

  auto report = fleet.engine.Run(v2);
  ASSERT_TRUE(report.ok());
  const DeviceOutcome& outcome = report->outcomes[0];
  // Two deliveries on a one-attempt budget: the veto consumed none of it.
  EXPECT_TRUE(outcome.ok) << outcome.last_status.ToString();
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_TRUE(outcome.delta_fallback);
  EXPECT_TRUE(outcome.health_failed);
  EXPECT_TRUE(outcome.rolled_back);
  EXPECT_FALSE(outcome.delta);  // the full package is what stuck
  EXPECT_EQ(report->delta_fallbacks, 1u);
  EXPECT_EQ(report->health_failures, 1u);
  EXPECT_EQ(report->rollbacks, 1u);
  // `retries` counts wire deliveries beyond the first (the fallback IS a
  // second delivery); the budget proof is attempts==2 under max_attempts=1.
  EXPECT_EQ(report->retries, 1u);
  ExpectTalliesAddUp(*report);

  // The rollback and the fallback both held: the device runs v2 now.
  auto inspection = fleet.registry.InspectAgent(fleet.devices[0]);
  ASSERT_TRUE(inspection.ok());
  EXPECT_EQ(inspection->state.counters.health_failures, 1u);
  EXPECT_EQ(inspection->state.counters.rollbacks, 1u);
  EXPECT_TRUE(fleet.registry.RunActiveSlot(fleet.devices[0]).ok());
}

// An UNPATCHABLE device (no durable base: memory-only registry never
// applied anything) plus an armed health failure must not double-charge:
// the full-package path's health veto consumes the normal retry budget —
// only the DELTA fallback path gets the free second delivery.
TEST(AgentFleetTest, HealthFailureOnFullPathConsumesBudgetAsRetry) {
  DeltaFleet fleet(1);
  ASSERT_TRUE(fleet.registry.ArmAgentHealthFailures(fleet.devices[0], 1).ok());
  CampaignConfig config = fleet.V1Campaign();
  config.workers = 1;
  config.max_attempts = 1;
  auto report = fleet.engine.Run(config);
  ASSERT_TRUE(report.ok());
  const DeviceOutcome& outcome = report->outcomes[0];
  // One attempt, vetoed: the target fails (and would need a retry).
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_TRUE(outcome.health_failed);
  EXPECT_FALSE(outcome.delta_fallback);
  EXPECT_EQ(report->failed, 1u);

  // With a second attempt in the budget, the retry lands it.
  ASSERT_TRUE(fleet.registry.ArmAgentHealthFailures(fleet.devices[0], 1).ok());
  config.max_attempts = 2;
  auto retried = fleet.engine.Run(config);
  ASSERT_TRUE(retried.ok());
  EXPECT_TRUE(retried->outcomes[0].ok);
  EXPECT_EQ(retried->outcomes[0].attempts, 2u);
}

// --- Heterogeneous fleets (per-device ISA) ----------------------------------

TEST(DeviceRegistryTest, EnrollmentRecordsDeviceIsa) {
  DeviceRegistry registry;
  const GroupId group = registry.CreateGroup("mixed");
  auto rv64 = registry.Enroll(0x15A64, group);
  auto rv32 = registry.Enroll(0x15A32, group, isa::IsaId::kRv32I);
  ASSERT_TRUE(rv64.ok());
  ASSERT_TRUE(rv32.ok());
  auto info64 = registry.Lookup(*rv64);
  auto info32 = registry.Lookup(*rv32);
  ASSERT_TRUE(info64.ok());
  ASSERT_TRUE(info32.ok());
  EXPECT_EQ(info64->isa, isa::IsaId::kRv64Gc);  // the default
  EXPECT_EQ(info32->isa, isa::IsaId::kRv32I);
}

TEST(PackageCacheTest, IsaIsPartOfTheArtifactAddress) {
  DeviceRegistry registry;
  const GroupId group = registry.CreateGroup("g");
  ASSERT_TRUE(registry.Enroll(0xCA, group).ok());
  auto key = registry.GroupKey(group);
  ASSERT_TRUE(key.ok());
  const auto policy = core::EncryptionPolicy::Full();

  PackageCache cache;
  compiler::CompileOptions rv64_options;
  compiler::CompileOptions rv32_options;
  rv32_options.isa = isa::IsaId::kRv32I;
  auto rv64_artifact = cache.GetOrBuild(kTinyProgram, *key,
                                        registry.key_config(), policy,
                                        core::CipherKind::kXor, rv64_options);
  auto rv32_artifact = cache.GetOrBuild(kTinyProgram, *key,
                                        registry.key_config(), policy,
                                        core::CipherKind::kXor, rv32_options);
  ASSERT_TRUE(rv64_artifact.ok());
  ASSERT_TRUE(rv32_artifact.ok());
  // Same source, same key, same policy — but different silicon, so the
  // cache must hold two distinct artifacts and never serve one for the
  // other.
  EXPECT_NE(rv64_artifact->get(), rv32_artifact->get());
  EXPECT_NE((*rv64_artifact)->wire, (*rv32_artifact)->wire);
  EXPECT_EQ((*rv64_artifact)->isa, isa::IsaId::kRv64Gc);
  EXPECT_EQ((*rv32_artifact)->isa, isa::IsaId::kRv32I);
  EXPECT_EQ(cache.Stats().artifact_misses, 2u);
  EXPECT_EQ(cache.Stats().compile_misses, 2u);

  // Repeating either request hits its own ISA's entry.
  auto again = cache.GetOrBuild(kTinyProgram, *key, registry.key_config(),
                                policy, core::CipherKind::kXor, rv32_options);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), rv32_artifact->get());
  EXPECT_EQ(cache.Stats().artifact_hits, 1u);
}

TEST(PackageCacheTest, RefusesCrossIsaDeltaEndpoints) {
  DeviceRegistry registry;
  const GroupId group = registry.CreateGroup("g");
  ASSERT_TRUE(registry.Enroll(0xCB, group).ok());
  auto key = registry.GroupKey(group);
  ASSERT_TRUE(key.ok());
  const auto policy = core::EncryptionPolicy::Full();

  PackageCache cache;
  compiler::CompileOptions rv32_options;
  rv32_options.isa = isa::IsaId::kRv32I;
  auto base = cache.GetOrBuild(kTinyProgram, *key, registry.key_config(),
                               policy);
  auto target = cache.GetOrBuild(kTinyProgram, *key, registry.key_config(),
                                 policy, core::CipherKind::kXor, rv32_options);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(target.ok());
  // A delta between differently-encoded images is never valid: refuse at
  // the cache boundary rather than ship a patch that can only corrupt.
  auto delta = cache.GetOrBuildDelta(**base, **target);
  ASSERT_FALSE(delta.ok());
  EXPECT_EQ(delta.status().code(), ErrorCode::kInvalidArgument);
}

TEST(PackageCacheAddressTest, BuiltArtifactsCarryTheDigestOfTheirWire) {
  DeltaFleet fleet(1);
  auto sealing = fleet.registry.SealingContextFor(fleet.devices[0]);
  ASSERT_TRUE(sealing.ok());
  const auto policy = core::EncryptionPolicy::Full();
  auto v1 = fleet.cache.GetOrBuild(fleet.v1_source, sealing->key,
                                   sealing->config, policy);
  auto v2 = fleet.cache.GetOrBuild(fleet.v2_source, sealing->key,
                                   sealing->config, policy);
  ASSERT_TRUE(v1.ok() && v2.ok());
  auto delta = fleet.cache.GetOrBuildDelta(**v1, **v2);
  ASSERT_TRUE(delta.ok());
  for (const CachedArtifact* artifact : {v1->get(), v2->get(), delta->get()}) {
    EXPECT_EQ(artifact->wire_digest, crypto::Sha256::Hash(artifact->wire));
  }
}

TEST(PackageCacheAddressTest, CampaignFetchAndSourceFetchShareOneArtifact) {
  DeviceRegistry registry;
  PackageCache cache;
  const GroupId group = registry.CreateGroup("mixed");
  std::vector<DeviceId> devices;
  for (const isa::IsaId isa : {isa::IsaId::kRv64Gc, isa::IsaId::kRv32I}) {
    auto id = registry.Enroll(0xADD0 + devices.size(), group, isa);
    ASSERT_TRUE(id.ok());
    devices.push_back(*id);
  }
  DeploymentEngine engine(registry, cache);
  CampaignConfig campaign;
  campaign.source = kTinyProgram;
  campaign.group = group;
  auto report = engine.Run(campaign);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->succeeded, 2u);
  ASSERT_EQ(cache.Stats().artifact_misses, 2u);  // one seal per ISA

  // Both signatures find what the campaign sealed, per ISA: hits on the
  // very same artifact, never a second seal.
  auto sealing = registry.SealingContextFor(devices[0]);
  ASSERT_TRUE(sealing.ok());
  std::vector<crypto::Sha256Digest> program_digests;
  for (const isa::IsaId isa : {isa::IsaId::kRv64Gc, isa::IsaId::kRv32I}) {
    compiler::CompileOptions options = campaign.compile_options;
    options.isa = isa;
    const ProgramAddress program(campaign.source, options);
    program_digests.push_back(program.digest());
    PackageCacheStats by_address, by_source;
    auto addressed =
        cache.GetOrBuild(program, sealing->key, sealing->config,
                         campaign.policy, registry.cipher(), &by_address);
    auto sourced = cache.GetOrBuild(campaign.source, sealing->key,
                                    sealing->config, campaign.policy,
                                    registry.cipher(), options, &by_source);
    ASSERT_TRUE(addressed.ok() && sourced.ok());
    EXPECT_EQ(addressed->get(), sourced->get());
    EXPECT_EQ((*addressed)->isa, isa);
    EXPECT_EQ(by_address.artifact_hits, 1u);
    EXPECT_EQ(by_source.artifact_hits, 1u);
  }
  EXPECT_NE(program_digests[0], program_digests[1]);
  EXPECT_EQ(cache.Stats().artifact_misses, 2u);
  EXPECT_EQ(cache.Stats().compile_misses, 2u);
}

TEST(PackageCacheAddressTest, DeltaAddressBindsBothEndpointsAndTheirEpoch) {
  DeltaFleet fleet(1);
  const auto policy = core::EncryptionPolicy::Full();
  const auto seal = [&](const std::string& source) {
    auto sealing = fleet.registry.SealingContextFor(fleet.devices[0]);
    EXPECT_TRUE(sealing.ok());
    auto artifact = fleet.cache.GetOrBuild(source, sealing->key,
                                           sealing->config, policy);
    return artifact.ok() ? *artifact : nullptr;
  };
  // One lookup's delta misses; the delta it returns must patch exactly.
  using Artifact = std::shared_ptr<const CachedArtifact>;
  const auto delta_misses = [&](const Artifact& base, const Artifact& target) {
    PackageCacheStats stats;
    auto delta = fleet.cache.GetOrBuildDelta(*base, *target, &stats);
    EXPECT_TRUE(delta.ok());
    if (delta.ok()) {
      auto applied = pkg::ApplyDelta(base->wire, (*delta)->wire);
      EXPECT_TRUE(applied.ok() && *applied == target->wire);
    }
    return stats.delta_misses;
  };
  const auto old_v1 = seal(fleet.v1_source);
  const auto old_v2 = seal(fleet.v2_source);
  const auto appended = seal(workloads::MakeSyntheticRelease(3, true));
  ASSERT_TRUE(old_v1 && old_v2 && appended);
  EXPECT_EQ(delta_misses(old_v1, old_v2), 1u);
  EXPECT_EQ(delta_misses(old_v1, old_v2), 0u);
  // The same base patched into another target is another delta.
  EXPECT_EQ(delta_misses(old_v1, appended), 1u);

  // Re-seal both endpoints under a new epoch. The old delta stays
  // resident (nothing was invalidated), yet the new endpoints' wires
  // differ, so their delta has a different address.
  ASSERT_TRUE(fleet.registry.RotateGroupEpoch(fleet.group).ok());
  const auto new_v1 = seal(fleet.v1_source);
  const auto new_v2 = seal(fleet.v2_source);
  ASSERT_TRUE(new_v1 && new_v2);
  EXPECT_NE(new_v1->wire_digest, old_v1->wire_digest);
  EXPECT_NE(new_v2->wire_digest, old_v2->wire_digest);
  EXPECT_EQ(delta_misses(new_v1, new_v2), 1u);
}

TEST(DeploymentEngineTest, MixedIsaCampaignCompilesPerIsaAndRunsEverywhere) {
  DeviceRegistry registry;
  PackageCache cache;
  const GroupId group = registry.CreateGroup("mixed");
  std::vector<DeviceId> rv64_devices;
  std::vector<DeviceId> rv32_devices;
  for (uint64_t i = 0; i < 4; ++i) {
    auto id = registry.Enroll(0xA64000 + i, group);
    ASSERT_TRUE(id.ok());
    rv64_devices.push_back(*id);
  }
  for (uint64_t i = 0; i < 2; ++i) {
    auto id = registry.Enroll(0xA32000 + i, group, isa::IsaId::kRv32I);
    ASSERT_TRUE(id.ok());
    rv32_devices.push_back(*id);
  }

  DeploymentEngine engine(registry, cache);
  CampaignConfig campaign;
  campaign.source = kTinyProgram;
  campaign.group = group;
  campaign.workers = 3;
  auto report = engine.Run(campaign);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->targets, 6u);
  EXPECT_EQ(report->succeeded, 6u);
  EXPECT_EQ(report->failed, 0u);
  // The workload is 32-bit clean, so every device — either ISA — computes
  // the same answer from its own ISA's image.
  for (const auto& outcome : report->outcomes) {
    EXPECT_TRUE(outcome.ok);
    EXPECT_EQ(outcome.exit_code, kTinyProgramResult);
    auto info = registry.Lookup(outcome.device);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(outcome.isa, info->isa);
  }
  // Encrypt-once still holds per ISA: one compile and one seal each.
  const auto& rv64_stats =
      report->by_isa[static_cast<size_t>(isa::IsaId::kRv64Gc)];
  const auto& rv32_stats =
      report->by_isa[static_cast<size_t>(isa::IsaId::kRv32I)];
  EXPECT_EQ(rv64_stats.targets, 4u);
  EXPECT_EQ(rv64_stats.succeeded, 4u);
  EXPECT_EQ(rv64_stats.compile_builds, 1u);
  EXPECT_EQ(rv64_stats.seal_builds, 1u);
  EXPECT_EQ(rv32_stats.targets, 2u);
  EXPECT_EQ(rv32_stats.succeeded, 2u);
  EXPECT_EQ(rv32_stats.compile_builds, 1u);
  EXPECT_EQ(rv32_stats.seal_builds, 1u);
  EXPECT_EQ(report->cache_compile_misses, 2u);
  EXPECT_EQ(report->cache_artifact_misses, 2u);
  EXPECT_EQ(report->cache_artifact_hits, 4u);
  ExpectTalliesAddUp(*report);
  // Each device now runs the campaign's version from an image of its own
  // ISA: its slot names the version, and re-running the slot through the
  // device's HDE, which refuses foreign-ISA images, gives the answer.
  const uint64_t version = ProgramVersionFingerprint(
      campaign.source, campaign.policy, campaign.compile_options);
  for (const auto* ids : {&rv64_devices, &rv32_devices}) {
    for (DeviceId id : *ids) {
      auto running = registry.DeliveredVersion(id);
      ASSERT_TRUE(running.ok());
      EXPECT_EQ(running->version, version);
      auto rerun = registry.RunActiveSlot(id);
      ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
      EXPECT_EQ(rerun->exec.exit_code, kTinyProgramResult);
    }
  }
}

TEST(DeltaCampaignTest, PerIsaDeltasInAMixedFleet) {
  DeltaFleet fleet;
  auto rv32 = fleet.registry.Enroll(0xDE17A320, fleet.group,
                                    isa::IsaId::kRv32I);
  ASSERT_TRUE(rv32.ok());
  fleet.devices.push_back(*rv32);

  auto first = fleet.engine.Run(fleet.V1Campaign());
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->succeeded, fleet.devices.size());

  // The rv32 device's retained base is rv32-encoded and its manifest says
  // so, so the v2 delta campaign can diff within that ISA: everyone gets
  // a delta, each encoded against their own ISA's base image.
  auto second = fleet.engine.Run(fleet.V2DeltaCampaign());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->succeeded, fleet.devices.size());
  EXPECT_EQ(second->delta_deliveries, fleet.devices.size());
  EXPECT_EQ(second->full_deliveries, 0u);
  EXPECT_EQ(second->delta_fallbacks, 0u);
  for (const auto& outcome : second->outcomes) {
    EXPECT_TRUE(outcome.ok);
    EXPECT_TRUE(outcome.delta);
  }
}

TEST(DeltaCampaignTest, ForeignIsaImageNeverBecomesTheDeltaBase) {
  DeltaFleet fleet;
  auto rv32 = fleet.registry.Enroll(0xDE17A321, fleet.group,
                                    isa::IsaId::kRv32I);
  ASSERT_TRUE(rv32.ok());
  fleet.devices.push_back(*rv32);

  const CampaignConfig v1 = fleet.V1Campaign();
  auto first = fleet.engine.Run(v1);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->succeeded, fleet.devices.size());
  auto before = fleet.registry.InspectAgent(*rv32);
  ASSERT_TRUE(before.ok());

  // Hand the rv32 device the rv64 encoding of v2, labelled v2 under the
  // group key. Its HDE refuses the image in the health check, the agent
  // rolls back, and the slot that stays active is the rv32 v1 image.
  auto sealing = fleet.registry.SealingContextFor(*rv32);
  ASSERT_TRUE(sealing.ok());
  auto rv64_v2 = fleet.cache.GetOrBuild(fleet.v2_source, sealing->key,
                                        sealing->config, v1.policy,
                                        fleet.registry.cipher(),
                                        v1.compile_options);
  ASSERT_TRUE(rv64_v2.ok());
  DispatchMeta foreign;
  foreign.version = ProgramVersionFingerprint(fleet.v2_source, v1.policy,
                                              v1.compile_options);
  foreign.key_fingerprint = (*rv64_v2)->key_fingerprint;
  EXPECT_FALSE(
      fleet.registry.Dispatch(*rv32, (*rv64_v2)->wire, 0, 0, &foreign).ok());
  EXPECT_TRUE(foreign.health_failed);
  EXPECT_TRUE(foreign.rolled_back);
  auto after = fleet.registry.InspectAgent(*rv32);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->state.phase, agent::ApplyPhase::kIdle);
  EXPECT_EQ(after->state.active_slot, before->state.active_slot);
  const int active = after->state.active_slot;
  ASSERT_GE(active, 0);
  EXPECT_EQ(after->state.slots[active].version,
            before->state.slots[active].version);
  EXPECT_EQ(after->state.slots[active].image_crc,
            before->state.slots[active].image_crc);

  // So the next delta campaign patches every device, the rv32 one
  // against its own ISA's v1 image.
  auto second = fleet.engine.Run(fleet.V2DeltaCampaign());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->succeeded, fleet.devices.size());
  EXPECT_EQ(second->delta_deliveries, fleet.devices.size());
  EXPECT_EQ(second->full_deliveries, 0u);
  EXPECT_EQ(second->delta_fallbacks, 0u);
  for (const auto& outcome : second->outcomes) {
    EXPECT_TRUE(outcome.ok);
    EXPECT_TRUE(outcome.delta);
    EXPECT_EQ(outcome.attempts, 1u);
  }
  ExpectTalliesAddUp(*second);
}

}  // namespace
}  // namespace eric::fleet
