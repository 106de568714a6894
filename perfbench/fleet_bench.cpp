// Fleet rollout benchmark: two closed-loop fleet workloads driven through
// the public API, with output checks in every run.
//
//   suite_sim        one grouped fleet (every 4th device RV32I) runs one
//                    campaign per MiBench kernel under the full policy,
//                    round after round. Delivery time is almost all
//                    simulator.
//   rollout_durable  a durable fleet (groups + solo devices) runs a full
//                    campaign, a faulted delta rollout through the
//                    scheduler and campaign journal, a key rotation, a
//                    cold restart, and one more delta campaign, cycle
//                    after cycle. Delivery time is mostly HDE PUF
//                    regeneration, agent persistence and the WAL.
//
// Usage: fleet_bench --workload W --seed N --seconds S --trace 0|1
//                    --state-dir DIR --expected-cycles ISA/KERNEL=C,...
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the same
// seed twice, untraced then traced (layer_trace.h), and reports the
// per-layer ledger. The last stdout line is one JSON object; see
// README.md for every metric's definition.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "compiler/compiler.h"
#include "core/hde.h"
#include "fleet/campaign_journal.h"
#include "fleet/campaign_scheduler.h"
#include "fleet/deployment_engine.h"
#include "fleet/rotation_campaign.h"
#include "layer_trace.h"
#include "sim/soc.h"
#include "support/rng.h"
#include "workloads/workloads.h"

namespace {

using namespace eric;
using perfbench::Layer;
using Clock = std::chrono::steady_clock;

// Closed loop: the engine's workers each take their next target only
// when the previous one finished. One per host core.
constexpr size_t kWorkers = 4;
// Extra durable set-ups timed per rollout_durable pass, so setup_s is a
// median (suite_sim sets up once a round).
constexpr int kRolloutExtraSetups = 3;

// suite_sim fleet: one group, every 4th device RV32I.
constexpr size_t kSuiteDevices = 16;
// Kernels that are not 32-bit clean (bench/baselines/BENCH_isa.json
// lists them as skipped) target the RV64GC devices only.
constexpr const char* kRv64OnlyKernels[] = {"crc32", "sha", "adpcm"};

// rollout_durable fleet: groups plus solo (own PUF key) devices.
constexpr size_t kGroups = 4;
constexpr size_t kGroupSize = 48;
constexpr size_t kSoloDevices = 32;
// One loop round keeps each release near 4.5 k simulated instructions.
// Fixed rather than seeded: a seed-dependent round count would change
// the work per delivery between seeds by more than the metric bounds.
constexpr int kReleaseRounds = 1;
// Key regenerations a device may see between two cold restarts (each
// re-enrolls it): a replayed rotation, the last delta delivery, the
// next cycle's full delivery, the faulted rollout's retries, and the
// rotation bump and its redeploy.
constexpr int kRolloutRegenerations = 12;
constexpr double kFaultRate = 0.1;
// Bits flipped per faulted delivery. A single flip sometimes lands in the
// unused padding bits of a partial package's encryption map, which
// pkg::Parse ignores: the HDE then accepts the package (the signed
// program still runs) and the agent keeps the non-canonical wire image
// as its delta base, so the next delta to that device falls back to a
// full package. Four flips make every faulted delivery a rejected one.
constexpr uint32_t kBitFlips = 4;
// Deep enough that no target exhausts its budget (0.1^6 per target).
constexpr uint32_t kMaxAttempts = 6;
constexpr size_t kCanary = 16;
constexpr size_t kWaveSize = 48;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string state_dir;
  /// (isa/kernel) -> plain + HDE cycles from the committed baselines.
  std::map<std::string, uint64_t> expected_cycles;
};

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t low = static_cast<size_t>(rank);
  const size_t high = std::min(low + 1, values.size() - 1);
  return values[low] + (values[high] - values[low]) * (rank - low);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Host calibration. The host is shared, and its speed drifts by 10-20%
// between runs a minute apart; every timing moves with it. A fixed-work
// spin probe on kWorkers threads at once, run before and after every
// unit, measures how slow the host is. The run's timings are divided by
// slowness = (median probe) / kProbeReferenceMs, and its rates
// multiplied by it. The median over all of a run's probes, rather than
// each unit's own, keeps the probe's own noise out of the units. The
// reference is a constant, so calibrated values of two commits compare
// directly; the raw probe is printed as host context.
constexpr double kProbeReferenceMs = 25.0;

std::atomic<uint64_t> g_probe_sink{0};
double HostProbeMs() {
  const auto spin = [] {
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 10'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      asm volatile("" : "+r"(x));  // keep every iteration
    }
    g_probe_sink.fetch_xor(x, std::memory_order_relaxed);
  };
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kWorkers; ++t) threads.emplace_back(spin);
  for (auto& thread : threads) thread.join();
  return SecondsSince(start) * 1e3;
}

// Output-check failures of one run.
class Checker {
 public:
  void Expect(bool condition, const std::string& what) {
    if (condition) return;
    if (failures_.size() < 20) failures_.push_back(what);
    ++count_;
  }
  bool ok() const { return count_ == 0; }
  void Print() const {
    for (const auto& failure : failures_) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
    }
    if (count_ > failures_.size()) {
      std::fprintf(stderr, "... and %zu more\n", count_ - failures_.size());
    }
  }

 private:
  std::vector<std::string> failures_;
  size_t count_ = 0;
};

// Everything one measured pass collects, uncalibrated. A unit is one
// suite_sim round or one rollout_durable cycle; throughput and CPU are
// taken per unit and reported as the median over units.
struct Tally {
  std::vector<double> probe_ms;
  std::vector<double> latencies_us;
  std::vector<double> unit_rate;
  std::vector<double> unit_p99_ms;
  std::vector<double> unit_cpu_ms;
  std::vector<double> unit_wall_s;
  std::vector<double> setup_s;
  std::vector<double> recovery_s;
  std::vector<double> recovery_ms_per_device;
  uint64_t attempted = 0;
  uint64_t ran = 0;
  uint64_t wire_bytes = 0;
  uint64_t device_cycles = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t delta_bytes = 0;       ///< shipped by delta campaigns
  uint64_t delta_full_bytes = 0;  ///< their full-package equivalent
  double busy_us = 0;             ///< worker time inside deliveries
  double capacity_us = 0;         ///< worker time the campaigns held
  double bump_us = 0;             ///< rotation epoch bumps
  perfbench::Ledger campaign;     ///< spans inside campaign calls
  perfbench::Ledger setup;        ///< spans inside fleet set-up
};

// The host's slowness over a pass (see HostProbeMs).
double Slowness(const Tally& tally) {
  return Median(tally.probe_ms) / kProbeReferenceMs;
}

// One unit's campaign phase.
struct Unit {
  size_t first_latency = 0;
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t ran = 0;
};

Unit BeginUnit(Tally& tally) {
  tally.probe_ms.push_back(HostProbeMs());
  Unit unit;
  unit.first_latency = tally.latencies_us.size();
  return unit;
}

void Account(const fleet::CampaignReport& report, Tally& tally, Unit& unit) {
  for (const auto& outcome : report.outcomes) {
    ++tally.attempted;
    if (outcome.ok) {
      ++tally.ran;
      ++unit.ran;
      tally.device_cycles += outcome.device_cycles;
    }
    tally.wire_bytes += outcome.bytes_shipped;
    if (outcome.attempts > 0) {
      tally.latencies_us.push_back(outcome.latency_us);
      tally.busy_us += outcome.latency_us;
    }
  }
  tally.capacity_us += report.wall_ms * 1e3 *
                       static_cast<double>(std::min(kWorkers, report.outcomes.size()));
  tally.cache_hits += report.cache_artifact_hits;
  tally.cache_misses += report.cache_artifact_misses;
}

// Runs one campaign call, charging its wall, CPU and spans to the unit.
template <typename Fn>
auto TimedCampaign(Tally& tally, Unit& unit, Fn&& fn) {
  const perfbench::Ledger before = perfbench::Snapshot();
  const double cpu_before = ProcessCpuSeconds();
  const auto start = Clock::now();
  auto result = fn();
  unit.wall_s += SecondsSince(start);
  unit.cpu_s += ProcessCpuSeconds() - cpu_before;
  tally.campaign += perfbench::Snapshot() - before;
  return result;
}

// The tail is taken per unit (about 930 deliveries a rollout cycle): a
// disk stall that slows one cycle then moves one sample of the median
// over units, not the pooled tail. The p50 is pooled over the run.
void CloseUnit(Tally& tally, const Unit& unit) {
  tally.probe_ms.push_back(HostProbeMs());
  std::vector<double> latencies_ms;
  for (size_t i = unit.first_latency; i < tally.latencies_us.size(); ++i) {
    latencies_ms.push_back(tally.latencies_us[i] / 1e3);
  }
  tally.unit_p99_ms.push_back(Percentile(latencies_ms, 0.99));
  tally.unit_rate.push_back(Ratio(static_cast<double>(unit.ran), unit.wall_s));
  tally.unit_cpu_ms.push_back(
      Ratio(unit.cpu_s * 1e3, static_cast<double>(unit.ran)));
  tally.unit_wall_s.push_back(unit.wall_s);
}

// --- Fleet set-up and recovery ------------------------------------------------

// Fab burn-in. A PUF key regeneration diverges from enrollment about
// once in 3000 power-ups (thermal noise past the fuzzy extractor), and
// the device then refuses the delivery. The benchmark keeps only device
// seeds whose first `regenerations` power-ups after enrollment all
// reproduce the key, so no delivery fails by chance. Each device's
// noise stream is fixed by its seed, so this predicts the fleet exactly.
bool StablePuf(uint64_t device_seed, int regenerations) {
  core::HardwareDecryptionEngine hde(device_seed, crypto::KeyConfig{});
  const crypto::Key256 enrolled = hde.EnrollAndShareKey();
  for (int i = 0; i < regenerations; ++i) {
    auto regenerated = hde.RotateKeyConfig(crypto::KeyConfig{});
    if (!regenerated.ok() || *regenerated != enrolled) return false;
  }
  return true;
}

uint64_t NextStableSeed(Xoshiro256& rng, int regenerations) {
  for (;;) {
    const uint64_t seed = rng.Next();
    if (StablePuf(seed, regenerations)) return seed;
  }
}

struct FleetSpec {
  std::vector<uint64_t> seeds;
  std::vector<int> group;  ///< index into the fleet's groups; -1 = solo
  std::vector<isa::IsaId> isa;
  size_t groups = 0;
};

struct Fleet {
  std::unique_ptr<fleet::DeviceRegistry> registry;
  std::vector<fleet::GroupId> groups;
  std::vector<fleet::DeviceId> devices;  ///< in spec order
};

// Registry construction + storage open (when `state_dir` is set) + group
// creation + enrollment: what setup_s times.
Result<Fleet> StandUp(const FleetSpec& spec, const std::string& state_dir,
                      Tally& tally) {
  const perfbench::Ledger before = perfbench::Snapshot();
  const auto start = Clock::now();
  Fleet out;
  out.registry = std::make_unique<fleet::DeviceRegistry>();
  if (!state_dir.empty()) {
    ERIC_RETURN_IF_ERROR(out.registry->OpenStorage(state_dir));
  }
  for (size_t g = 0; g < spec.groups; ++g) {
    out.groups.push_back(out.registry->CreateGroup("group-" + std::to_string(g)));
  }
  for (size_t i = 0; i < spec.seeds.size(); ++i) {
    const fleet::GroupId group =
        spec.group[i] < 0 ? fleet::kNoGroup
                          : out.groups[static_cast<size_t>(spec.group[i])];
    Result<fleet::DeviceId> id = Status::Ok();
    {
      perfbench::Span span(Layer::kEnroll);
      id = out.registry->Enroll(spec.seeds[i], group, spec.isa[i]);
    }
    if (!id.ok()) return id.status();
    out.devices.push_back(*id);
  }
  tally.setup_s.push_back(SecondsSince(start));
  tally.setup += perfbench::Snapshot() - before;
  return out;
}

// Cold restart: a fresh registry recovers `state_dir`. Times recovery_s.
Result<std::unique_ptr<fleet::DeviceRegistry>> ColdRestart(
    const std::string& state_dir, size_t expected_devices, Tally& tally,
    Checker& check) {
  const auto start = Clock::now();
  auto registry = std::make_unique<fleet::DeviceRegistry>();
  ERIC_RETURN_IF_ERROR(registry->OpenStorage(state_dir));
  const double seconds = SecondsSince(start);
  const auto info = registry->storage_info();
  check.Expect(info.devices_recovered == expected_devices,
               "recovery rebuilt " + std::to_string(info.devices_recovered) +
                   " of " + std::to_string(expected_devices) + " devices");
  tally.recovery_s.push_back(seconds);
  tally.recovery_ms_per_device.push_back(
      Ratio(seconds * 1e3, static_cast<double>(expected_devices)));
  return registry;
}

// A state directory nothing used before. State is never deleted while
// the run measures: on an ext4 volume mounted with `discard`, deleting
// a fleet's state every cycle made each later fsync + rename several
// times slower within a minute, drifting the durable metrics over a
// run. main() removes the state root at exit.
std::string NewStateDir(const std::string& root, const std::string& name) {
  static int serial = 0;
  return root + "/" + name + "-" + std::to_string(serial++);
}

// --- suite_sim ------------------------------------------------------------------

bool Rv64Only(const std::string& kernel) {
  for (const char* name : kRv64OnlyKernels) {
    if (kernel == name) return true;
  }
  return false;
}

Status RunSuite(const Options& opt, double seconds, Tally& tally,
                Checker& check) {
  Xoshiro256 rng(opt.seed ^ 0x5517E5u);
  const auto& kernels = workloads::AllWorkloads();
  FleetSpec spec;
  spec.groups = 1;
  for (size_t i = 0; i < kSuiteDevices; ++i) {
    spec.seeds.push_back(NextStableSeed(rng, static_cast<int>(kernels.size())));
    spec.group.push_back(0);
    spec.isa.push_back(i % 4 == 3 ? isa::IsaId::kRv32I : isa::IsaId::kRv64Gc);
  }
  std::vector<size_t> order(kernels.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  std::vector<int64_t> reference;
  for (const auto& kernel : kernels) reference.push_back(kernel.reference());

  // recovery_s: a cold restart of a durable enrollment of the same
  // fleet, once a round.
  const std::string durable_dir = NewStateDir(opt.state_dir, "suite");
  {
    Tally scratch;
    auto durable = StandUp(spec, durable_dir, scratch);
    if (!durable.ok()) return durable.status();
  }

  // Each round stands the fleet up afresh (one set-up sample), so no
  // device sees more key regenerations than the burn-in covered. The
  // cache outlives rounds: group keys derive from the registry secret,
  // so every round after the first seals nothing.
  fleet::PackageCache cache;
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  uint64_t round = 0;
  do {
    auto recovered = ColdRestart(durable_dir, spec.seeds.size(), tally, check);
    if (!recovered.ok()) return recovered.status();
    recovered->reset();
    auto stood = StandUp(spec, "", tally);
    if (!stood.ok()) return stood.status();
    const Fleet fleet = std::move(*stood);
    std::vector<fleet::DeviceId> rv64;
    for (size_t i = 0; i < fleet.devices.size(); ++i) {
      if (spec.isa[i] == isa::IsaId::kRv64Gc) rv64.push_back(fleet.devices[i]);
    }
    fleet::DeploymentEngine engine(*fleet.registry, cache);
    Unit unit = BeginUnit(tally);
    for (size_t k : order) {
      const workloads::Workload& kernel = kernels[k];
      fleet::CampaignConfig config;
      config.source = kernel.source;
      config.policy = core::EncryptionPolicy::Full();
      config.devices = Rv64Only(kernel.name) ? rv64 : fleet.devices;
      config.workers = kWorkers;
      config.campaign_seed = opt.seed * 1000003 + round * 64 + k;
      auto report = TimedCampaign(tally, unit,
                                  [&] { return engine.Run(config); });
      if (!report.ok()) return report.status();
      Account(*report, tally, unit);
      for (const auto& outcome : report->outcomes) {
        const std::string key =
            std::string(isa::IsaName(outcome.isa)) + "/" + kernel.name;
        check.Expect(outcome.ok, key + " device " +
                                     std::to_string(outcome.device) +
                                     " failed: " + outcome.last_status.ToString());
        check.Expect(outcome.exit_code == reference[k],
                     key + " exit " + std::to_string(outcome.exit_code) +
                         " != reference " + std::to_string(reference[k]));
        const auto expected = opt.expected_cycles.find(key);
        check.Expect(expected != opt.expected_cycles.end() &&
                         outcome.device_cycles == expected->second,
                     key + " device_cycles " +
                         std::to_string(outcome.device_cycles) +
                         " != baseline plain + hde cycles");
      }
    }
    CloseUnit(tally, unit);
    ++round;
  } while (Clock::now() < deadline);
  return Status::Ok();
}

// --- rollout_durable ------------------------------------------------------------

// The delivery sequence the engine will make for one target of a faulted
// campaign, replayed from its own per-delivery seed (fleet::DeliverySeed)
// and fault draw: a faulted delta falls back to the full package inside
// the same attempt; a faulted full package costs an attempt.
struct Prediction {
  uint32_t deliveries = 0;
  bool ok = false;
  bool delta = false;
  bool fallback = false;
  uint32_t faulted_delta = 0;
  uint32_t faulted_full = 0;
};

Prediction Predict(uint64_t campaign_seed, fleet::DeviceId device,
                   bool delta_eligible) {
  // 0xFA017 is the engine's fault-draw salt (deployment_engine.cpp).
  const auto faulted = [&](uint32_t index) {
    return Xoshiro256(fleet::DeliverySeed(campaign_seed, device, index) ^
                      0xFA017)
               .NextDouble() < kFaultRate;
  };
  Prediction p;
  bool use_delta = delta_eligible;
  for (uint32_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (!faulted(p.deliveries++)) {
      p.ok = true;
      p.delta = use_delta;
      break;
    }
    if (!use_delta) {
      ++p.faulted_full;
      continue;
    }
    ++p.faulted_delta;
    use_delta = false;
    p.fallback = true;
    if (!faulted(p.deliveries++)) {
      p.ok = true;
      break;
    }
    ++p.faulted_full;
  }
  return p;
}

// Times each journal append on its way into the CampaignJournal.
class TimedJournalSink : public fleet::CampaignCheckpointSink {
 public:
  explicit TimedJournalSink(fleet::CampaignJournal& journal)
      : journal_(journal) {}
  void OnTargetCheckpoint(const fleet::TargetCheckpoint& checkpoint) override {
    perfbench::Span span(Layer::kJournalAppend);
    journal_.OnTargetCheckpoint(checkpoint);
  }

 private:
  fleet::CampaignJournal& journal_;
};

// Exit code of a plaintext run of `source`'s image: what every device
// that ran the sealed release must agree with.
Result<int64_t> PlaintextExit(const std::string& source) {
  auto compiled = compiler::Compile(source);
  if (!compiled.ok()) return compiled.status();
  sim::Soc soc;
  soc.LoadProgram(compiled->program.image);
  const sim::ExecStats stats = soc.Run();
  if (stats.halt_reason != sim::HaltReason::kExit) {
    return Status(ErrorCode::kInternal, "plaintext release did not exit");
  }
  return stats.exit_code;
}

void CheckExits(const fleet::CampaignReport& report, int64_t expected,
                const std::string& what, Checker& check) {
  for (const auto& outcome : report.outcomes) {
    check.Expect(outcome.ok, what + " device " + std::to_string(outcome.device) +
                                 " failed: " + outcome.last_status.ToString());
    check.Expect(!outcome.ok || outcome.exit_code == expected,
                 what + " device " + std::to_string(outcome.device) +
                     " exit " + std::to_string(outcome.exit_code) +
                     " != plaintext " + std::to_string(expected));
  }
}

Status RunRollout(const Options& opt, double seconds, Tally& tally,
                  Checker& check) {
  Xoshiro256 rng(opt.seed ^ 0xD0AB1Eu);
  FleetSpec spec;
  spec.groups = kGroups;
  for (size_t g = 0; g < kGroups; ++g) {
    for (size_t i = 0; i < kGroupSize; ++i) {
      spec.seeds.push_back(NextStableSeed(rng, kRolloutRegenerations));
      spec.group.push_back(static_cast<int>(g));
      spec.isa.push_back(isa::IsaId::kRv64Gc);
    }
  }
  for (size_t i = 0; i < kSoloDevices; ++i) {
    spec.seeds.push_back(NextStableSeed(rng, kRolloutRegenerations));
    spec.group.push_back(-1);
    spec.isa.push_back(isa::IsaId::kRv64Gc);
  }
  const size_t rotated_group = rng.NextBounded(kGroups);
  const core::EncryptionPolicy policy =
      core::EncryptionPolicy::PartialRandom(0.5, opt.seed);
  std::string release[3];
  int64_t plaintext_exit[3];
  for (int v = 0; v < 3; ++v) {
    release[v] = workloads::MakeSyntheticRelease(kReleaseRounds + v);
    auto exit_code = PlaintextExit(release[v]);
    if (!exit_code.ok()) return exit_code.status();
    plaintext_exit[v] = *exit_code;
  }

  // One durable fleet serves every cycle of the pass: its state
  // directory is rewritten in place, never deleted while the pass
  // measures (see NewStateDir), and a snapshot at the end of each cycle
  // keeps the WAL tail every cold restart replays at one cycle's worth.
  for (int i = 0; i < kRolloutExtraSetups; ++i) {
    auto extra = StandUp(spec, NewStateDir(opt.state_dir, "setup"), tally);
    if (!extra.ok()) return extra.status();
  }
  const std::string dir = NewStateDir(opt.state_dir, "rollout");
  auto stood = StandUp(spec, dir, tally);
  if (!stood.ok()) return stood.status();
  std::unique_ptr<fleet::DeviceRegistry> registry = std::move(stood->registry);
  const size_t fleet_size = stood->devices.size();
  fleet::CampaignConfig base;
  base.policy = policy;
  base.devices = stood->devices;
  base.workers = kWorkers;

  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  do {
    Unit unit = BeginUnit(tally);
    const uint64_t campaign_seed = rng.Next();
    {
      fleet::PackageCache cache;
      fleet::DeploymentEngine engine(*registry, cache);

      // 1. Full campaign of release r.
      fleet::CampaignConfig full = base;
      full.source = release[0];
      full.campaign_seed = campaign_seed;
      auto first = TimedCampaign(tally, unit, [&] { return engine.Run(full); });
      if (!first.ok()) return first.status();
      Account(*first, tally, unit);
      CheckExits(*first, plaintext_exit[0], "release r", check);

      // 2. Faulted delta rollout r -> r+1: canary + waves, journaled.
      fleet::CampaignConfig delta = base;
      delta.source = release[1];
      delta.delta = true;
      delta.delta_base_source = release[0];
      delta.channel.fault = net::ChannelFault::kRandomBitFlips;
      delta.channel.bit_flips = kBitFlips;
      delta.fault_rate = kFaultRate;
      delta.max_attempts = kMaxAttempts;
      delta.campaign_seed = campaign_seed + 1;
      fleet::SchedulerConfig rollout;
      rollout.canary_size = kCanary;
      rollout.canary_failure_threshold = 0.5;
      rollout.wave_size = kWaveSize;
      rollout.wave_failure_threshold = 0.5;
      rollout.shuffle_targets = true;
      fleet::CampaignJournal journal;
      ERIC_RETURN_IF_ERROR(journal.Open(dir));
      ERIC_RETURN_IF_ERROR(journal.Begin(
          fleet::ProgramVersionFingerprint(delta.source, policy,
                                           delta.compile_options),
          delta.devices));
      TimedJournalSink sink(journal);
      fleet::CampaignControl control;
      control.AttachCheckpointSink(&sink);
      journal.CancelCampaignOnError(&control);
      fleet::CampaignScheduler scheduler(engine, *registry);
      const perfbench::Ledger before_faults = perfbench::Snapshot();
      auto scheduled = TimedCampaign(
          tally, unit, [&] { return scheduler.Run(delta, rollout, &control); });
      if (!scheduled.ok()) return scheduled.status();
      const perfbench::Ledger faults = perfbench::Snapshot() - before_faults;
      ERIC_RETURN_IF_ERROR(journal.Complete());
      check.Expect(journal.last_error().ok(), "journal append failed");
      check.Expect(scheduled->outcome == fleet::CampaignOutcome::kCompleted,
                   "delta rollout did not complete");
      uint64_t faulted_delta = 0, faulted_full = 0, ok_targets = 0;
      for (const auto& wave : scheduled->waves) {
        Account(wave.report, tally, unit);
        tally.delta_bytes += wave.report.bytes_shipped;
        tally.delta_full_bytes += wave.report.bytes_full_equivalent;
        CheckExits(wave.report, plaintext_exit[1], "release r+1", check);
        for (const auto& outcome : wave.report.outcomes) {
          const Prediction p = Predict(delta.campaign_seed, outcome.device, true);
          faulted_delta += p.faulted_delta;
          faulted_full += p.faulted_full;
          ok_targets += outcome.ok ? 1 : 0;
          check.Expect(outcome.ok == p.ok && outcome.attempts == p.deliveries &&
                           outcome.delta == p.delta &&
                           outcome.delta_fallback == p.fallback,
                       "device " + std::to_string(outcome.device) +
                           " delivery sequence differs from the predicted "
                           "faults");
        }
      }
      // Fail closed: every faulted delta was refused by the patch codec,
      // every faulted package by the HDE, and only clean deliveries ran.
      check.Expect(faults.delta_rejects == faulted_delta,
                   "delta rejects " + std::to_string(faults.delta_rejects) +
                       " != predicted faulted deltas " +
                       std::to_string(faulted_delta));
      check.Expect(faults.hde_rejects == faulted_full,
                   "HDE rejects " + std::to_string(faults.hde_rejects) +
                       " != predicted faulted packages " +
                       std::to_string(faulted_full));
      check.Expect(faults.sim_runs == ok_targets,
                   "simulator ran " + std::to_string(faults.sim_runs) +
                       " images for " + std::to_string(ok_targets) +
                       " delivered targets");
      check.Expect(faulted_delta + faulted_full > 0,
                   "the faulted rollout injected no faults");

      // 3. Key rotation of one group, redeploying release r+1.
      fleet::RotationConfig rotation;
      rotation.group = stood->groups[rotated_group];
      rotation.campaign = base;
      rotation.campaign.devices.clear();
      rotation.campaign.source = release[1];
      rotation.campaign.campaign_seed = campaign_seed + 2;
      fleet::RotationCampaign rotator(engine, *registry, cache);
      auto rotated = TimedCampaign(tally, unit, [&] { return rotator.Run(rotation); });
      if (!rotated.ok()) return rotated.status();
      check.Expect(rotated->bumped && rotated->new_epoch == rotated->old_epoch + 1 &&
                       rotated->members_rekeyed == kGroupSize,
                   "rotation did not re-key the group");
      tally.bump_us += rotated->bump_ms * 1e3;
      for (const auto& wave : rotated->rollout.waves) {
        Account(wave.report, tally, unit);
        CheckExits(wave.report, plaintext_exit[1], "rotated r+1", check);
      }
    }

    // 4. Cold restart on the same state directory.
    registry.reset();
    auto recovered = ColdRestart(dir, fleet_size, tally, check);
    if (!recovered.ok()) return recovered.status();
    registry = std::move(*recovered);
    {
      // 5. Delta r+1 -> r+2 against the recovered manifests and slots.
      fleet::PackageCache cache;
      fleet::DeploymentEngine engine(*registry, cache);
      fleet::CampaignConfig again = base;
      again.source = release[2];
      again.delta = true;
      again.delta_base_source = release[1];
      again.campaign_seed = campaign_seed + 3;
      auto last = TimedCampaign(tally, unit, [&] { return engine.Run(again); });
      if (!last.ok()) return last.status();
      Account(*last, tally, unit);
      tally.delta_bytes += last->bytes_shipped;
      tally.delta_full_bytes += last->bytes_full_equivalent;
      CheckExits(*last, plaintext_exit[2], "release r+2", check);
      check.Expect(last->delta_deliveries == fleet_size && last->delta_fallbacks == 0,
                   "restarted fleet shipped " +
                       std::to_string(last->delta_deliveries) + " deltas to " +
                       std::to_string(fleet_size) + " devices");
    }
    ERIC_RETURN_IF_ERROR(registry->Snapshot());
    CloseUnit(tally, unit);
  } while (Clock::now() < deadline);
  return Status::Ok();
}

// --- Reporting ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Timings and rates are calibrated to the reference host (HostProbeMs);
// counts, bytes and memory are not.
std::vector<Metric> EndToEnd(const Tally& t) {
  const double slowness = Slowness(t);
  return {
      {"devices_per_s", Median(t.unit_rate) * slowness, "1/s"},
      {"delivery_p50_ms", Median(t.latencies_us) / 1e3 / slowness, "ms"},
      {"delivery_p99_ms", Median(t.unit_p99_ms) / slowness, "ms"},
      {"cpu_ms_per_target", Median(t.unit_cpu_ms) / slowness, "ms"},
      {"setup_s", Median(t.setup_s) / slowness, "s"},
      {"recovery_s", Median(t.recovery_s) / slowness, "s"},
      {"ok_share", Ratio(static_cast<double>(t.ran), static_cast<double>(t.attempted)),
       "ratio"},
      {"wire_bytes_per_target",
       Ratio(static_cast<double>(t.wire_bytes), static_cast<double>(t.attempted)),
       "bytes"},
      {"device_cycles_per_target",
       Ratio(static_cast<double>(t.device_cycles), static_cast<double>(t.ran)),
       "cycles"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

std::vector<Metric> PerLayer(const Tally& traced, const Tally& untraced) {
  const perfbench::Ledger& c = traced.campaign;
  const auto mean_us = [](const perfbench::LayerTotals& l) {
    return Ratio(static_cast<double>(l.total_ns) / 1e3, static_cast<double>(l.calls));
  };
  const auto self_us = [](const perfbench::LayerTotals& l) {
    return Ratio(static_cast<double>(l.self_ns) / 1e3, static_cast<double>(l.calls));
  };
  // The ledger's base is delivery time: the sum of per-target delivery
  // latencies (what delivery_p50_ms/p99_ms sample), plus the rotation's
  // epoch bump, which regenerates every member's PUF key outside any
  // delivery. Layers called outside both (compile, seal, delta encode,
  // journal) are reported per call, not as shares.
  const double base_ns = (traced.busy_us + traced.bump_us) * 1e3;
  const auto share = [&](std::initializer_list<Layer> layers) {
    double self = 0;
    for (Layer layer : layers) self += static_cast<double>(c[layer].self_ns);
    return Ratio(self, base_ns);
  };
  const double share_sim = share({Layer::kSimRun, Layer::kSimLoad});
  const double share_hde = share({Layer::kHde});
  const double share_puf = share({Layer::kPufRegen});
  const double share_agent = share({Layer::kAgentApply, Layer::kAgentHealth});
  const double share_store = share({Layer::kWalAppend});
  const double share_pkg = share({Layer::kDeltaApply});
  const double share_net = share({Layer::kChannel});
  const double units = static_cast<double>(traced.unit_wall_s.size());
  const double runs = static_cast<double>(c.sim_runs);
  return {
      {"sim.ns_per_instr",
       Ratio(static_cast<double>(c[Layer::kSimRun].total_ns),
             static_cast<double>(c.sim_instructions)),
       "ns"},
      {"sim.load_us", Ratio(static_cast<double>(c[Layer::kSimLoad].total_ns) / 1e3, runs),
       "us"},
      {"sim.instructions", Ratio(static_cast<double>(c.sim_instructions), runs),
       "count"},
      {"sim.cycles", Ratio(static_cast<double>(c.sim_cycles), runs), "cycles"},
      {"sim.ipc",
       Ratio(static_cast<double>(c.sim_instructions), static_cast<double>(c.sim_cycles)),
       "ratio"},
      {"sim.icache_miss_rate",
       Ratio(static_cast<double>(c.icache_misses), static_cast<double>(c.icache_accesses)),
       "ratio"},
      {"sim.dcache_miss_rate",
       Ratio(static_cast<double>(c.dcache_misses), static_cast<double>(c.dcache_accesses)),
       "ratio"},
      {"share.sim", share_sim, "ratio"},
      {"core.hde_us", mean_us(c[Layer::kHde]), "us"},
      {"puf.regen_us", mean_us(c[Layer::kPufRegen]), "us"},
      {"core.hde_rejects", Ratio(static_cast<double>(c.hde_rejects), units), "count"},
      {"share.hde", share_hde, "ratio"},
      {"share.puf", share_puf, "ratio"},
      {"fleet.enroll_ms", mean_us(traced.setup[Layer::kEnroll]) / 1e3, "ms"},
      {"puf.enroll_us", mean_us(traced.setup[Layer::kPufEnroll]), "us"},
      {"store.recovery_ms_per_device", Median(traced.recovery_ms_per_device), "ms"},
      {"agent.apply_self_us", self_us(c[Layer::kAgentApply]), "us"},
      {"store.wal_append_us", mean_us(c[Layer::kWalAppend]), "us"},
      {"store.journal_append_us", mean_us(c[Layer::kJournalAppend]), "us"},
      {"share.agent", share_agent, "ratio"},
      {"share.store", share_store, "ratio"},
      {"pkg.delta_encode_us", mean_us(c[Layer::kDeltaEncode]), "us"},
      {"pkg.delta_apply_us", mean_us(c[Layer::kDeltaApply]), "us"},
      {"pkg.delta_vs_full_bytes",
       Ratio(static_cast<double>(traced.delta_bytes),
             static_cast<double>(traced.delta_full_bytes)),
       "ratio"},
      {"fleet.cache_artifact_hit_rate",
       Ratio(static_cast<double>(traced.cache_hits),
             static_cast<double>(traced.cache_hits + traced.cache_misses)),
       "ratio"},
      {"fleet.wave_idle_share", 1.0 - Ratio(traced.busy_us, traced.capacity_us),
       "ratio"},
      {"compiler.compile_ms", mean_us(c[Layer::kCompile]) / 1e3, "ms"},
      {"compiler.compiles", Ratio(static_cast<double>(c[Layer::kCompile].calls), units),
       "count"},
      {"core.seal_us", mean_us(c[Layer::kSeal]), "us"},
      {"core.seals", Ratio(static_cast<double>(c[Layer::kSeal].calls), units), "count"},
      {"net.channel_us", mean_us(c[Layer::kChannel]), "us"},
      {"share.pkg", share_pkg, "ratio"},
      {"share.net", share_net, "ratio"},
      {"share.unattributed",
       1.0 - (share_sim + share_hde + share_puf + share_agent + share_store +
              share_pkg + share_net),
       "ratio"},
      {"obs.trace_overhead_share",
       (Median(traced.unit_wall_s) / Slowness(traced)) /
               (Median(untraced.unit_wall_s) / Slowness(untraced)) -
           1.0,
       "ratio"},
  };
}

void PrintHuman(const std::string& heading, const std::vector<Metric>& metrics) {
  std::printf("%s\n", heading.c_str());
  for (const auto& m : metrics) {
    std::printf("  %-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void PrintJson(bool correct, const Tally& t, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.attempted - t.ran));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

bool ParseExpectedCycles(const std::string& text,
                         std::map<std::string, uint64_t>& out) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    const std::string item = text.substr(pos, end - pos);
    const size_t eq = item.find('=');
    if (eq == std::string::npos) return false;
    out[item.substr(0, eq)] = std::strtoull(item.c_str() + eq + 1, nullptr, 10);
    pos = end + 1;
  }
  return !out.empty();
}

int Usage() {
  std::fprintf(stderr,
               "usage: fleet_bench --workload suite_sim|rollout_durable --seed N "
               "--seconds S --trace 0|1 --state-dir DIR "
               "--expected-cycles ISA/KERNEL=C,...\n");
  return 2;
}

// Runs the untraced pass, and the traced pass with --trace 1, then
// prints the metrics. Returns the process exit code.
int Measure(const Options& opt) {
  const auto run = [&](double seconds, Tally& tally, Checker& check) {
    return opt.workload == "suite_sim" ? RunSuite(opt, seconds, tally, check)
                                       : RunRollout(opt, seconds, tally, check);
  };
  std::printf("workload %s seed %llu trace %d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);

  Checker check;
  Tally untraced;
  const double untraced_seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  Status status = run(untraced_seconds, untraced, check);
  if (!status.ok()) {
    std::fprintf(stderr, "run failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const std::vector<Metric> end_to_end = EndToEnd(untraced);
  PrintHuman("end-to-end (untraced, calibrated to a " +
                 std::to_string(kProbeReferenceMs) + " ms probe)",
             end_to_end);
  PrintHuman("host context",
             {{"host.spin_probe_ms", Median(untraced.probe_ms), "ms"},
              {"host.slowness", Slowness(untraced), "ratio"},
              {"failed_share",
               1.0 - Ratio(static_cast<double>(untraced.ran),
                           static_cast<double>(untraced.attempted)),
               "ratio"}});

  if (!opt.trace) {
    check.Print();
    PrintJson(check.ok(), untraced, end_to_end);
    return 0;
  }
  Tally traced;
  perfbench::EnableSpans(true);
  status = run(opt.seconds / 2, traced, check);
  perfbench::EnableSpans(false);
  if (!status.ok()) {
    std::fprintf(stderr, "traced run failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const std::vector<Metric> per_layer = PerLayer(traced, untraced);
  PrintHuman("per-layer (traced, same seed)", per_layer);
  check.Print();
  Tally both = untraced;
  both.attempted += traced.attempted;
  both.ran += traced.ran;
  PrintJson(check.ok(), both, per_layer);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--state-dir") {
      opt.state_dir = value;
    } else if (flag == "--expected-cycles") {
      if (!ParseExpectedCycles(value, opt.expected_cycles)) return Usage();
    } else {
      return Usage();
    }
  }
  if ((opt.workload != "suite_sim" && opt.workload != "rollout_durable") ||
      opt.state_dir.empty() || opt.seconds <= 0) {
    return Usage();
  }
  std::filesystem::create_directories(opt.state_dir);
  const int code = Measure(opt);
  std::filesystem::remove_all(opt.state_dir);
  return code;
}
