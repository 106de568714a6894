// eric_fleetd's command line, parsed and validated in one place.
//
// ParseDaemonConfig turns argv into a DaemonConfig or a kInvalidArgument
// Status naming the defect: an unknown flag, a malformed number, or one
// of the flag-conflict rules (for example --resume without --state-dir,
// --delta with --rotate-epoch, --slo with --soak). Every default the
// daemon derives from the flags it was given (the fault rate of a named
// fault, the soak's fleet size, the scheduler's canary threshold) is
// resolved here too, so the daemon itself only ever reads finished
// values. The conflict matrix is covered by tests/daemon_config_test.cpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "core/encryption_policy.h"
#include "fleet/campaign_scheduler.h"
#include "net/channel.h"
#include "obs/health.h"
#include "support/status.h"

namespace eric::fleet {

/// One chaos-soak tier. `short` is CI-sized (seeded, well under a minute
/// even under ASan+UBSan); `long` is the nightly tier: the same
/// machinery with a larger fleet and more rounds.
struct SoakProfile {
  const char* name;   ///< "short" or "long"
  size_t devices;     ///< initial enrollment (churn grows it)
  size_t groups;      ///< initial device groups
  size_t rounds;      ///< campaign rounds, each followed by a fleet sweep
  size_t workers;     ///< engine workers per round campaign
  uint32_t attempts;  ///< per-device retry budget per campaign
  double crash_rate;  ///< probabilistic agent crash-mid-apply, per apply
};

/// The CI-sized soak tier.
inline constexpr SoakProfile kSoakShort{"short", 10, 2, 8, 4, 6, 0.05};
/// The nightly soak tier.
inline constexpr SoakProfile kSoakLong{"long", 32, 4, 40, 8, 6, 0.08};

/// Everything one eric_fleetd invocation was asked to do, validated.
struct DaemonConfig {
  // --- Initial enrollment (a fleet recovered from --state-dir wins) ---
  size_t devices = 0;       ///< --devices: fleet size (required, > 0)
  size_t groups = 1;        ///< --groups: device groups (> 0)
  size_t rv32_every = 0;    ///< --rv32-every: every K-th device is RV32I
  size_t revoke_every = 0;  ///< --revoke: revoke every K-th device

  // --- Program ---
  /// --source: EricC file to deploy; empty deploys `workload_name`.
  std::string source_path;
  /// --workload: built-in workload deployed when no --source is given.
  std::string workload_name = "crc32";
  /// --delta: ship patch packages against the base release.
  bool delta = false;
  std::string base_source_path;    ///< --base-source (requires --delta)
  std::string base_workload_name;  ///< --base-workload (requires --delta)
  std::string mode = "partial";    ///< --mode: full|partial|field|none
  double fraction = 0.5;           ///< --fraction for the partial mode
  core::EncryptionPolicy policy;   ///< resolved from mode + fraction
  /// Compiler settings; the field mode turns RVC compression off (its
  /// rules address 32-bit encodings).
  compiler::CompileOptions compile_options;

  // --- Delivery ---
  size_t workers = 4;        ///< --workers
  uint32_t attempts = 1;     ///< --attempts: delivery budget per device
  uint32_t latency_us = 0;   ///< --latency-us: simulated one-way latency
  std::string fault_name = "none";  ///< --fault, as spelled on the line
  /// The parsed --fault.
  net::ChannelFault fault = net::ChannelFault::kNone;
  /// --fault-rate; a named fault without a rate faults every delivery
  /// (a fault that never fires would silently test nothing).
  double fault_rate = 0.0;

  // --- Rollout ---
  /// Canary cohort, waves, gates, shuffle, and throttle. The defaults
  /// run the campaign as one wave with no gate and no throttle.
  SchedulerConfig rollout;
  uint32_t pause_after_ms = 0;  ///< --pause-after: 0 = no demo pause
  uint32_t pause_for_ms = 250;  ///< --pause-for: how long it holds

  // --- Durable state ---
  std::string state_dir;        ///< --state-dir: empty = memory only
  bool resume = false;          ///< --resume (requires --state-dir)
  uint64_t snapshot_every = 0;  ///< --snapshot-every (requires --state-dir)
  /// --rotate-epoch: nonzero rotates this group's key epoch and
  /// redeploys the group.
  uint64_t rotate_group = 0;

  // --- Telemetry and watchdog ---
  std::string metrics_out;        ///< --metrics-out: JSON snapshot path
  double metrics_interval = 1.0;  ///< --metrics-interval, seconds
  std::string trace_out;          ///< --trace-out: span JSONL path
  std::vector<obs::SloSpec> slos; ///< parsed --slo specs
  double slo_interval = 1.0;      ///< --slo-interval, seconds
  bool ack_watchdog = false;      ///< --ack-watchdog (requires --resume)

  // --- Wire transport ---
  /// --listen: serve deliveries over loopback sockets on this port
  /// (0 = ephemeral); empty = the in-process channel.
  std::optional<uint16_t> listen_port;
  size_t sim_clients = 0;  ///< --sim-clients: 0 = one per device

  // --- Chaos soak ---
  /// --soak: the chosen tier, or null for a single campaign.
  const SoakProfile* soak = nullptr;
  uint64_t soak_seed = 0x50A4CA05;  ///< --soak-seed

  // --- Output ---
  std::string json_path;  ///< --json: report path
  bool verbose = false;   ///< --verbose: per-device outcome lines

  /// Flags accepted but without effect in this combination, one line
  /// each, for the daemon to print as warnings.
  std::vector<std::string> warnings;
};

/// Parses eric_fleetd's arguments (argv without the program name).
/// kInvalidArgument names the first defect found.
Result<DaemonConfig> ParseDaemonConfig(const std::vector<std::string>& args);

/// The usage synopsis printed next to a parse error.
const char* DaemonUsage();

/// Identity of a campaign for resume matching: FNV-1a over everything
/// that decides which bytes reach a device (program, encryption policy,
/// seed, channel fault model, retry budget, rotation target, and for
/// delta campaigns the base version). Resuming under a different one is
/// refused, never blended. Worker count, latency, and transport shape
/// only timing and stay out. Journals persist this value, so it must
/// not change across releases.
uint64_t CampaignFingerprint(const DaemonConfig& config,
                             const std::string& source, uint64_t seed,
                             uint64_t rotate_epoch, uint64_t base_version);

}  // namespace eric::fleet
