// Deployment engine: multi-threaded campaigns over the untrusted channel.
//
// A campaign takes one program and a target set (a device group or an
// explicit device list), seals packages through the PackageCache (so a
// single-group campaign encrypts once), and dispatches over net::Channel
// with configurable fault injection, per-device retry, and aggregate
// metrics. Workers overlap delivery latency and per-device HDE work; the
// end-to-end security property is unchanged from the paper — a faulted
// delivery is either retried or reported failed, never silently executed.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/device_registry.h"
#include "fleet/package_cache.h"
#include "net/channel.h"

namespace eric::net {
class DeliveryTransport;
}  // namespace eric::net

namespace eric::fleet {

class DispatchGovernor;

/// Campaign description.
struct CampaignConfig {
  /// EricC source to deploy.
  std::string source;
  /// Which instructions get encrypted (full / partial / field / none).
  core::EncryptionPolicy policy = core::EncryptionPolicy::Full();
  /// Compiler settings; part of the cache address.
  compiler::CompileOptions compile_options;

  /// Target set: every member of `group`, or `devices` when non-empty.
  GroupId group = kNoGroup;
  /// Explicit device targets; overrides `group` when non-empty.
  std::vector<DeviceId> devices;

  /// Worker threads dispatching in parallel.
  size_t workers = 1;
  /// Delivery attempts per device (>= 1).
  uint32_t max_attempts = 1;

  /// Channel model. `fault_rate` is the probability a given delivery
  /// suffers `channel.fault`; the remainder deliver faithfully. Each
  /// attempt draws independently (deterministic in `campaign_seed`).
  net::ChannelConfig channel;
  /// Probability a given delivery suffers `channel.fault`.
  double fault_rate = 0.0;
  /// Simulated one-way transport latency per delivery, microseconds.
  /// Workers overlap this — it is what multi-threading buys on the wire.
  uint32_t delivery_latency_us = 0;

  /// Seeds every per-attempt fault draw and channel RNG stream.
  uint64_t campaign_seed = 0xF1EE7;
  /// First argument passed to the deployed program's entry point.
  uint64_t arg0 = 0;
  /// Second argument passed to the deployed program's entry point.
  uint64_t arg1 = 0;

  /// Optional dispatch throttle/control hook (rate limit, per-group
  /// concurrency budget, pause/cancel). Non-owning; installed by
  /// CampaignScheduler, null for unthrottled campaigns. Workers bracket
  /// every delivery with AdmitDelivery / CompleteDelivery.
  DispatchGovernor* governor = nullptr;

  /// Optional wire transport. Null (the default) delivers through the
  /// in-process net::Channel; non-null routes every delivery over the
  /// transport's real sockets (eric_fleetd --listen installs the epoll
  /// net::FleetServer here). The transport applies the same resolved
  /// per-delivery ChannelConfig at its sending edge, so fault injection
  /// stays deterministic in `campaign_seed` on both paths. Non-owning;
  /// must outlive the campaign.
  net::DeliveryTransport* transport = nullptr;

  /// Deliver deltas where possible: a device whose active slot holds
  /// `delta_base_source`'s version under its current sealing key
  /// receives EncodeDelta(base wire, target wire) instead of the full
  /// package. Every other device — no image, different version,
  /// rotated key, oversized delta, or a patch the device rejects — gets
  /// the full package (see docs/fleet.md for the decision flow).
  bool delta = false;
  /// The previous release's source: what the campaign assumes matching
  /// devices currently run. Required when `delta` is set. Compiled and
  /// sealed through the same cache/policy/options as `source`, so
  /// computing the base wire image is encrypt-once per key.
  std::string delta_base_source;
  /// A delta bigger than this fraction of the full package ships the
  /// full package instead — past this point the patch saves too little
  /// to be worth the extra failure mode.
  double delta_max_fraction = 0.6;
};

/// Per-device campaign outcome.
struct DeviceOutcome {
  DeviceId device = 0;       ///< target device
  bool ok = false;           ///< program delivered, validated, and ran
  bool revoked = false;      ///< skipped: device was revoked
  /// Never dispatched: the campaign was cancelled before this device's
  /// first delivery was admitted.
  bool skipped = false;
  /// The retry loop was cut short by cancellation (attempts may be
  /// nonzero). Not a final outcome: the retry budget was never
  /// exhausted, so checkpoint sinks must leave the target resumable.
  bool cancelled = false;
  uint32_t attempts = 0;     ///< deliveries performed
  /// Of `attempts`, the deliveries that shipped a delta package; the
  /// rest shipped the full package.
  uint32_t delta_attempts = 0;
  /// The successful delivery was a delta package (false for a full
  /// package, and for failed targets).
  bool delta = false;
  /// A delta delivery failed closed (corrupt patch, wrong or missing
  /// base) or was vetoed post-apply by the device's health check, and
  /// the engine fell back to full packages for this target.
  bool delta_fallback = false;
  /// The device's update agent rolled a flip back at least once while
  /// serving this target (health-check failure, or an apply interrupted
  /// by a crash and recovered).
  bool rolled_back = false;
  /// At least one delivery cleared stage/verify/flip and was then
  /// rejected by the post-apply health check.
  bool health_failed = false;
  /// Wire bytes put on the channel for this target, summed over
  /// attempts (pre-fault sizes; what the delta path is minimizing).
  uint64_t bytes_shipped = 0;
  /// What full packages would have cost for the same retry attempts —
  /// the honest denominator of the bytes-on-the-wire win. A
  /// delta-plus-fallback pair counts its attempt's full size once, so a
  /// fallback target reports more bytes shipped than this.
  uint64_t bytes_full_equivalent = 0;
  Status last_status;        ///< final failure (ok() when delivered)
  int64_t exit_code = 0;     ///< program exit code when `ok`
  uint64_t device_cycles = 0;  ///< HDE + execution cycles on the device
  /// Wall time across delivery attempts (excludes the first artifact
  /// build/fetch, so the first device of a fresh campaign is not an
  /// outlier).
  double latency_us = 0;
  /// The target's ISA, as enrolled in the registry. Targets whose
  /// registry lookup failed keep the default (there is no record to
  /// read an ISA from).
  isa::IsaId isa = isa::IsaId::kRv64Gc;
  /// The cache events of this target's own fetches (the `call_stats` of
  /// its GetOrBuild/GetOrBuildDelta calls): a miss (plus a compile miss
  /// when the program was cold) for the target that built an artifact, a
  /// hit for every target served it. A delta-eligible target's base
  /// fetch and a retry's re-fetch count too.
  PackageCacheStats cache;
};

/// One ISA's slice of a campaign. A heterogeneous campaign compiles and
/// seals once per (deployment key, ISA) rather than once per key, so
/// the per-ISA build counts are what the mixed-fleet cost model needs:
/// a 1000-device group split RV64GC/RV32I compiles twice, not 1000
/// times and not once.
struct CampaignIsaStats {
  uint64_t targets = 0;         ///< campaign targets enrolled as this ISA
  uint64_t succeeded = 0;       ///< targets that ran the program
  uint64_t deliveries = 0;      ///< channel deliveries (incl. retries)
  uint64_t bytes_shipped = 0;   ///< wire bytes shipped to this ISA's targets
  uint64_t seal_builds = 0;     ///< sign+encrypt+package runs for this ISA
  uint64_t compile_builds = 0;  ///< compilations performed for this ISA
};

/// The totals of one campaign, or of several folded together: a
/// scheduled rollout's totals are the sum of its waves'. Every count is
/// uint64_t (not size_t) so the totals export through the metrics
/// registry and the JSON reporters without per-platform width surprises.
///
/// Every counter comes from Add(DeviceOutcome) or +=; the cache counters
/// and the per-ISA build counts included, folded from
/// DeviceOutcome::cache.
struct CampaignTotals {
  uint64_t targets = 0;    ///< devices in the campaign's target set
  uint64_t succeeded = 0;  ///< devices that ran the program
  uint64_t failed = 0;     ///< devices whose retry budget never delivered
  uint64_t revoked = 0;    ///< devices skipped as revoked
  /// Devices never dispatched: the campaign was cancelled first, or (in
  /// a scheduled rollout) their wave never launched after a gate abort
  /// or a cancel.
  uint64_t skipped = 0;
  uint64_t deliveries = 0;   ///< total channel deliveries (incl. retries)
  uint64_t retries = 0;      ///< deliveries beyond the first per device
  uint64_t delta_deliveries = 0;  ///< deliveries that shipped a delta
  uint64_t full_deliveries = 0;   ///< deliveries that shipped a full package
  /// Targets where a delta delivery failed closed and the engine fell
  /// back to a full package.
  uint64_t delta_fallbacks = 0;
  /// Wire bytes shipped across all deliveries (pre-fault sizes).
  uint64_t bytes_shipped = 0;
  /// Sum of DeviceOutcome::bytes_full_equivalent: fallback-heavy
  /// campaigns report bytes_shipped above it.
  uint64_t bytes_full_equivalent = 0;
  /// Targets whose device agent rolled back at least one flip (health
  /// failure or crash-recovered apply).
  uint64_t rollbacks = 0;
  /// Targets that saw at least one post-apply health-check rejection.
  uint64_t health_failures = 0;

  /// Cache activity attributable to this campaign (tracked per target,
  /// so concurrent campaigns sharing one cache do not contaminate each
  /// other's counts).
  uint64_t cache_artifact_hits = 0;    ///< sealed artifacts served from cache
  uint64_t cache_artifact_misses = 0;  ///< seal operations performed
  uint64_t cache_compile_misses = 0;   ///< compilations performed

  /// Wall time, measured by whoever ran the campaign (for a scheduled
  /// rollout: every wave plus gate evaluation). Set, never summed.
  double wall_ms = 0;
  /// Peak simultaneously in-flight deliveries, as observed by the
  /// campaign's governor (0 when the campaign ran ungoverned). A governor
  /// shared across waves reports its lifetime peak. Set, never summed.
  uint64_t peak_in_flight = 0;

  /// Per-ISA breakdown, indexed by IsaId. Homogeneous campaigns leave
  /// every slice but one zero; mixed campaigns show each ISA's share of
  /// targets, wire bytes, and (crucially) compile/seal builds.
  std::array<CampaignIsaStats, isa::kNumIsaIds> by_isa{};

  /// Counts one target's outcome into the totals and its ISA's slice.
  void Add(const DeviceOutcome& outcome);
  /// Sums `other`'s counters and per-ISA slices into these totals;
  /// `wall_ms` and `peak_in_flight` are left alone.
  CampaignTotals& operator+=(const CampaignTotals& other);
};

/// One engine campaign: its totals plus one outcome per target.
struct CampaignReport : CampaignTotals {
  std::vector<DeviceOutcome> outcomes;  ///< one entry per target, in order

  /// Trace id of this campaign's span tree, 0 when tracing was off.
  uint64_t trace_id = 0;
};

/// Resolves a campaign's target list: `config.devices` verbatim when
/// non-empty, otherwise the members of `config.group`. kInvalidArgument
/// when neither names a target. Shared by the engine and the scheduler so
/// flat and scheduled campaigns can never resolve different target sets
/// for the same config.
Result<std::vector<DeviceId>> ResolveCampaignTargets(
    const DeviceRegistry& registry, const CampaignConfig& config);

/// Key-independent fingerprint of a deployable program version: SHA-256
/// over source, encryption policy, and compile options, folded to 64
/// bits. This is what a device's slot records and what the delta path
/// compares against its base — two devices in different groups run the
/// same "version" even though their sealed bytes differ.
uint64_t ProgramVersionFingerprint(std::string_view source,
                                   const core::EncryptionPolicy& policy,
                                   const compiler::CompileOptions& options);

/// The engine's per-delivery seed: mixes campaign seed, device, and the
/// delivery ordinal within the target into an independent RNG stream
/// (channel behaviour and the fault draw both derive from it). Exposed
/// so fault-injection tests can predict which deliveries fault without
/// re-implementing the mixing.
uint64_t DeliverySeed(uint64_t campaign_seed, DeviceId device,
                      uint32_t delivery_index);

/// The engine. Stateless across campaigns apart from the shared cache.
class DeploymentEngine {
 public:
  /// Binds the engine to the registry it dispatches through and the
  /// cache it seals with; both must outlive the engine.
  DeploymentEngine(DeviceRegistry& registry, PackageCache& cache)
      : registry_(registry), cache_(cache) {}

  /// Runs one campaign to completion. Fails fast only on configuration
  /// errors (empty target set, unknown group); per-device errors —
  /// including compile failures for unknown keys — land in the report.
  Result<CampaignReport> Run(const CampaignConfig& config);

 private:
  /// What Run derives once per campaign for every target: the version
  /// labels (ProgramVersionFingerprint of `source` and
  /// `delta_base_source`) and each program's cache address per ISA.
  struct CampaignPrograms {
    uint64_t target_version = 0;
    uint64_t base_version = 0;        ///< 0 unless a delta campaign
    std::vector<ProgramAddress> target;  ///< `source`, indexed by IsaId
    std::vector<ProgramAddress> base;    ///< base source; empty unless delta
  };

  /// Deploys to one target, fetching its artifacts from the cache (which
  /// builds each address once, however many targets race on it).
  DeviceOutcome DeployOne(const CampaignConfig& config, DeviceId device,
                          const CampaignPrograms& programs);

  DeviceRegistry& registry_;
  PackageCache& cache_;
};

}  // namespace eric::fleet
