#include "fleet/daemon_config.h"

#include <cstring>
#include <limits>
#include <optional>
#include <type_traits>

#include "store/record_io.h"
#include "support/parse_number.h"

namespace eric::fleet {

namespace {

Status Invalid(std::string message) {
  return Status(ErrorCode::kInvalidArgument, std::move(message));
}

bool ParseFault(const std::string& name, net::ChannelFault* fault) {
  if (name == "none") *fault = net::ChannelFault::kNone;
  else if (name == "bitflips") *fault = net::ChannelFault::kRandomBitFlips;
  else if (name == "bytepatch") *fault = net::ChannelFault::kBytePatch;
  else if (name == "truncate") *fault = net::ChannelFault::kTruncate;
  else if (name == "instrpatch") *fault = net::ChannelFault::kInstructionPatch;
  else if (name == "dup") *fault = net::ChannelFault::kDuplicate;
  else return false;
  return true;
}

}  // namespace

const char* DaemonUsage() {
  return "usage: eric_fleetd --devices N [--groups G] [--workers W]\n"
         "                   [--rv32-every K]\n"
         "                   [--attempts K] [--fault KIND] [--fault-rate P]\n"
         "                   [--latency-us U] [--mode M] [--fraction F]\n"
         "                   [--revoke K] [--source FILE] [--workload NAME]\n"
         "                   [--canary N] [--canary-threshold P]\n"
         "                   [--wave-size N] [--rate R] [--burst B]\n"
         "                   [--group-concurrency N] [--pause-after MS]\n"
         "                   [--pause-for MS] [--shuffle]\n"
         "                   [--state-dir DIR] [--resume] [--snapshot-every N]\n"
         "                   [--rotate-epoch GROUP] [--json FILE] [--verbose]\n"
         "                   [--delta --base-source FILE]\n"
         "                   [--delta --base-workload NAME]\n"
         "                   [--metrics-out FILE] [--metrics-interval SEC]\n"
         "                   [--trace-out FILE]\n"
         "                   [--slo SPEC]... [--slo-interval SEC]\n"
         "                   [--ack-watchdog]\n"
         "                   [--listen PORT [--sim-clients N]]\n"
         "                   [--soak [--soak-profile short|long] "
         "[--soak-seed N]]\n";
}

Result<DaemonConfig> ParseDaemonConfig(const std::vector<std::string>& args) {
  DaemonConfig config;
  // Modifier flags whose defaults depend on other flags: empty until
  // the rules below resolve them.
  std::optional<double> fault_rate, metrics_interval, slo_interval;
  std::optional<double> canary_threshold, burst;
  std::optional<uint32_t> pause_for_ms;
  std::optional<uint64_t> listen_port;
  std::vector<std::string> slo_texts;
  std::string soak_profile;
  bool soak = false;

  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    // Boolean flags.
    bool* toggle = flag == "--shuffle"        ? &config.rollout.shuffle_targets
                   : flag == "--resume"       ? &config.resume
                   : flag == "--delta"        ? &config.delta
                   : flag == "--ack-watchdog" ? &config.ack_watchdog
                   : flag == "--soak"         ? &soak
                   : flag == "--verbose"      ? &config.verbose
                                              : nullptr;
    if (toggle != nullptr) {
      *toggle = true;
      continue;
    }
    // Everything else takes one value.
    if (i + 1 >= args.size()) {
      return Invalid("unknown flag or missing value: " + flag);
    }
    const std::string& value = args[++i];
    // Numbers are refused, never rewritten: a count must fit its field,
    // a real must be finite and non-negative (no flag takes a negative).
    const char* refused = nullptr;
    const auto count = [&](auto* field) {
      using Field = std::remove_pointer_t<decltype(field)>;
      uint64_t n = 0;
      if (!ParseUnsigned(value, &n)) {
        refused = "not a number";
      } else if (n > std::numeric_limits<Field>::max()) {
        refused = "out of range";
      } else {
        *field = static_cast<Field>(n);
      }
    };
    const auto real = [&](double* field) {
      if (!ParseReal(value, field)) {
        refused = "not a number";
      } else if (*field < 0) {
        refused = "out of range";
      }
    };
    if (flag == "--devices") count(&config.devices);
    else if (flag == "--groups") count(&config.groups);
    else if (flag == "--workers") count(&config.workers);
    else if (flag == "--attempts") count(&config.attempts);
    else if (flag == "--latency-us") count(&config.latency_us);
    else if (flag == "--revoke") count(&config.revoke_every);
    else if (flag == "--rv32-every") count(&config.rv32_every);
    else if (flag == "--fault") config.fault_name = value;
    else if (flag == "--fault-rate") real(&fault_rate.emplace());
    else if (flag == "--mode") config.mode = value;
    else if (flag == "--fraction") real(&config.fraction);
    else if (flag == "--source") config.source_path = value;
    else if (flag == "--workload") config.workload_name = value;
    else if (flag == "--base-source") config.base_source_path = value;
    else if (flag == "--base-workload") config.base_workload_name = value;
    else if (flag == "--canary") count(&config.rollout.canary_size);
    else if (flag == "--canary-threshold") real(&canary_threshold.emplace());
    else if (flag == "--wave-size") count(&config.rollout.wave_size);
    else if (flag == "--rate") real(&config.rollout.limits.dispatch_rate);
    else if (flag == "--burst") real(&burst.emplace());
    else if (flag == "--group-concurrency")
      count(&config.rollout.limits.group_concurrency);
    else if (flag == "--pause-after") count(&config.pause_after_ms);
    else if (flag == "--pause-for") count(&pause_for_ms.emplace());
    else if (flag == "--state-dir") config.state_dir = value;
    else if (flag == "--snapshot-every") count(&config.snapshot_every);
    else if (flag == "--rotate-epoch") count(&config.rotate_group);
    else if (flag == "--metrics-out") config.metrics_out = value;
    else if (flag == "--metrics-interval") real(&metrics_interval.emplace());
    else if (flag == "--trace-out") config.trace_out = value;
    else if (flag == "--slo") slo_texts.push_back(value);
    else if (flag == "--slo-interval") real(&slo_interval.emplace());
    else if (flag == "--soak-profile") soak_profile = value;
    else if (flag == "--soak-seed") count(&config.soak_seed);
    else if (flag == "--listen") count(&listen_port.emplace());
    else if (flag == "--sim-clients") count(&config.sim_clients);
    else if (flag == "--json") config.json_path = value;
    else return Invalid("unknown flag: " + flag);
    if (refused != nullptr) {
      return Invalid(flag + ": " + refused + ": " + value);
    }
  }

  if (soak) {
    if (soak_profile.empty() || soak_profile == "short") {
      config.soak = &kSoakShort;
    } else if (soak_profile == "long") {
      config.soak = &kSoakLong;
    } else {
      return Invalid("--soak-profile must be short or long");
    }
    // The soak exists to prove the durable fleet + slot manifests
    // survive chaos; a memory-only soak would test a different system.
    if (config.state_dir.empty()) {
      return Invalid("--soak requires --state-dir DIR");
    }
    if (config.resume || config.rotate_group != 0 || config.delta) {
      return Invalid("--soak drives its own campaigns; drop --resume/"
                     "--rotate-epoch/--delta");
    }
    // The soak has no single campaign for a breach policy to act on and
    // no wire leg for its chaos model to attach to.
    if (!slo_texts.empty()) {
      return Invalid("--slo cannot be combined with --soak");
    }
    if (listen_port) {
      return Invalid("--listen cannot be combined with --soak");
    }
    // --devices/--groups still override the profile's fleet size.
    if (config.devices == 0) config.devices = config.soak->devices;
    if (config.groups == 1) config.groups = config.soak->groups;
  }
  if (config.devices == 0 || config.groups == 0) {
    return Invalid("--devices and --groups must be positive");
  }
  // Silently ignoring --resume would re-deliver a whole interrupted
  // campaign from scratch.
  if (config.state_dir.empty() &&
      (config.resume || config.snapshot_every > 0)) {
    return Invalid("--resume/--snapshot-every require --state-dir DIR");
  }
  if (config.ack_watchdog && !config.resume) {
    return Invalid("--ack-watchdog requires --resume");
  }

  if (config.delta && config.base_source_path.empty() &&
      config.base_workload_name.empty()) {
    return Invalid("--delta requires the previous release: --base-source "
                   "FILE or --base-workload NAME");
  }
  if (!config.delta && (!config.base_source_path.empty() ||
                        !config.base_workload_name.empty())) {
    return Invalid("--base-source/--base-workload require --delta");
  }
  // A rotation re-seals the SAME build under a new key: there is no older
  // version to diff from, and the rotated HDEs could not decrypt a
  // retained stale-epoch base anyway.
  if (config.delta && config.rotate_group != 0) {
    return Invalid("--delta cannot be combined with --rotate-epoch");
  }

  if (config.mode == "full") {
    config.policy = core::EncryptionPolicy::Full();
  } else if (config.mode == "partial") {
    config.policy = core::EncryptionPolicy::PartialRandom(config.fraction);
  } else if (config.mode == "field") {
    config.policy = core::EncryptionPolicy::FieldLevelPointers();
    config.compile_options.compress = false;  // rules address 32-bit encodings
  } else if (config.mode == "none") {
    config.policy = core::EncryptionPolicy::None();
  } else {
    return Invalid("--mode must be full, partial, field, or none");
  }
  if (!ParseFault(config.fault_name, &config.fault)) {
    return Invalid("--fault must be none, bitflips, bytepatch, truncate, "
                   "instrpatch, or dup");
  }
  if (fault_rate > 1.0) return Invalid("--fault-rate must be in [0, 1]");
  config.fault_rate = fault_rate.value_or(
      config.fault == net::ChannelFault::kNone ? 0.0 : 1.0);

  // Telemetry and watchdog modifiers without their activating flag would
  // silently measure nothing; a malformed spec fails with the parser's
  // diagnosis instead of arming a watchdog that watches nothing.
  if (config.metrics_out.empty() && metrics_interval) {
    return Invalid("--metrics-interval requires --metrics-out FILE");
  }
  if (metrics_interval) config.metrics_interval = *metrics_interval;
  for (const auto& text : slo_texts) {
    auto parsed = obs::ParseSloSpec(text);
    if (!parsed.ok()) {
      return Invalid("--slo " + text + ": " + parsed.status().ToString());
    }
    config.slos.push_back(std::move(*parsed));
  }
  if (config.slos.empty() && slo_interval) {
    return Invalid("--slo-interval requires at least one --slo SPEC");
  }
  if (slo_interval) config.slo_interval = *slo_interval;

  if (listen_port > 65535) {
    return Invalid("--listen PORT must be 0..65535 (0 = ephemeral)");
  }
  if (listen_port) config.listen_port = static_cast<uint16_t>(*listen_port);
  if (config.sim_clients > 0 && !config.listen_port) {
    return Invalid("--sim-clients requires --listen PORT");
  }

  // Rollout modifiers. Each takes effect only next to the flag it
  // modifies; alone it is accepted with a warning.
  if (canary_threshold > 1.0) {
    return Invalid("--canary-threshold must be in [0, 1]");
  }
  config.rollout.canary_failure_threshold = canary_threshold.value_or(0.1);
  config.rollout.limits.dispatch_burst = burst.value_or(1.0);
  config.pause_for_ms = pause_for_ms.value_or(config.pause_for_ms);
  const auto unused = [&](bool given, bool activated, const char* modifier,
                          const char* activator) {
    if (given && !activated) {
      config.warnings.push_back(std::string(modifier) +
                                " has no effect without " + activator);
    }
  };
  unused(canary_threshold.has_value(), config.rollout.canary_size > 0,
         "--canary-threshold", "--canary");
  unused(burst.has_value(), config.rollout.limits.dispatch_rate > 0,
         "--burst", "--rate");
  unused(pause_for_ms.has_value(), config.pause_after_ms > 0, "--pause-for",
         "--pause-after");
  return config;
}

uint64_t CampaignFingerprint(const DaemonConfig& config,
                             const std::string& source, uint64_t seed,
                             uint64_t rotate_epoch, uint64_t base_version) {
  store::RecordWriter rec;
  // A rotation campaign is a different campaign from a plain deployment
  // of the same program: the target epoch decides the bytes sealed.
  rec.U64(config.rotate_group);
  rec.U64(rotate_epoch);
  rec.Str(source);
  rec.Str(config.mode);
  uint64_t fraction_bits;
  static_assert(sizeof(fraction_bits) == sizeof(config.fraction));
  std::memcpy(&fraction_bits, &config.fraction, sizeof(fraction_bits));
  rec.U64(fraction_bits);
  rec.U64(seed);
  rec.Str(config.fault_name);
  uint64_t fault_rate_bits;
  std::memcpy(&fault_rate_bits, &config.fault_rate, sizeof(fault_rate_bits));
  rec.U64(fault_rate_bits);
  rec.U32(config.attempts);
  // Appended only for delta campaigns so plain campaigns keep their
  // pre-delta fingerprints (their interrupted journals stay resumable).
  // A delta campaign over a different base is a different campaign.
  if (config.delta) {
    rec.U8(1);
    rec.U64(base_version);
  }
  return store::Fnv1a64(rec.bytes());
}

}  // namespace eric::fleet
