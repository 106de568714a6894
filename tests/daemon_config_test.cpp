// eric_fleetd's flag parsing: derived defaults, the flag-conflict
// matrix, and the resume fingerprint that interrupted journals persist.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fleet/daemon_config.h"

namespace eric::fleet {
namespace {

using Args = std::vector<std::string>;

DaemonConfig Parse(const Args& args) {
  auto parsed = ParseDaemonConfig(args);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ok() ? *parsed : DaemonConfig{};
}

TEST(DaemonConfigTest, DefaultsDescribeOneUnthrottledWave) {
  const DaemonConfig config = Parse({"--devices", "4"});
  EXPECT_EQ(config.devices, 4u);
  EXPECT_EQ(config.groups, 1u);
  EXPECT_EQ(config.workers, 4u);
  EXPECT_EQ(config.attempts, 1u);
  EXPECT_EQ(config.workload_name, "crc32");
  EXPECT_EQ(config.mode, "partial");
  EXPECT_EQ(config.policy.mode, pkg::EncryptionMode::kPartial);
  EXPECT_TRUE(config.compile_options.compress);
  EXPECT_EQ(config.fault, net::ChannelFault::kNone);
  EXPECT_EQ(config.fault_rate, 0.0);
  EXPECT_EQ(config.rollout.canary_size, 0u);
  EXPECT_EQ(config.rollout.wave_size, 0u);
  EXPECT_EQ(config.rollout.canary_failure_threshold, 0.1);
  EXPECT_LT(config.rollout.wave_failure_threshold, 0.0);
  EXPECT_EQ(config.rollout.limits.dispatch_rate, 0.0);
  EXPECT_EQ(config.rollout.limits.dispatch_burst, 1.0);
  EXPECT_FALSE(config.rollout.shuffle_targets);
  EXPECT_EQ(config.pause_after_ms, 0u);
  EXPECT_EQ(config.pause_for_ms, 250u);
  EXPECT_EQ(config.metrics_interval, 1.0);
  EXPECT_EQ(config.slo_interval, 1.0);
  EXPECT_FALSE(config.listen_port.has_value());
  EXPECT_EQ(config.soak, nullptr);
  EXPECT_TRUE(config.warnings.empty());
}

TEST(DaemonConfigTest, NamedFaultWithoutRateFaultsEveryDelivery) {
  EXPECT_EQ(Parse({"--devices", "4", "--fault", "bitflips"}).fault_rate, 1.0);
  const DaemonConfig explicit_rate =
      Parse({"--devices", "4", "--fault", "truncate", "--fault-rate", "0.25"});
  EXPECT_EQ(explicit_rate.fault, net::ChannelFault::kTruncate);
  EXPECT_EQ(explicit_rate.fault_rate, 0.25);
}

TEST(DaemonConfigTest, ModeResolvesPolicyAndCompileOptions) {
  const DaemonConfig field = Parse({"--devices", "4", "--mode", "field"});
  EXPECT_EQ(field.policy.mode, pkg::EncryptionMode::kField);
  EXPECT_FALSE(field.compile_options.compress);
  EXPECT_EQ(Parse({"--devices", "4", "--mode", "full"}).policy.mode,
            pkg::EncryptionMode::kFull);
  EXPECT_EQ(Parse({"--devices", "4", "--mode", "none"}).policy.mode,
            pkg::EncryptionMode::kNone);
}

TEST(DaemonConfigTest, SoakProfileSizesTheFleetUnlessOverridden) {
  const DaemonConfig soak = Parse({"--soak", "--state-dir", "d"});
  ASSERT_EQ(soak.soak, &kSoakShort);
  EXPECT_EQ(soak.devices, kSoakShort.devices);
  EXPECT_EQ(soak.groups, kSoakShort.groups);
  const DaemonConfig sized =
      Parse({"--soak", "--soak-profile", "long", "--state-dir", "d",
             "--devices", "7", "--groups", "3", "--soak-seed", "0x10"});
  EXPECT_EQ(sized.soak, &kSoakLong);
  EXPECT_EQ(sized.devices, 7u);
  EXPECT_EQ(sized.groups, 3u);
  EXPECT_EQ(sized.soak_seed, 16u);
}

TEST(DaemonConfigTest, EveryFlagLandsInItsField) {
  const DaemonConfig config = Parse(
      {"--devices", "9", "--groups", "3", "--workers", "2", "--attempts", "5",
       "--latency-us", "7", "--revoke", "4", "--rv32-every", "3",
       "--source", "p.eric", "--canary", "2", "--canary-threshold", "0.5",
       "--wave-size", "3", "--rate", "100", "--burst", "4",
       "--group-concurrency", "2", "--pause-after", "10", "--pause-for", "20",
       "--shuffle", "--state-dir", "d", "--resume", "--snapshot-every", "8",
       "--rotate-epoch", "1", "--metrics-out", "m.json",
       "--metrics-interval", "0.5", "--trace-out", "t.jsonl", "--slo",
       "ratio(fleet_delivery_failures,fleet_delivery_attempts)<0.05@30s:pause",
       "--slo-interval", "0.2", "--ack-watchdog", "--listen", "0",
       "--sim-clients", "12", "--json", "r.json", "--verbose"});
  EXPECT_EQ(config.devices, 9u);
  EXPECT_EQ(config.groups, 3u);
  EXPECT_EQ(config.workers, 2u);
  EXPECT_EQ(config.attempts, 5u);
  EXPECT_EQ(config.latency_us, 7u);
  EXPECT_EQ(config.revoke_every, 4u);
  EXPECT_EQ(config.rv32_every, 3u);
  EXPECT_EQ(config.source_path, "p.eric");
  EXPECT_EQ(config.rollout.canary_size, 2u);
  EXPECT_EQ(config.rollout.canary_failure_threshold, 0.5);
  EXPECT_EQ(config.rollout.wave_size, 3u);
  EXPECT_EQ(config.rollout.limits.dispatch_rate, 100.0);
  EXPECT_EQ(config.rollout.limits.dispatch_burst, 4.0);
  EXPECT_EQ(config.rollout.limits.group_concurrency, 2u);
  EXPECT_TRUE(config.rollout.shuffle_targets);
  EXPECT_EQ(config.pause_after_ms, 10u);
  EXPECT_EQ(config.pause_for_ms, 20u);
  EXPECT_EQ(config.state_dir, "d");
  EXPECT_TRUE(config.resume);
  EXPECT_EQ(config.snapshot_every, 8u);
  EXPECT_EQ(config.rotate_group, 1u);
  EXPECT_EQ(config.metrics_out, "m.json");
  EXPECT_EQ(config.metrics_interval, 0.5);
  EXPECT_EQ(config.trace_out, "t.jsonl");
  ASSERT_EQ(config.slos.size(), 1u);
  EXPECT_EQ(config.slos[0].policy, obs::BreachPolicy::kPause);
  EXPECT_EQ(config.slo_interval, 0.2);
  EXPECT_TRUE(config.ack_watchdog);
  ASSERT_TRUE(config.listen_port.has_value());
  EXPECT_EQ(*config.listen_port, 0u);
  EXPECT_EQ(config.sim_clients, 12u);
  EXPECT_EQ(config.json_path, "r.json");
  EXPECT_TRUE(config.verbose);
  EXPECT_TRUE(config.warnings.empty());
}

TEST(DaemonConfigTest, ModifiersWithoutTheirFlagWarn) {
  const DaemonConfig config =
      Parse({"--devices", "4", "--canary-threshold", "0.3", "--burst", "2",
             "--pause-for", "100"});
  ASSERT_EQ(config.warnings.size(), 3u);
  EXPECT_NE(config.warnings[0].find("--canary"), std::string::npos);
  EXPECT_NE(config.warnings[1].find("--rate"), std::string::npos);
  EXPECT_NE(config.warnings[2].find("--pause-after"), std::string::npos);
}

TEST(DaemonConfigTest, NumbersAtTheirFieldsLimitsAreKept) {
  const DaemonConfig config =
      Parse({"--devices", "4", "--attempts", "4294967295", "--pause-after",
             "1", "--pause-for", "4294967295", "--listen", "65535", "--fault",
             "bitflips", "--fault-rate", "0", "--canary", "1",
             "--canary-threshold", "1"});
  EXPECT_EQ(config.attempts, 4294967295u);
  EXPECT_EQ(config.pause_for_ms, 4294967295u);
  ASSERT_TRUE(config.listen_port.has_value());
  EXPECT_EQ(*config.listen_port, 65535u);
  // A given 0 is kept, not replaced by the named fault's default of 1.
  EXPECT_EQ(config.fault_rate, 0.0);
  EXPECT_EQ(config.rollout.canary_failure_threshold, 1.0);
}

/// One refused invocation and a fragment of the refusal message.
struct Conflict {
  Args args;
  const char* message;
};

class DaemonConflictTest : public ::testing::TestWithParam<Conflict> {};

TEST_P(DaemonConflictTest, Refused) {
  auto parsed = ParseDaemonConfig(GetParam().args);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find(GetParam().message),
            std::string::npos)
      << parsed.status().message();
}

const Conflict kConflicts[] = {
    {{}, "--devices and --groups must be positive"},
    {{"--devices", "0"}, "must be positive"},
    {{"--devices", "4", "--groups", "0"}, "must be positive"},
    {{"--devices", "4", "--bogus", "1"}, "unknown flag: --bogus"},
    {{"--devices"}, "missing value: --devices"},
    {{"--devices", "12x"}, "not a number"},
    {{"--devices", "-1"}, "not a number"},
    {{"--devices", "4", "--fault-rate", "high"}, "not a number"},
    {{"--devices", "4", "--resume"}, "require --state-dir"},
    {{"--devices", "4", "--snapshot-every", "3"}, "require --state-dir"},
    {{"--devices", "4", "--state-dir", "d", "--ack-watchdog"},
     "--ack-watchdog requires --resume"},
    {{"--devices", "4", "--delta"}, "--delta requires the previous release"},
    {{"--devices", "4", "--base-workload", "crc32"}, "require --delta"},
    {{"--devices", "4", "--base-source", "v1.eric"}, "require --delta"},
    {{"--devices", "4", "--delta", "--base-workload", "crc32",
      "--rotate-epoch", "1"},
     "--delta cannot be combined with --rotate-epoch"},
    {{"--devices", "4", "--mode", "half"}, "--mode must be"},
    {{"--devices", "4", "--fault", "gremlins"}, "--fault must be"},
    {{"--devices", "4", "--metrics-interval", "1"},
     "--metrics-interval requires --metrics-out"},
    {{"--devices", "4", "--slo", "nonsense"}, "--slo nonsense"},
    {{"--devices", "4", "--slo-interval", "1"},
     "--slo-interval requires at least one --slo"},
    {{"--devices", "4", "--listen", "65536"}, "--listen PORT must be"},
    // Numbers a field cannot hold are refused, never wrapped or defaulted.
    {{"--devices", "4", "--attempts", "4294967297"},
     "--attempts: out of range"},
    {{"--devices", "4", "--pause-after", "5", "--pause-for",
      "18446744073709551615"},
     "--pause-for: out of range"},
    {{"--devices", "4", "--listen", "18446744073709551615"},
     "--listen PORT must be"},
    {{"--devices", "18446744073709551616"}, "--devices: not a number"},
    {{"--devices", "4", "--fault-rate", "nan"}, "--fault-rate: not a number"},
    {{"--devices", "4", "--fault-rate", "inf"}, "--fault-rate: not a number"},
    {{"--devices", "4", "--fault-rate", "-0.5"}, "--fault-rate: out of range"},
    {{"--devices", "4", "--fault-rate", "7"}, "--fault-rate must be in [0, 1]"},
    {{"--devices", "4", "--canary", "2", "--canary-threshold", "1.5"},
     "--canary-threshold must be in [0, 1]"},
    {{"--devices", "4", "--rate", "-inf"}, "--rate: not a number"},
    {{"--devices", "4", "--metrics-out", "m", "--metrics-interval", "-1"},
     "--metrics-interval: out of range"},
    {{"--devices", "4", "--sim-clients", "10"},
     "--sim-clients requires --listen"},
    {{"--soak"}, "--soak requires --state-dir"},
    {{"--soak", "--state-dir", "d", "--soak-profile", "medium"},
     "--soak-profile must be short or long"},
    {{"--soak", "--state-dir", "d", "--resume"}, "drives its own campaigns"},
    {{"--soak", "--state-dir", "d", "--rotate-epoch", "1"},
     "drives its own campaigns"},
    {{"--soak", "--state-dir", "d", "--delta", "--base-workload", "crc32"},
     "drives its own campaigns"},
    {{"--soak", "--state-dir", "d", "--slo",
      "ratio(fleet_delivery_failures,fleet_delivery_attempts)<0.05@30s"},
     "--slo cannot be combined with --soak"},
    {{"--soak", "--state-dir", "d", "--listen", "0"},
     "--listen cannot be combined with --soak"},
};

INSTANTIATE_TEST_SUITE_P(Matrix, DaemonConflictTest,
                         ::testing::ValuesIn(kConflicts));

TEST(CampaignFingerprintTest, CoversExactlyTheBytesThatReachDevices) {
  const DaemonConfig base = Parse({"--devices", "4", "--state-dir", "d"});
  const uint64_t reference = CampaignFingerprint(base, "src", 7, 0, 0);
  EXPECT_EQ(CampaignFingerprint(base, "src", 7, 0, 0), reference);

  // Timing-only knobs stay out of the identity.
  EXPECT_EQ(CampaignFingerprint(
                Parse({"--devices", "9", "--state-dir", "d", "--workers", "1",
                       "--latency-us", "500", "--listen", "0"}),
                "src", 7, 0, 0),
            reference);

  // Everything that decides the delivered bytes is in it.
  EXPECT_NE(CampaignFingerprint(base, "other", 7, 0, 0), reference);
  EXPECT_NE(CampaignFingerprint(base, "src", 8, 0, 0), reference);
  for (const Args& changed : std::vector<Args>{
           {"--mode", "full"},
           {"--fraction", "0.25"},
           {"--fault", "bitflips"},
           {"--fault", "bitflips", "--fault-rate", "0.5"},
           {"--attempts", "2"},
           {"--rotate-epoch", "1"},
       }) {
    Args args = {"--devices", "4", "--state-dir", "d"};
    args.insert(args.end(), changed.begin(), changed.end());
    EXPECT_NE(CampaignFingerprint(Parse(args), "src", 7, 0, 0), reference)
        << changed[0];
  }
  EXPECT_NE(CampaignFingerprint(base, "src", 7, 2, 0), reference);

  // The base version counts for delta campaigns only, so plain journals
  // keep their pre-delta fingerprints.
  EXPECT_EQ(CampaignFingerprint(base, "src", 7, 0, 99), reference);
  const DaemonConfig delta = Parse({"--devices", "4", "--state-dir", "d",
                                    "--delta", "--base-workload", "crc32"});
  EXPECT_NE(CampaignFingerprint(delta, "src", 7, 0, 99),
            CampaignFingerprint(delta, "src", 7, 0, 98));
}

TEST(CampaignFingerprintTest, StableAcrossReleases) {
  // Interrupted journals persist this value; a change here makes every
  // campaign checkpointed by an older daemon refuse to resume.
  EXPECT_EQ(CampaignFingerprint(Parse({"--devices", "4"}), "fn main() {}",
                                0xF1EE7, 0, 0),
            16001491278913581319ull);
}

}  // namespace
}  // namespace eric::fleet
