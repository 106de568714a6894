// Channel tests + the end-to-end property: no channel fault yields
// misexecution — every delivery either runs the exact signed program or is
// rejected by the HDE.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

#include "core/encryption_policy.h"
#include "core/software_source.h"
#include "core/trusted_execution.h"
#include "net/channel.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/sim_client.h"
#include "pkg/delta.h"
#include "workloads/workloads.h"

namespace eric::net {
namespace {

TEST(ChannelTest, FaithfulDeliveryByDefault) {
  Channel channel;
  const std::vector<uint8_t> bytes = {1, 2, 3, 4, 5};
  EXPECT_EQ(channel.Deliver(bytes), bytes);
  EXPECT_EQ(channel.last_delivery().mutations, 0u);
}

TEST(ChannelTest, BitFlipsChangeExactlyNBits) {
  ChannelConfig config;
  config.fault = ChannelFault::kRandomBitFlips;
  config.bit_flips = 3;
  Channel channel(config);
  const std::vector<uint8_t> original(256, 0);
  const auto delivered = channel.Deliver(original);
  int flipped = 0;
  for (size_t i = 0; i < original.size(); ++i) {
    flipped += std::popcount(static_cast<unsigned>(original[i] ^ delivered[i]));
  }
  EXPECT_EQ(flipped, 3);
}

// Flips land on distinct bits, so none can cancel another: the delivered
// body differs from the sent one in exactly `bit_flips` bits, on every
// seed. Small bodies make colliding draws common.
TEST(ChannelTest, BitFlipsNeverCancel) {
  const std::vector<uint8_t> original = {0x00, 0xFF, 0x5A, 0xA5,
                                         0x0F, 0xF0, 0x33, 0xCC};
  for (uint64_t seed = 0; seed < 10000; ++seed) {
    ChannelConfig config;
    config.fault = ChannelFault::kRandomBitFlips;
    config.bit_flips = 4;
    config.seed = seed;
    Channel channel(config);
    const auto delivered = channel.Deliver(original);
    ASSERT_EQ(delivered.size(), original.size());
    int flipped = 0;
    for (size_t i = 0; i < original.size(); ++i) {
      flipped +=
          std::popcount(static_cast<unsigned>(original[i] ^ delivered[i]));
    }
    ASSERT_EQ(flipped, 4) << "seed " << seed;
    ASSERT_EQ(channel.last_delivery().mutations, 4u) << "seed " << seed;
  }
  // More flips than the body has bits flip every bit once.
  ChannelConfig config;
  config.fault = ChannelFault::kRandomBitFlips;
  config.bit_flips = 100;
  Channel channel(config);
  EXPECT_EQ(channel.Deliver({0x00, 0x00}),
            (std::vector<uint8_t>{0xFF, 0xFF}));
  EXPECT_EQ(channel.last_delivery().mutations, 16u);
}

TEST(ChannelTest, BytePatchWritesRange) {
  ChannelConfig config;
  config.fault = ChannelFault::kBytePatch;
  config.patch_offset = 4;
  config.patch_length = 3;
  config.patch_value = 0xAB;
  Channel channel(config);
  const auto delivered = channel.Deliver(std::vector<uint8_t>(16, 0));
  EXPECT_EQ(delivered[4], 0xAB);
  EXPECT_EQ(delivered[6], 0xAB);
  EXPECT_EQ(delivered[3], 0x00);
  EXPECT_EQ(delivered[7], 0x00);
}

TEST(ChannelTest, BytePatchStraddlingTailClampsAndCountsOverlap) {
  ChannelConfig config;
  config.fault = ChannelFault::kBytePatch;
  config.patch_offset = 14;  // window [14, 18) over a 16-byte body
  config.patch_length = 4;
  config.patch_value = 0xAB;
  Channel channel(config);
  const auto delivered = channel.Deliver(std::vector<uint8_t>(16, 0));
  ASSERT_EQ(delivered.size(), 16u);
  EXPECT_EQ(delivered[13], 0x00);
  EXPECT_EQ(delivered[14], 0xAB);
  EXPECT_EQ(delivered[15], 0xAB);
  // The record reports the bytes actually mutated, not the nominal window.
  EXPECT_EQ(channel.last_delivery().mutations, 2u);
}

TEST(ChannelTest, PatchAtOrPastTailMutatesNothing) {
  for (const ChannelFault fault :
       {ChannelFault::kBytePatch, ChannelFault::kInstructionPatch}) {
    for (const size_t offset : {size_t{16}, size_t{1000}}) {
      ChannelConfig config;
      config.fault = fault;
      config.patch_offset = offset;
      config.patch_value = 0xAB;
      Channel channel(config);
      const std::vector<uint8_t> original(16, 0);
      EXPECT_EQ(channel.Deliver(original), original)
          << ChannelFaultName(fault) << " offset " << offset;
      EXPECT_EQ(channel.last_delivery().mutations, 0u);
    }
  }
}

TEST(ChannelTest, PatchOffsetNearSizeMaxDoesNotWrapOntoPrefix) {
  // Regression: patch_offset + i used to be computed before the bounds
  // check, so an offset near SIZE_MAX wrapped around and patched the
  // front of the body — a mutation at an address the config never named.
  for (const ChannelFault fault :
       {ChannelFault::kBytePatch, ChannelFault::kInstructionPatch}) {
    ChannelConfig config;
    config.fault = fault;
    config.patch_offset = std::numeric_limits<size_t>::max() - 1;
    config.patch_length = 4;
    config.patch_value = 0xAB;
    Channel channel(config);
    const std::vector<uint8_t> original(16, 0);
    EXPECT_EQ(channel.Deliver(original), original) << ChannelFaultName(fault);
    EXPECT_EQ(channel.last_delivery().mutations, 0u);
  }
}

TEST(ChannelTest, InstructionPatchStraddlingTailClampsAndCountsOverlap) {
  ChannelConfig config;
  config.fault = ChannelFault::kInstructionPatch;
  config.patch_offset = 15;  // one byte of the 4-byte instruction fits
  Channel channel(config);
  const auto delivered = channel.Deliver(std::vector<uint8_t>(16, 0xFF));
  ASSERT_EQ(delivered.size(), 16u);
  EXPECT_EQ(delivered[14], 0xFF);
  EXPECT_EQ(delivered[15], 0x13);  // first injected byte only
  EXPECT_EQ(channel.last_delivery().mutations, 1u);
}

TEST(ChannelTest, TruncateDropsTail) {
  ChannelConfig config;
  config.fault = ChannelFault::kTruncate;
  config.truncate_bytes = 10;
  Channel channel(config);
  EXPECT_EQ(channel.Deliver(std::vector<uint8_t>(64, 1)).size(), 54u);
}

TEST(ChannelTest, DuplicateDoubles) {
  ChannelConfig config;
  config.fault = ChannelFault::kDuplicate;
  Channel channel(config);
  EXPECT_EQ(channel.Deliver(std::vector<uint8_t>(10, 2)).size(), 20u);
}

TEST(ChannelTest, EveryFaultHasName) {
  for (int f = 0; f <= static_cast<int>(ChannelFault::kDuplicate); ++f) {
    EXPECT_NE(ChannelFaultName(static_cast<ChannelFault>(f)), "unknown");
  }
}

TEST(ChannelTest, DuplicateOfLargeBodyIsExactConcatenation) {
  // Regression: kDuplicate used to insert the body into itself, which
  // reads from the vector being reallocated once the body is large
  // enough. The replay must be exactly body || body.
  ChannelConfig config;
  config.fault = ChannelFault::kDuplicate;
  Channel channel(config);
  std::vector<uint8_t> body(4096);
  for (size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  const auto delivered = channel.Deliver(body);
  ASSERT_EQ(delivered.size(), 2 * body.size());
  EXPECT_TRUE(std::equal(body.begin(), body.end(), delivered.begin()));
  EXPECT_TRUE(
      std::equal(body.begin(), body.end(), delivered.begin() + body.size()));
  EXPECT_EQ(channel.last_delivery().mutations, body.size());
}

// --- Frame codec ---------------------------------------------------------------

std::vector<uint8_t> TestPayload(size_t n, uint8_t salt = 0) {
  std::vector<uint8_t> payload(n);
  for (size_t i = 0; i < n; ++i) {
    payload[i] = static_cast<uint8_t>(i * 13 + salt);
  }
  return payload;
}

TEST(FrameTest, RoundTrip) {
  const auto payload = TestPayload(300);
  const auto wire = EncodeFrame(FrameType::kDispatch, 42, payload);
  EXPECT_EQ(wire.size(), kFrameOverheadBytes + payload.size());

  FrameDecoder decoder;
  decoder.Feed(wire);
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kDispatch);
  EXPECT_EQ(frame->seq, 42u);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_EQ(decoder.frames_decoded(), 1u);
  EXPECT_EQ(decoder.resyncs(), 0u);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameTest, EmptyPayloadRoundTrips) {
  FrameDecoder decoder;
  decoder.Feed(EncodeFrame(FrameType::kPing, 7, {}));
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kPing);
  EXPECT_TRUE(frame->payload.empty());
}

TEST(FrameTest, ByteAtATimeFeedStillDecodes) {
  const auto payload = TestPayload(65);
  const auto wire = EncodeFrame(FrameType::kDelivered, 9, payload);
  FrameDecoder decoder;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    decoder.Feed(std::span<const uint8_t>(&wire[i], 1));
    EXPECT_FALSE(decoder.Next().has_value()) << "byte " << i;
  }
  decoder.Feed(std::span<const uint8_t>(&wire.back(), 1));
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, payload);
}

TEST(FrameTest, MultipleFramesPerFeed) {
  std::vector<uint8_t> wire;
  for (uint32_t seq = 1; seq <= 5; ++seq) {
    AppendFrame(wire, FrameType::kDispatch, seq, TestPayload(seq * 10));
  }
  FrameDecoder decoder;
  decoder.Feed(wire);
  for (uint32_t seq = 1; seq <= 5; ++seq) {
    auto frame = decoder.Next();
    ASSERT_TRUE(frame.has_value()) << "frame " << seq;
    EXPECT_EQ(frame->seq, seq);
    EXPECT_EQ(frame->payload.size(), seq * 10);
  }
  EXPECT_FALSE(decoder.Next().has_value());
}

TEST(FrameTest, GarbagePrefixIsOneResyncEpisode) {
  std::vector<uint8_t> wire(37, 0xAA);  // no magic anywhere
  const auto payload = TestPayload(20);
  AppendFrame(wire, FrameType::kDispatch, 3, payload);
  FrameDecoder decoder;
  decoder.Feed(wire);
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, payload);
  EXPECT_EQ(decoder.resyncs(), 1u);  // one contiguous corrupt run
  EXPECT_EQ(decoder.bytes_discarded(), 37u);
}

TEST(FrameTest, CrcCorruptionRejectedThenResyncs) {
  const auto payload = TestPayload(64);
  auto corrupt = EncodeFrame(FrameType::kDispatch, 1, payload);
  corrupt[kFrameHeaderBytes + 10] ^= 0x40;  // flip one payload bit
  std::vector<uint8_t> wire = corrupt;
  const auto good = TestPayload(32, 0x5A);
  AppendFrame(wire, FrameType::kDispatch, 2, good);

  FrameDecoder decoder;
  decoder.Feed(wire);
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());  // the corrupt frame never surfaces
  EXPECT_EQ(frame->seq, 2u);
  EXPECT_EQ(frame->payload, good);
  EXPECT_EQ(decoder.crc_errors(), 1u);
  EXPECT_EQ(decoder.resyncs(), 1u);
  EXPECT_EQ(decoder.frames_decoded(), 1u);
}

TEST(FrameTest, TornFrameCostsOnlyItsBytes) {
  // A frame whose tail never arrives (peer died mid-write) must not
  // poison the stream: the next intact frame decodes.
  auto torn = EncodeFrame(FrameType::kDispatch, 1, TestPayload(100));
  torn.resize(torn.size() - 11);  // lose part of payload + CRC
  std::vector<uint8_t> wire = torn;
  const auto good = TestPayload(40, 0x77);
  AppendFrame(wire, FrameType::kDispatch, 2, good);

  FrameDecoder decoder;
  decoder.Feed(wire);
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->seq, 2u);
  EXPECT_EQ(frame->payload, good);
  EXPECT_GE(decoder.resyncs(), 1u);
}

TEST(FrameTest, OversizeLengthIsCorruptionNotAllocation) {
  // A header claiming a payload beyond kMaxFramePayload must be skipped
  // as corruption, not buffered for (that is how a bad length would
  // otherwise stall the connection forever or balloon memory).
  std::vector<uint8_t> wire = {kFrameMagic0, kFrameMagic1, kFrameVersion,
                               static_cast<uint8_t>(FrameType::kDispatch),
                               0,    0,    0,    0,
                               0xFF, 0xFF, 0xFF, 0xFF};  // 4 GiB claimed
  const auto good = TestPayload(16);
  AppendFrame(wire, FrameType::kPing, 5, good);
  FrameDecoder decoder;
  decoder.Feed(wire);
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->seq, 5u);
  EXPECT_EQ(decoder.resyncs(), 1u);
}

TEST(FrameTest, UnknownVersionAndTypeResync) {
  std::vector<uint8_t> wire;
  AppendFrame(wire, FrameType::kDispatch, 1, TestPayload(8));
  wire[2] = kFrameVersion + 1;  // future protocol version
  AppendFrame(wire, FrameType::kDispatch, 2, TestPayload(8));
  wire[wire.size() - kFrameOverheadBytes - 8 + 3] = 0x7F;  // unknown type
  const auto good = TestPayload(8, 1);
  AppendFrame(wire, FrameType::kDispatch, 3, good);

  FrameDecoder decoder;
  decoder.Feed(wire);
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->seq, 3u);
  EXPECT_EQ(frame->payload, good);
  EXPECT_EQ(decoder.frames_decoded(), 1u);
  // The two bad frames are contiguous, so they fold into one resync
  // episode; every one of their bytes is accounted discarded.
  EXPECT_EQ(decoder.resyncs(), 1u);
  EXPECT_EQ(decoder.bytes_discarded(), 2 * (kFrameOverheadBytes + 8));
}

// --- Socket transport ----------------------------------------------------------

/// Server + simulated device fleet over real loopback sockets.
struct WireRig {
  explicit WireRig(std::vector<uint64_t> devices,
                   FleetServerConfig server_config = {},
                   SimClientFleetConfig client_config = {})
      : server(server_config) {
    EXPECT_TRUE(server.Start().ok());
    client_config.port = server.port();
    client_config.devices = devices;
    clients = std::make_unique<SimClientFleet>(std::move(client_config));
    EXPECT_TRUE(clients->Start().ok());
    ready = server.WaitForDevices(devices.size(), 10'000);
    EXPECT_TRUE(ready);
  }

  FleetServer server;
  std::unique_ptr<SimClientFleet> clients;
  bool ready = false;
};

TEST(TransportTest, HandshakeAndFaithfulDelivery) {
  WireRig rig({1, 2, 3});
  ASSERT_TRUE(rig.ready);
  EXPECT_EQ(rig.server.connected_devices(), 3u);

  const auto payload = TestPayload(4096);
  for (uint64_t device : {1u, 2u, 3u}) {
    auto delivered = rig.server.Deliver(device, payload, ChannelConfig{});
    ASSERT_TRUE(delivered.ok()) << delivered.status().ToString();
    EXPECT_EQ(*delivered, payload);
  }
  EXPECT_EQ(rig.clients->dispatches_served(), 3u);
}

TEST(TransportTest, EveryChannelFaultReproducesOnTheWire) {
  // The wire path applies the same per-delivery fault process as the
  // in-process channel: for every fault mode and seed, the bytes coming
  // back over the socket must equal a local Channel's output bit for
  // bit. This is what keeps campaign fault injection deterministic in
  // the campaign seed regardless of transport.
  WireRig rig({7});
  ASSERT_TRUE(rig.ready);
  const auto payload = TestPayload(2048);
  for (int f = 0; f <= static_cast<int>(ChannelFault::kDuplicate); ++f) {
    for (uint64_t trial = 0; trial < 3; ++trial) {
      ChannelConfig cfg;
      cfg.fault = static_cast<ChannelFault>(f);
      cfg.seed = 0x9000 + trial;
      cfg.bit_flips = 2 + static_cast<uint32_t>(trial);
      cfg.patch_offset = 100 + trial * 13;
      cfg.truncate_bytes = 5 + trial;
      Channel local(cfg);
      const auto expected = local.Deliver(payload);
      auto wired = rig.server.Deliver(7, payload, cfg);
      ASSERT_TRUE(wired.ok()) << wired.status().ToString();
      EXPECT_EQ(*wired, expected)
          << ChannelFaultName(cfg.fault) << " trial " << trial;
    }
  }
}

TEST(TransportTest, FaultedSealedPackageRejectedEndToEnd) {
  // The full paper property, over a real socket: a sealed package that
  // suffers wire faults either arrives intact or is rejected by the
  // HDE — never executed modified.
  const auto* workload = workloads::FindWorkload("bitcount");
  ASSERT_NE(workload, nullptr);
  crypto::KeyConfig config;
  core::TrustedDevice device(0x5EED, config);
  core::SoftwareSource source(device.Enroll(), config);
  auto built = source.CompileAndPackage(
      workload->source, core::EncryptionPolicy::PartialRandom(0.5));
  ASSERT_TRUE(built.ok());
  const auto wire = pkg::Serialize(built->packaging.package);

  WireRig rig({11});
  ASSERT_TRUE(rig.ready);
  int rejected = 0;
  for (uint64_t trial = 0; trial < 8; ++trial) {
    ChannelConfig cfg;
    cfg.fault = ChannelFault::kRandomBitFlips;
    cfg.bit_flips = 1 + static_cast<uint32_t>(trial % 4);
    cfg.seed = 0xA100 + trial;
    auto delivered = rig.server.Deliver(11, wire, cfg);
    ASSERT_TRUE(delivered.ok());
    auto run = device.ReceiveAndRun(*delivered);
    if (run.ok()) {
      EXPECT_EQ(run->exec.exit_code, workload->reference())
          << "trial " << trial << ": EXECUTED A MODIFIED PROGRAM";
    } else {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 8);  // bit flips never survive HDE validation

  auto clean = rig.server.Deliver(11, wire, ChannelConfig{});
  ASSERT_TRUE(clean.ok());
  auto run = device.ReceiveAndRun(*clean);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->exec.exit_code, workload->reference());
}

TEST(TransportTest, UnknownDeviceIsUnavailable) {
  WireRig rig({1});
  ASSERT_TRUE(rig.ready);
  auto delivered = rig.server.Deliver(999, TestPayload(16), ChannelConfig{});
  ASSERT_FALSE(delivered.ok());
  EXPECT_EQ(delivered.status().code(), ErrorCode::kUnavailable);
}

TEST(TransportTest, ResponseTimeoutExpires) {
  FleetServerConfig server_config;
  server_config.response_timeout_ms = 200;
  SimClientFleetConfig client_config;
  client_config.respond = false;  // black-hole every dispatch
  WireRig rig({4}, server_config, client_config);
  ASSERT_TRUE(rig.ready);

  const auto start = std::chrono::steady_clock::now();
  auto delivered = rig.server.Deliver(4, TestPayload(64), ChannelConfig{});
  const auto waited = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(delivered.ok());
  EXPECT_EQ(delivered.status().code(), ErrorCode::kTimeout);
  EXPECT_GE(waited, std::chrono::milliseconds(150));
  EXPECT_LT(waited, std::chrono::seconds(5));
}

TEST(TransportTest, BackpressureFailsResourceExhausted) {
  // A device that stops reading after the handshake backs the write
  // queue up past the high-water mark; once a delivery has stalled past
  // the backpressure deadline it fails kResourceExhausted instead of
  // wedging the worker forever.
  FleetServerConfig server_config;
  server_config.response_timeout_ms = 300;
  server_config.write_high_water = 64 * 1024;
  server_config.backpressure_timeout_ms = 300;
  SimClientFleetConfig client_config;
  client_config.read_after_handshake = false;
  WireRig rig({6}, server_config, client_config);
  ASSERT_TRUE(rig.ready);

  // Large payloads: the first few fill the socket buffer + write queue
  // (each times out on the unread response); eventually a Deliver finds
  // the queue at high water and fails with kResourceExhausted.
  bool saw_backpressure = false;
  for (int i = 0; i < 32 && !saw_backpressure; ++i) {
    auto delivered =
        rig.server.Deliver(6, TestPayload(256 * 1024), ChannelConfig{});
    ASSERT_FALSE(delivered.ok());
    if (delivered.status().code() == ErrorCode::kResourceExhausted) {
      saw_backpressure = true;
    } else {
      EXPECT_EQ(delivered.status().code(), ErrorCode::kTimeout);
    }
  }
  EXPECT_TRUE(saw_backpressure);
}

TEST(TransportTest, DisconnectFailsInflightDelivery) {
  FleetServerConfig server_config;
  server_config.response_timeout_ms = 30'000;  // the close must win
  SimClientFleetConfig client_config;
  client_config.respond = false;
  WireRig rig({8}, server_config, client_config);
  ASSERT_TRUE(rig.ready);

  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    rig.clients->Stop();  // device vanishes mid-request
  });
  auto delivered = rig.server.Deliver(8, TestPayload(64), ChannelConfig{});
  killer.join();
  ASSERT_FALSE(delivered.ok());
  EXPECT_EQ(delivered.status().code(), ErrorCode::kUnavailable);
}

TEST(TransportTest, ManyConnectionsConcurrentDeliveries) {
  std::vector<uint64_t> devices;
  for (uint64_t d = 1; d <= 128; ++d) devices.push_back(d);
  WireRig rig(devices);
  ASSERT_TRUE(rig.ready);
  EXPECT_EQ(rig.server.connected_devices(), devices.size());

  const auto payload = TestPayload(1024);
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&, w] {
      for (size_t i = static_cast<size_t>(w); i < devices.size(); i += 8) {
        auto delivered =
            rig.server.Deliver(devices[i], payload, ChannelConfig{});
        if (!delivered.ok() || *delivered != payload) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(rig.clients->dispatches_served(), devices.size());
}

TEST(TransportTest, IdleConnectionsReaped) {
  FleetServerConfig server_config;
  server_config.idle_timeout_ms = 150;
  WireRig rig({21, 22}, server_config);
  ASSERT_TRUE(rig.ready);
  EXPECT_EQ(rig.server.connected_devices(), 2u);

  // No traffic: the reaper must close both within a few timeouts.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (rig.server.connected_devices() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(rig.server.connected_devices(), 0u);
}

// --- End-to-end integrity property --------------------------------------------

class FaultSweepTest : public ::testing::TestWithParam<ChannelFault> {};

TEST_P(FaultSweepTest, NoFaultCausesMisexecution) {
  const auto* workload = workloads::FindWorkload("bitcount");
  ASSERT_NE(workload, nullptr);
  const int64_t expected = workload->reference();

  crypto::KeyConfig config;
  core::TrustedDevice device(0x5EED, config);
  core::SoftwareSource source(device.Enroll(), config);
  auto built = source.CompileAndPackage(workload->source,
                                        core::EncryptionPolicy::PartialRandom(0.5));
  ASSERT_TRUE(built.ok());
  const auto wire = pkg::Serialize(built->packaging.package);

  // Sweep many channel instances of this fault class (different seeds /
  // offsets); every delivery must either run correctly or be rejected.
  int accepted = 0, rejected = 0;
  for (uint64_t trial = 0; trial < 25; ++trial) {
    ChannelConfig cfg;
    cfg.fault = GetParam();
    cfg.seed = 0x1000 + trial;
    cfg.bit_flips = 1 + static_cast<uint32_t>(trial % 4);
    cfg.patch_offset = 36 + trial * 7;  // walk through the body
    cfg.truncate_bytes = 1 + trial;
    Channel channel(cfg);
    const auto delivered = channel.Deliver(wire);
    auto run = device.ReceiveAndRun(delivered);
    if (run.ok()) {
      ++accepted;
      EXPECT_EQ(run->exec.exit_code, expected)
          << ChannelFaultName(GetParam()) << " trial " << trial
          << ": EXECUTED A MODIFIED PROGRAM";
    } else {
      ++rejected;
    }
  }
  if (GetParam() == ChannelFault::kNone) {
    EXPECT_EQ(accepted, 25);
  } else {
    // Every mutating fault must be caught every time (mutations == 0 can
    // happen only for kNone).
    EXPECT_EQ(accepted, 0) << ChannelFaultName(GetParam());
    EXPECT_EQ(rejected, 25);
  }
}

// --- Delta payloads over the hostile channel ----------------------------------

TEST(DeltaChannelTest, CorruptedDeltaPayloadFailsClosed) {
  // Seal two releases of one program for the same device, diff their
  // wire images, and push the patch through a byte-patching channel: the
  // device-side ApplyDelta must reject every corrupted delivery, and a
  // faithful delivery must reconstruct — and run — the exact v2 image.
  constexpr const char* kV1 = R"(
    fn main() { var x = 6; return x * 7; }
  )";
  constexpr const char* kV2 = R"(
    fn main() { var x = 6; return x * 8; }
  )";
  crypto::KeyConfig config;
  core::TrustedDevice device(0xDE17A, config);
  core::SoftwareSource source(device.Enroll(), config);
  const auto policy = core::EncryptionPolicy::PartialRandom(0.5);
  auto v1 = source.CompileAndPackage(kV1, policy);
  auto v2 = source.CompileAndPackage(kV2, policy);
  ASSERT_TRUE(v1.ok() && v2.ok());
  const auto wire1 = pkg::Serialize(v1->packaging.package);
  const auto wire2 = pkg::Serialize(v2->packaging.package);
  const auto delta = pkg::EncodeDelta(wire1, wire2);

  // The attacked hop: every byte-patched delivery is rejected by the
  // patch CRCs before anything reaches the HDE.
  for (uint64_t trial = 0; trial < 25; ++trial) {
    ChannelConfig cfg;
    cfg.fault = ChannelFault::kBytePatch;
    cfg.seed = 0x2000 + trial;
    cfg.patch_offset = trial * 3 % delta.size();
    Channel channel(cfg);
    const auto delivered = channel.Deliver(delta);
    if (delivered == delta) continue;  // patch wrote identical bytes
    auto applied = pkg::ApplyDelta(wire1, delivered);
    EXPECT_FALSE(applied.ok()) << "trial " << trial;
  }

  // The faithful hop: the patch reconstructs v2 exactly and the device
  // validates and runs it.
  Channel clean;
  auto applied = pkg::ApplyDelta(wire1, clean.Deliver(delta));
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, wire2);
  auto run = device.ReceiveAndRun(*applied);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->exec.exit_code, 48);
}

TEST(DeltaChannelTest, TruncatedAndDuplicatedDeltasFailClosed) {
  const std::vector<uint8_t> base(512, 0x5A);
  std::vector<uint8_t> target = base;
  target[100] = 0xA5;
  const auto delta = pkg::EncodeDelta(base, target);
  {
    ChannelConfig cfg;
    cfg.fault = ChannelFault::kTruncate;
    cfg.truncate_bytes = 5;
    Channel channel(cfg);
    EXPECT_FALSE(pkg::ApplyDelta(base, channel.Deliver(delta)).ok());
  }
  {
    ChannelConfig cfg;
    cfg.fault = ChannelFault::kDuplicate;
    Channel channel(cfg);
    // A replayed (doubled) patch has bytes after its end op.
    EXPECT_FALSE(pkg::ApplyDelta(base, channel.Deliver(delta)).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFaults, FaultSweepTest,
    ::testing::Values(ChannelFault::kNone, ChannelFault::kRandomBitFlips,
                      ChannelFault::kBytePatch, ChannelFault::kTruncate,
                      ChannelFault::kInstructionPatch,
                      ChannelFault::kDuplicate),
    [](const ::testing::TestParamInfo<ChannelFault>& info) {
      std::string name(ChannelFaultName(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace eric::net
