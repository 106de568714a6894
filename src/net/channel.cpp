#include "net/channel.h"

#include <algorithm>

#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/stopwatch.h"

namespace eric::net {

namespace {

// Process-wide channel telemetry (aggregated across channel instances;
// the per-campaign split lives in the engine's CampaignReport).
struct ChannelMetrics {
  obs::Counter& deliveries;
  obs::Counter& faults;
  obs::Counter& bytes_in;
  obs::Counter& bytes_out;
  obs::Histogram& rtt_us;

  static ChannelMetrics& Get() {
    static auto& registry = obs::MetricsRegistry::Global();
    static ChannelMetrics metrics{
        registry.GetCounter("net_channel_deliveries"),
        registry.GetCounter("net_channel_faults"),
        registry.GetCounter("net_channel_bytes_in"),
        registry.GetCounter("net_channel_bytes_out"),
        registry.GetHistogram("net_channel_rtt_us"),
    };
    return metrics;
  }
};

}  // namespace

std::string_view ChannelFaultName(ChannelFault fault) {
  switch (fault) {
    case ChannelFault::kNone: return "none";
    case ChannelFault::kRandomBitFlips: return "bit-flips";
    case ChannelFault::kBytePatch: return "byte-patch";
    case ChannelFault::kTruncate: return "truncate";
    case ChannelFault::kInstructionPatch: return "instruction-patch";
    case ChannelFault::kDuplicate: return "duplicate";
  }
  return "unknown";
}

std::vector<uint8_t> Channel::Deliver(std::vector<uint8_t> bytes) {
  // The span marks the wire transit inside a delivery attempt; ok stays
  // true even when a fault mutates the body — detecting that is the
  // receiving device's job, and the *dispatch* span reports it.
  obs::ScopedSpan span("channel");
  const auto wire_start = std::chrono::steady_clock::now();
  DeliveryRecord record;
  record.fault = config_.fault;
  record.bytes_in = bytes.size();

  switch (config_.fault) {
    case ChannelFault::kNone:
      break;
    case ChannelFault::kRandomBitFlips: {
      // Distinct positions: two flips of one bit would cancel, and the
      // body would arrive intact from a delivery counted as faulted. A
      // repeated draw is drawn again, so deliveries without a repeat
      // consume the same draws as independent flips would.
      const uint64_t flips =
          std::min<uint64_t>(config_.bit_flips, uint64_t{8} * bytes.size());
      std::vector<uint64_t> flipped;  // byte * 8 + bit
      flipped.reserve(flips);
      while (flipped.size() < flips) {
        const uint64_t byte = rng_.NextBounded(bytes.size());
        const uint64_t bit = rng_.NextBounded(8);
        if (std::ranges::find(flipped, byte * 8 + bit) != flipped.end()) {
          continue;
        }
        flipped.push_back(byte * 8 + bit);
        bytes[byte] ^= static_cast<uint8_t>(1u << bit);
      }
      record.mutations = flips;
      break;
    }
    case ChannelFault::kBytePatch: {
      // Clamp the patch window to the delivered body up front: an offset
      // at or past the tail patches nothing, and a window overrunning
      // the tail patches only the overlap. The old per-byte check
      // computed patch_offset + i first, so an offset near SIZE_MAX
      // wrapped and silently patched the *front* of the body instead.
      if (config_.patch_offset < bytes.size()) {
        const size_t window = std::min<size_t>(
            config_.patch_length, bytes.size() - config_.patch_offset);
        for (size_t i = 0; i < window; ++i) {
          bytes[config_.patch_offset + i] = config_.patch_value;
        }
        record.mutations = window;
      }
      break;
    }
    case ChannelFault::kTruncate: {
      const size_t drop = std::min(config_.truncate_bytes, bytes.size());
      bytes.resize(bytes.size() - drop);
      record.mutations = drop;
      break;
    }
    case ChannelFault::kInstructionPatch: {
      // Inject a plausible 32-bit instruction (addi a0, a0, 1 = 0x00150513)
      // at the patch offset — the classic "add a malicious instruction"
      // modification. Same clamped window as kBytePatch: a tail-straddling
      // patch writes the overlap only, and an offset past the tail (or one
      // that would wrap size_t) mutates nothing.
      const uint8_t injected[4] = {0x13, 0x05, 0x15, 0x00};
      if (config_.patch_offset < bytes.size()) {
        const size_t window =
            std::min<size_t>(4, bytes.size() - config_.patch_offset);
        for (size_t i = 0; i < window; ++i) {
          bytes[config_.patch_offset + i] = injected[i];
        }
        record.mutations = window;
      }
      break;
    }
    case ChannelFault::kDuplicate: {
      // Build the doubled body in a fresh buffer: inserting a vector's
      // own iterator range into itself leans on the reserve() staying
      // exact, which is a reallocation-use-after-free the moment that
      // contract slips.
      const size_t n = bytes.size();
      std::vector<uint8_t> doubled;
      doubled.reserve(2 * n);
      doubled.insert(doubled.end(), bytes.begin(), bytes.end());
      doubled.insert(doubled.end(), bytes.begin(), bytes.end());
      bytes = std::move(doubled);
      record.mutations = n;
      break;
    }
  }
  record.bytes_out = bytes.size();
  ChannelMetrics& metrics = ChannelMetrics::Get();
  metrics.deliveries.Add();
  if (record.mutations > 0) {
    metrics.faults.Add();
    obs::EmitEvent(obs::EventSeverity::kWarn, "net",
                   "channel fault " + std::string(ChannelFaultName(record.fault)) +
                       " mutated " + std::to_string(record.mutations) +
                       " unit(s) in flight",
                   0, obs::CurrentTraceId());
  }
  metrics.bytes_in.Add(record.bytes_in);
  metrics.bytes_out.Add(record.bytes_out);
  metrics.rtt_us.Record(MicrosecondsSince(wire_start));
  last_delivery_ = record;
  return bytes;
}

}  // namespace eric::net
