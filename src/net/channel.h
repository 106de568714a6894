// Untrusted transport channel (step 4 of Fig 3).
//
// The threat model assumes packages travel over a network an adversary can
// read and modify, and that storage/transfer may also introduce soft
// errors. This module models that hop: a channel applies a configurable
// fault/attack process to the wire bytes. The end-to-end property under
// test is that *no* channel behaviour can make the HDE execute a program
// that differs from what the software source signed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/rng.h"

namespace eric::net {

/// What the channel does to each delivery.
enum class ChannelFault : uint8_t {
  kNone,            ///< faithful delivery
  kRandomBitFlips,  ///< soft errors: n random bit flips
  kBytePatch,       ///< MITM: overwrite a byte range with attacker bytes
  kTruncate,        ///< drop trailing bytes
  kInstructionPatch,///< MITM: overwrite 4 bytes mid-text (inject an instr)
  kDuplicate,       ///< replay: body delivered twice, concatenated
};

/// Stable display name of a ChannelFault ("none", "bit-flips", ...).
std::string_view ChannelFaultName(ChannelFault fault);

/// Channel configuration.
struct ChannelConfig {
  ChannelFault fault = ChannelFault::kNone;  ///< fault process to apply
  uint32_t bit_flips = 1;       ///< kRandomBitFlips
  size_t patch_offset = 64;     ///< kBytePatch / kInstructionPatch
  uint32_t patch_length = 4;    ///< kBytePatch
  uint8_t patch_value = 0x13;   ///< injected byte (0x13 = addi-shaped)
  size_t truncate_bytes = 8;    ///< kTruncate
  uint64_t seed = 0xC4A77E1;    ///< RNG stream for fault placement
};

/// What one delivery did to the wire bytes.
struct DeliveryRecord {
  ChannelFault fault = ChannelFault::kNone;  ///< fault applied
  size_t bytes_in = 0;      ///< wire bytes entering the channel
  size_t bytes_out = 0;     ///< wire bytes delivered
  uint64_t mutations = 0;   ///< number of bytes/bits changed
};

/// The channel. Stateless per delivery apart from the RNG stream; every
/// production channel carries exactly one delivery, so it keeps no
/// history beyond the last delivery's record.
class Channel {
 public:
  /// Builds a channel with `config`'s fault process and RNG seed.
  explicit Channel(const ChannelConfig& config = {})
      : config_(config), rng_(config.seed) {}

  /// Applies the configured fault process and returns the delivered bytes.
  std::vector<uint8_t> Deliver(std::vector<uint8_t> wire_bytes);

  /// The most recent delivery's record (all zero before the first).
  const DeliveryRecord& last_delivery() const { return last_delivery_; }

 private:
  ChannelConfig config_;
  Xoshiro256 rng_;
  DeliveryRecord last_delivery_;
};

}  // namespace eric::net
