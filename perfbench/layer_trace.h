// Benchmark-side layer spans and counters.
//
// The library has no spans at most of the layer boundaries the ledger
// needs, and the benchmark must not add any. Instead the benchmark links
// with `--wrap` for each layer's public entry point (CMakeLists.txt), and
// the wrappers in layer_trace.cpp time every call on its way into the
// layer. A span's self time is its duration minus the time of the spans
// nested inside it on the same thread, so the ledger never counts a
// nanosecond twice.
//
// Spans cost nothing but a relaxed load while disabled (the untraced
// run). The device-side counts the output checks rely on (simulator
// runs, HDE and delta rejects, simulated instructions and cycles) are
// kept in both runs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace perfbench {

/// One timed layer entry point.
enum class Layer : int {
  kSimRun,         ///< sim::Soc::Run
  kSimLoad,        ///< sim::Soc construction + LoadProgram
  kHde,            ///< HardwareDecryptionEngine::DecryptAndValidate
  kPufRegen,       ///< PufKeyGenerator::RegenerateKey
  kPufEnroll,      ///< PufKeyGenerator::Enroll
  kAgentApply,     ///< UpdateAgent::Apply
  kAgentHealth,    ///< the HealthCheck UpdateAgent::Apply calls
  kWalAppend,      ///< DeviceRegistry::RecordDelivery
  kJournalAppend,  ///< CampaignJournal::OnTargetCheckpoint
  kDeltaEncode,    ///< pkg::EncodeDelta
  kDeltaApply,     ///< pkg::ApplyDelta
  kCompile,        ///< compiler::Compile
  kSeal,           ///< SoftwareSource::BuildPackage
  kChannel,        ///< net::Channel::Deliver
  kEnroll,         ///< DeviceRegistry::Enroll
  kCount,
};

/// Accumulated time of one layer.
struct LayerTotals {
  uint64_t calls = 0;
  uint64_t total_ns = 0;  ///< wall time inside the call
  uint64_t self_ns = 0;   ///< total minus nested spans
};

/// A snapshot of every accumulator; differences of two snapshots give
/// one phase's share.
struct Ledger {
  std::array<LayerTotals, static_cast<std::size_t>(Layer::kCount)> layers{};
  uint64_t sim_runs = 0;
  uint64_t sim_instructions = 0;
  uint64_t sim_cycles = 0;
  uint64_t icache_accesses = 0;
  uint64_t icache_misses = 0;
  uint64_t dcache_accesses = 0;
  uint64_t dcache_misses = 0;
  uint64_t hde_rejects = 0;
  uint64_t delta_rejects = 0;

  const LayerTotals& operator[](Layer layer) const {
    return layers[static_cast<std::size_t>(layer)];
  }
  Ledger& operator+=(const Ledger& other);
  Ledger operator-(const Ledger& other) const;
};

/// Turns span timing on or off. Call only while no campaign runs.
void EnableSpans(bool enabled);

/// Current accumulator values. Call only while no campaign runs.
Ledger Snapshot();

/// Times one call into `layer` when spans are enabled.
class Span {
 public:
  explicit Span(Layer layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Layer layer_;
  bool active_;
  Span* parent_ = nullptr;
  uint64_t start_ns_ = 0;
  uint64_t child_ns_ = 0;
};

}  // namespace perfbench
