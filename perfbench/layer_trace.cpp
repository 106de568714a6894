#include "layer_trace.h"

#include <atomic>
#include <chrono>
#include <span>
#include <string_view>
#include <vector>

#include "agent/update_agent.h"
#include "compiler/compiler.h"
#include "core/hde.h"
#include "core/software_source.h"
#include "fleet/device_registry.h"
#include "net/channel.h"
#include "pkg/delta.h"
#include "puf/puf_key_generator.h"
#include "sim/soc.h"

namespace perfbench {

namespace {

constexpr size_t kLayers = static_cast<size_t>(Layer::kCount);

struct AtomicTotals {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> total_ns{0};
  std::atomic<uint64_t> self_ns{0};
};

std::atomic<bool> g_enabled{false};
std::array<AtomicTotals, kLayers> g_layers;

// Device-side counts, kept in untraced runs too.
std::atomic<uint64_t> g_sim_runs{0};
std::atomic<uint64_t> g_sim_instructions{0};
std::atomic<uint64_t> g_sim_cycles{0};
std::atomic<uint64_t> g_icache_accesses{0};
std::atomic<uint64_t> g_icache_misses{0};
std::atomic<uint64_t> g_dcache_accesses{0};
std::atomic<uint64_t> g_dcache_misses{0};
std::atomic<uint64_t> g_hde_rejects{0};
std::atomic<uint64_t> g_delta_rejects{0};

thread_local Span* t_open_span = nullptr;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Bump(std::atomic<uint64_t>& counter, uint64_t by = 1) {
  counter.fetch_add(by, std::memory_order_relaxed);
}

uint64_t Load(const std::atomic<uint64_t>& counter) {
  return counter.load(std::memory_order_relaxed);
}

}  // namespace

Ledger& Ledger::operator+=(const Ledger& other) {
  for (size_t i = 0; i < kLayers; ++i) {
    layers[i].calls += other.layers[i].calls;
    layers[i].total_ns += other.layers[i].total_ns;
    layers[i].self_ns += other.layers[i].self_ns;
  }
  sim_runs += other.sim_runs;
  sim_instructions += other.sim_instructions;
  sim_cycles += other.sim_cycles;
  icache_accesses += other.icache_accesses;
  icache_misses += other.icache_misses;
  dcache_accesses += other.dcache_accesses;
  dcache_misses += other.dcache_misses;
  hde_rejects += other.hde_rejects;
  delta_rejects += other.delta_rejects;
  return *this;
}

Ledger Ledger::operator-(const Ledger& other) const {
  Ledger out = *this;
  for (size_t i = 0; i < kLayers; ++i) {
    out.layers[i].calls -= other.layers[i].calls;
    out.layers[i].total_ns -= other.layers[i].total_ns;
    out.layers[i].self_ns -= other.layers[i].self_ns;
  }
  out.sim_runs -= other.sim_runs;
  out.sim_instructions -= other.sim_instructions;
  out.sim_cycles -= other.sim_cycles;
  out.icache_accesses -= other.icache_accesses;
  out.icache_misses -= other.icache_misses;
  out.dcache_accesses -= other.dcache_accesses;
  out.dcache_misses -= other.dcache_misses;
  out.hde_rejects -= other.hde_rejects;
  out.delta_rejects -= other.delta_rejects;
  return out;
}

void EnableSpans(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

Ledger Snapshot() {
  Ledger out;
  for (size_t i = 0; i < kLayers; ++i) {
    out.layers[i].calls = Load(g_layers[i].calls);
    out.layers[i].total_ns = Load(g_layers[i].total_ns);
    out.layers[i].self_ns = Load(g_layers[i].self_ns);
  }
  out.sim_runs = Load(g_sim_runs);
  out.sim_instructions = Load(g_sim_instructions);
  out.sim_cycles = Load(g_sim_cycles);
  out.icache_accesses = Load(g_icache_accesses);
  out.icache_misses = Load(g_icache_misses);
  out.dcache_accesses = Load(g_dcache_accesses);
  out.dcache_misses = Load(g_dcache_misses);
  out.hde_rejects = Load(g_hde_rejects);
  out.delta_rejects = Load(g_delta_rejects);
  return out;
}

Span::Span(Layer layer)
    : layer_(layer), active_(g_enabled.load(std::memory_order_relaxed)) {
  if (!active_) return;
  parent_ = t_open_span;
  t_open_span = this;
  start_ns_ = NowNs();
}

Span::~Span() {
  if (!active_) return;
  const uint64_t duration = NowNs() - start_ns_;
  t_open_span = parent_;
  if (parent_ != nullptr) parent_->child_ns_ += duration;
  AtomicTotals& totals = g_layers[static_cast<size_t>(layer_)];
  Bump(totals.calls);
  Bump(totals.total_ns, duration);
  Bump(totals.self_ns, duration > child_ns_ ? duration - child_ns_ : 0);
}

// --- Link-time wrappers -------------------------------------------------------
//
// Each entry point is declared twice under its mangled name: the __wrap_
// definition every caller now reaches, and the weak __real_ alias the
// linker binds to the original. A member function takes `this` as its
// first argument (Itanium C++ ABI), which is how the wrappers receive it.
// The weak alias keeps the benchmark linking if an entry point is later
// renamed; that layer's spans then read zero calls.

#define PERFBENCH_REAL(symbol) asm("__real_" symbol) __attribute__((weak))
#define PERFBENCH_WRAP(symbol) asm("__wrap_" symbol)

#define SOC_RUN "_ZN4eric3sim3Soc3RunEmmmRKNS0_10ExecLimitsE"
eric::sim::ExecStats RealSocRun(eric::sim::Soc*, uint64_t, uint64_t, uint64_t,
                                const eric::sim::ExecLimits&)
    PERFBENCH_REAL(SOC_RUN);
eric::sim::ExecStats WrapSocRun(eric::sim::Soc* soc, uint64_t entry,
                                uint64_t arg0, uint64_t arg1,
                                const eric::sim::ExecLimits& limits)
    PERFBENCH_WRAP(SOC_RUN);
eric::sim::ExecStats WrapSocRun(eric::sim::Soc* soc, uint64_t entry,
                                uint64_t arg0, uint64_t arg1,
                                const eric::sim::ExecLimits& limits) {
  eric::sim::ExecStats stats;
  {
    Span span(Layer::kSimRun);
    stats = RealSocRun(soc, entry, arg0, arg1, limits);
  }
  Bump(g_sim_runs);
  Bump(g_sim_instructions, stats.instructions);
  Bump(g_sim_cycles, stats.cycles);
  Bump(g_icache_accesses, stats.icache.accesses());
  Bump(g_icache_misses, stats.icache.misses);
  Bump(g_dcache_accesses, stats.dcache.accesses());
  Bump(g_dcache_misses, stats.dcache.misses);
  return stats;
}

#define SOC_CTOR "_ZN4eric3sim3SocC1ERKNS0_9CpuTimingENS_3isa5IsaIdE"
void RealSocCtor(eric::sim::Soc*, const eric::sim::CpuTiming&,
                 eric::isa::IsaId) PERFBENCH_REAL(SOC_CTOR);
void WrapSocCtor(eric::sim::Soc* soc, const eric::sim::CpuTiming& timing,
                 eric::isa::IsaId isa) PERFBENCH_WRAP(SOC_CTOR);
void WrapSocCtor(eric::sim::Soc* soc, const eric::sim::CpuTiming& timing,
                 eric::isa::IsaId isa) {
  Span span(Layer::kSimLoad);
  RealSocCtor(soc, timing, isa);
}

#define SOC_LOAD \
  "_ZN4eric3sim3Soc11LoadProgramESt4spanIKhLm18446744073709551615EEm"
void RealSocLoad(eric::sim::Soc*, std::span<const uint8_t>, uint64_t)
    PERFBENCH_REAL(SOC_LOAD);
void WrapSocLoad(eric::sim::Soc* soc, std::span<const uint8_t> image,
                 uint64_t address) PERFBENCH_WRAP(SOC_LOAD);
void WrapSocLoad(eric::sim::Soc* soc, std::span<const uint8_t> image,
                 uint64_t address) {
  Span span(Layer::kSimLoad);
  RealSocLoad(soc, image, address);
}

#define HDE_DECRYPT                                                  \
  "_ZN4eric4core24HardwareDecryptionEngine18DecryptAndValidateESt4" \
  "spanIKhLm18446744073709551615EE"
eric::Result<eric::core::HdeOutput> RealHdeDecrypt(
    eric::core::HardwareDecryptionEngine*, std::span<const uint8_t>)
    PERFBENCH_REAL(HDE_DECRYPT);
eric::Result<eric::core::HdeOutput> WrapHdeDecrypt(
    eric::core::HardwareDecryptionEngine* hde, std::span<const uint8_t> wire)
    PERFBENCH_WRAP(HDE_DECRYPT);
eric::Result<eric::core::HdeOutput> WrapHdeDecrypt(
    eric::core::HardwareDecryptionEngine* hde, std::span<const uint8_t> wire) {
  Span span(Layer::kHde);
  auto out = RealHdeDecrypt(hde, wire);
  if (!out.ok()) Bump(g_hde_rejects);
  return out;
}

#define PUF_REGEN                                                   \
  "_ZNK4eric3puf15PufKeyGenerator13RegenerateKeyERKNS0_13PufHelper" \
  "DataERNS_10Xoshiro256E"
eric::crypto::Key256 RealPufRegen(const eric::puf::PufKeyGenerator*,
                                  const eric::puf::PufHelperData&,
                                  eric::Xoshiro256&) PERFBENCH_REAL(PUF_REGEN);
eric::crypto::Key256 WrapPufRegen(const eric::puf::PufKeyGenerator* pkg,
                                  const eric::puf::PufHelperData& helper,
                                  eric::Xoshiro256& rng)
    PERFBENCH_WRAP(PUF_REGEN);
eric::crypto::Key256 WrapPufRegen(const eric::puf::PufKeyGenerator* pkg,
                                  const eric::puf::PufHelperData& helper,
                                  eric::Xoshiro256& rng) {
  Span span(Layer::kPufRegen);
  return RealPufRegen(pkg, helper, rng);
}

#define PUF_ENROLL "_ZNK4eric3puf15PufKeyGenerator6EnrollERNS_10Xoshiro256E"
eric::puf::PufKeyGenerator::Enrollment RealPufEnroll(
    const eric::puf::PufKeyGenerator*, eric::Xoshiro256&)
    PERFBENCH_REAL(PUF_ENROLL);
eric::puf::PufKeyGenerator::Enrollment WrapPufEnroll(
    const eric::puf::PufKeyGenerator* pkg, eric::Xoshiro256& rng)
    PERFBENCH_WRAP(PUF_ENROLL);
eric::puf::PufKeyGenerator::Enrollment WrapPufEnroll(
    const eric::puf::PufKeyGenerator* pkg, eric::Xoshiro256& rng) {
  Span span(Layer::kPufEnroll);
  return RealPufEnroll(pkg, rng);
}

#define AGENT_APPLY                                                      \
  "_ZN4eric5agent11UpdateAgent5ApplyESt4spanIKhLm18446744073709551615" \
  "EEmRKSt5arrayIhLm32EERKSt8functionIFNS_6StatusES4_EE"
eric::Status RealAgentApply(eric::agent::UpdateAgent*,
                            std::span<const uint8_t>, uint64_t,
                            const eric::crypto::Sha256Digest&,
                            const eric::agent::UpdateAgent::HealthCheck&)
    PERFBENCH_REAL(AGENT_APPLY);
eric::Status WrapAgentApply(eric::agent::UpdateAgent* agent,
                            std::span<const uint8_t> image, uint64_t version,
                            const eric::crypto::Sha256Digest& fingerprint,
                            const eric::agent::UpdateAgent::HealthCheck& health)
    PERFBENCH_WRAP(AGENT_APPLY);
eric::Status WrapAgentApply(eric::agent::UpdateAgent* agent,
                            std::span<const uint8_t> image, uint64_t version,
                            const eric::crypto::Sha256Digest& fingerprint,
                            const eric::agent::UpdateAgent::HealthCheck& health) {
  if (!g_enabled.load(std::memory_order_relaxed)) {
    return RealAgentApply(agent, image, version, fingerprint, health);
  }
  // The health check is the device's HDE + sim run; timing it as a child
  // leaves the agent's own stage/verify/flip/persist work as self time.
  Span span(Layer::kAgentApply);
  const eric::agent::UpdateAgent::HealthCheck timed_health =
      [&health](std::span<const uint8_t> booted) {
        Span health_span(Layer::kAgentHealth);
        return health(booted);
      };
  return RealAgentApply(agent, image, version, fingerprint, timed_health);
}

#define RECORD_DELIVERY \
  "_ZN4eric5fleet14DeviceRegistry14RecordDeliveryEmmRKSt5arrayIhLm32EENS_3isa5IsaIdE"
eric::Status RealRecordDelivery(eric::fleet::DeviceRegistry*, uint64_t,
                                uint64_t, const eric::crypto::Sha256Digest&,
                                eric::isa::IsaId)
    PERFBENCH_REAL(RECORD_DELIVERY);
eric::Status WrapRecordDelivery(eric::fleet::DeviceRegistry* registry,
                                uint64_t device, uint64_t version,
                                const eric::crypto::Sha256Digest& fingerprint,
                                eric::isa::IsaId isa)
    PERFBENCH_WRAP(RECORD_DELIVERY);
eric::Status WrapRecordDelivery(eric::fleet::DeviceRegistry* registry,
                                uint64_t device, uint64_t version,
                                const eric::crypto::Sha256Digest& fingerprint,
                                eric::isa::IsaId isa) {
  Span span(Layer::kWalAppend);
  return RealRecordDelivery(registry, device, version, fingerprint, isa);
}

#define ENCODE_DELTA                                                  \
  "_ZN4eric3pkg11EncodeDeltaESt4spanIKhLm18446744073709551615EES3_" \
  "PNS0_10DeltaStatsE"
std::vector<uint8_t> RealEncodeDelta(std::span<const uint8_t>,
                                     std::span<const uint8_t>,
                                     eric::pkg::DeltaStats*)
    PERFBENCH_REAL(ENCODE_DELTA);
std::vector<uint8_t> WrapEncodeDelta(std::span<const uint8_t> base,
                                     std::span<const uint8_t> target,
                                     eric::pkg::DeltaStats* stats)
    PERFBENCH_WRAP(ENCODE_DELTA);
std::vector<uint8_t> WrapEncodeDelta(std::span<const uint8_t> base,
                                     std::span<const uint8_t> target,
                                     eric::pkg::DeltaStats* stats) {
  Span span(Layer::kDeltaEncode);
  return RealEncodeDelta(base, target, stats);
}

#define APPLY_DELTA \
  "_ZN4eric3pkg10ApplyDeltaESt4spanIKhLm18446744073709551615EES3_"
eric::Result<std::vector<uint8_t>> RealApplyDelta(std::span<const uint8_t>,
                                                  std::span<const uint8_t>)
    PERFBENCH_REAL(APPLY_DELTA);
eric::Result<std::vector<uint8_t>> WrapApplyDelta(
    std::span<const uint8_t> base, std::span<const uint8_t> delta)
    PERFBENCH_WRAP(APPLY_DELTA);
eric::Result<std::vector<uint8_t>> WrapApplyDelta(
    std::span<const uint8_t> base, std::span<const uint8_t> delta) {
  Span span(Layer::kDeltaApply);
  auto out = RealApplyDelta(base, delta);
  if (!out.ok()) Bump(g_delta_rejects);
  return out;
}

#define COMPILE                                                      \
  "_ZN4eric8compiler7CompileESt17basic_string_viewIcSt11char_traits" \
  "IcEERKNS0_14CompileOptionsE"
eric::Result<eric::compiler::CompileResult> RealCompile(
    std::string_view, const eric::compiler::CompileOptions&)
    PERFBENCH_REAL(COMPILE);
eric::Result<eric::compiler::CompileResult> WrapCompile(
    std::string_view source, const eric::compiler::CompileOptions& options)
    PERFBENCH_WRAP(COMPILE);
eric::Result<eric::compiler::CompileResult> WrapCompile(
    std::string_view source, const eric::compiler::CompileOptions& options) {
  Span span(Layer::kCompile);
  return RealCompile(source, options);
}

#define BUILD_PACKAGE                                                 \
  "_ZNK4eric4core14SoftwareSource12BuildPackageERKNS_8compiler15" \
  "CompiledProgramERKNS0_16EncryptionPolicyE"
eric::Result<eric::core::PackagingResult> RealBuildPackage(
    const eric::core::SoftwareSource*, const eric::compiler::CompiledProgram&,
    const eric::core::EncryptionPolicy&) PERFBENCH_REAL(BUILD_PACKAGE);
eric::Result<eric::core::PackagingResult> WrapBuildPackage(
    const eric::core::SoftwareSource* source,
    const eric::compiler::CompiledProgram& program,
    const eric::core::EncryptionPolicy& policy) PERFBENCH_WRAP(BUILD_PACKAGE);
eric::Result<eric::core::PackagingResult> WrapBuildPackage(
    const eric::core::SoftwareSource* source,
    const eric::compiler::CompiledProgram& program,
    const eric::core::EncryptionPolicy& policy) {
  Span span(Layer::kSeal);
  return RealBuildPackage(source, program, policy);
}

#define CHANNEL_DELIVER "_ZN4eric3net7Channel7DeliverESt6vectorIhSaIhEE"
std::vector<uint8_t> RealChannelDeliver(eric::net::Channel*,
                                        std::vector<uint8_t>)
    PERFBENCH_REAL(CHANNEL_DELIVER);
std::vector<uint8_t> WrapChannelDeliver(eric::net::Channel* channel,
                                        std::vector<uint8_t> bytes)
    PERFBENCH_WRAP(CHANNEL_DELIVER);
std::vector<uint8_t> WrapChannelDeliver(eric::net::Channel* channel,
                                        std::vector<uint8_t> bytes) {
  Span span(Layer::kChannel);
  return RealChannelDeliver(channel, std::move(bytes));
}

}  // namespace perfbench
