#include "core/trusted_execution.h"

#include "obs/metrics.h"

namespace eric::core {

namespace {

// Simulated work, process-wide. Registered when the program starts, so
// every metrics snapshot carries them, even one taken before any run.
obs::Counter& sim_instructions =
    obs::MetricsRegistry::Global().GetCounter("sim_instructions");
obs::Counter& sim_cycles =
    obs::MetricsRegistry::Global().GetCounter("sim_cycles");

void CountSimulatedRun(const sim::ExecStats& exec) {
  sim_instructions.Add(exec.instructions);
  sim_cycles.Add(exec.cycles);
}

}  // namespace

TrustedDevice::TrustedDevice(uint64_t device_seed,
                             const crypto::KeyConfig& key_config,
                             CipherKind cipher, const sim::CpuTiming& timing,
                             isa::IsaId isa)
    : hde_(device_seed, key_config, cipher, HdeCycleParams{}, isa),
      timing_(timing),
      isa_(isa) {}

Result<TrustedRunResult> TrustedDevice::ReceiveAndRun(
    std::span<const uint8_t> wire_bytes, uint64_t arg0, uint64_t arg1,
    const sim::ExecLimits& limits) {
  Result<HdeOutput> validated = hde_.DecryptAndValidate(wire_bytes);
  if (!validated.ok()) return validated.status();

  // Only now does the program enter the trusted zone (main memory).
  sim::Soc soc(timing_, isa_);
  soc.LoadProgram(validated->image);
  TrustedRunResult out;
  out.hde_cycles = validated->cycles;
  out.exec = soc.Run(sim::kRamBase, arg0, arg1, limits);
  CountSimulatedRun(out.exec);
  out.console_output = soc.console_output();
  return out;
}

TrustedRunResult TrustedDevice::RunPlaintext(std::span<const uint8_t> image,
                                             uint64_t arg0, uint64_t arg1,
                                             const sim::ExecLimits& limits) {
  sim::Soc soc(timing_, isa_);
  soc.LoadProgram(image);
  TrustedRunResult out;
  out.exec = soc.Run(sim::kRamBase, arg0, arg1, limits);
  CountSimulatedRun(out.exec);
  out.console_output = soc.console_output();
  return out;
}

}  // namespace eric::core
