#include "sim/soc.h"

namespace eric::sim {

Soc::Soc(const CpuTiming& timing, isa::IsaId isa)
    : cpu_(memory_, timing, isa) {
  MmioHandlers handlers;
  handlers.store = [this](uint64_t addr, uint64_t value, int size) {
    (void)size;
    if (addr == kConsoleAddr) {
      console_output_.push_back(static_cast<char>(value & 0xFF));
      return true;
    }
    if (addr == kExitAddr) {
      cpu_.RequestExit(static_cast<int64_t>(value));
      return true;
    }
    return false;
  };
  handlers.load = [](uint64_t addr, uint64_t* value, int size) {
    (void)size;
    if (addr == kConsoleAddr || addr == kExitAddr) {
      *value = 0;  // devices read as zero
      return true;
    }
    return false;
  };
  handlers.first = kConsoleAddr;
  handlers.last = kExitAddr + 7;
  cpu_.set_mmio(std::move(handlers));
}

void Soc::LoadProgram(std::span<const uint8_t> image, uint64_t address) {
  memory_.WriteBlock(address, image);
  cpu_.SetImage(address, image.size());
}

ExecStats Soc::Run(uint64_t entry, uint64_t arg0, uint64_t arg1,
                   const ExecLimits& limits) {
  cpu_.Reset(entry, kStackTop);
  cpu_.set_reg(10, arg0);
  cpu_.set_reg(11, arg1);
  return cpu_.Run(limits);
}

}  // namespace eric::sim
