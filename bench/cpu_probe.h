// CPU-time helpers for the benches that calibrate against host speed
// (bench_obs, bench_isa).
#pragma once

#include <ctime>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace eric::bench {

/// Process CPU time in milliseconds: the sum over all threads.
inline double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e3 + ts.tv_nsec * 1e-6;
}

/// Fixed-work calibration probe: the CPU time this loop takes tracks the
/// host's effective clock rate, so dividing a measured CPU time by the
/// bracketing probes' cancels rate epochs. Tens of ms per probe — long
/// enough that timer quantization is < 0.1% of the reading.
inline double SpinProbeCpuMs() {
  // Keeps the compiler from dropping the loop.
  static volatile uint64_t sink = 0;
  constexpr size_t kIters = 20'000'000;
  const double before = ProcessCpuMs();
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (size_t i = 0; i < kIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  return ProcessCpuMs() - before;
}

/// The middle value (the upper middle for an even count).
inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

}  // namespace eric::bench
