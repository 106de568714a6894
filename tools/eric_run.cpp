// eric_run — the target device as a command-line tool: receive a package
// file, validate it through the HDE, and execute it on the simulated SoC.
//
//   eric_run --package prog.pkg --device-seed 0xC0FFEE
//            [--epoch N] [--arg0 X] [--arg1 Y] [--max-instructions N]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/trusted_execution.h"
#include "support/parse_number.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: eric_run --package FILE --device-seed SEED\n"
               "                [--epoch N] [--arg0 X] [--arg1 Y]\n"
               "                [--max-instructions N]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string package_path;
  uint64_t device_seed = 0, arg0 = 0, arg1 = 0;
  bool have_seed = false;
  eric::crypto::KeyConfig config;
  eric::sim::ExecLimits limits;

  for (int i = 1; i < argc; ++i) {
    auto arg = [&](const char* name) {
      return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
    };
    // A malformed number is refused, never truncated or wrapped.
    bool parsed = true;
    const auto number = [&](uint64_t* field) {
      parsed = eric::ParseUnsigned(argv[++i], field);
      if (!parsed) {
        std::fprintf(stderr, "%s: not a number: %s\n", argv[i - 1], argv[i]);
      }
    };
    if (arg("--package")) {
      package_path = argv[++i];
    } else if (arg("--device-seed")) {
      number(&device_seed);
      have_seed = true;
    } else if (arg("--epoch")) {
      number(&config.epoch);
    } else if (arg("--arg0")) {
      number(&arg0);
    } else if (arg("--arg1")) {
      number(&arg1);
    } else if (arg("--max-instructions")) {
      number(&limits.max_instructions);
    } else {
      parsed = false;
    }
    if (!parsed) {
      Usage();
      return 2;
    }
  }
  if (package_path.empty() || !have_seed) {
    Usage();
    return 2;
  }

  std::ifstream in(package_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", package_path.c_str());
    return 1;
  }
  std::vector<uint8_t> wire((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());

  eric::core::TrustedDevice device(device_seed, config);
  device.Enroll();
  auto run = device.ReceiveAndRun(wire, arg0, arg1, limits);
  if (!run.ok()) {
    std::fprintf(stderr, "REJECTED: %s\n", run.status().ToString().c_str());
    return 1;
  }
  if (!run->console_output.empty()) {
    std::printf("%s", run->console_output.c_str());
    if (run->console_output.back() != '\n') std::printf("\n");
  }
  std::printf("exit code:        %lld\n",
              static_cast<long long>(run->exec.exit_code));
  std::printf("instructions:     %llu\n",
              static_cast<unsigned long long>(run->exec.instructions));
  std::printf("cycles:           %llu (+ %llu HDE load-path)\n",
              static_cast<unsigned long long>(run->exec.cycles),
              static_cast<unsigned long long>(run->hde_cycles.total()));
  std::printf("modeled time:     %.3f ms at 25 MHz\n",
              1e3 * eric::sim::Soc::CyclesToSeconds(run->total_cycles()));
  return static_cast<int>(run->exec.exit_code & 0xFF);
}
