// eric_enroll — device enrollment station (fab side).
//
// Simulates enrolling a device's PUF and prints the PUF-based key the
// software source needs for the handshake.
//
//   eric_enroll --device-seed 0xC0FFEE [--epoch N] [--domain NAME]
#include <cstdio>
#include <cstring>
#include <string>

#include "core/trusted_execution.h"
#include "support/hex.h"
#include "support/parse_number.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: eric_enroll --device-seed SEED [--epoch N] "
               "[--domain NAME]\n");
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t device_seed = 0;
  bool have_seed = false;
  eric::crypto::KeyConfig config;
  static std::string domain;  // keeps the string_view in config alive

  for (int i = 1; i < argc; ++i) {
    // A malformed number is refused, never truncated or wrapped.
    bool parsed = true;
    const auto number = [&](uint64_t* field) {
      parsed = eric::ParseUnsigned(argv[++i], field);
      if (!parsed) {
        std::fprintf(stderr, "%s: not a number: %s\n", argv[i - 1], argv[i]);
      }
    };
    if (std::strcmp(argv[i], "--device-seed") == 0 && i + 1 < argc) {
      number(&device_seed);
      have_seed = true;
    } else if (std::strcmp(argv[i], "--epoch") == 0 && i + 1 < argc) {
      number(&config.epoch);
    } else if (std::strcmp(argv[i], "--domain") == 0 && i + 1 < argc) {
      domain = argv[++i];
      config.domain = domain;
    } else {
      parsed = false;
    }
    if (!parsed) {
      Usage();
      return 2;
    }
  }
  if (!have_seed) {
    Usage();
    return 2;
  }

  eric::core::TrustedDevice device(device_seed, config);
  const eric::crypto::Key256 key = device.Enroll();
  std::printf("device-seed:   0x%llx\n",
              static_cast<unsigned long long>(device_seed));
  std::printf("key-epoch:     %llu\n",
              static_cast<unsigned long long>(config.epoch));
  std::printf("puf-based-key: %s\n",
              eric::HexEncode(std::span<const uint8_t>(key.data(), key.size()))
                  .c_str());
  return 0;
}
