// eric_pack — the software source as a command-line tool (the paper's
// GUI, minus the pixels): compile an EricC source file, sign it, encrypt
// it for a device key, and write the program package.
//
//   eric_pack --source prog.ec --key <64-hex> --out prog.pkg
//             [--mode full|partial|field|none] [--fraction 0.5]
//             [--epoch N] [--no-compress]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/encryption_policy.h"
#include "core/software_source.h"
#include "support/hex.h"
#include "support/parse_number.h"

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: eric_pack --source FILE --key HEX64 --out FILE\n"
      "                 [--mode full|partial|field|none] [--fraction F]\n"
      "                 [--epoch N] [--no-compress]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string source_path, out_path, key_hex, mode = "full";
  double fraction = 0.5;
  eric::crypto::KeyConfig config;
  eric::compiler::CompileOptions options;

  for (int i = 1; i < argc; ++i) {
    auto arg = [&](const char* name) {
      return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
    };
    // A malformed number is refused, never truncated or wrapped; a
    // fraction outside [0, 1] would silently select all or nothing.
    bool parsed = true;
    const auto refuse = [&](const char* why) {
      std::fprintf(stderr, "%s: %s: %s\n", argv[i - 1], why, argv[i]);
      parsed = false;
    };
    if (arg("--source")) {
      source_path = argv[++i];
    } else if (arg("--key")) {
      key_hex = argv[++i];
    } else if (arg("--out")) {
      out_path = argv[++i];
    } else if (arg("--mode")) {
      mode = argv[++i];
    } else if (arg("--fraction")) {
      if (!eric::ParseReal(argv[++i], &fraction)) {
        refuse("not a number");
      } else if (fraction < 0.0 || fraction > 1.0) {
        refuse("out of range [0, 1]");
      }
    } else if (arg("--epoch")) {
      if (!eric::ParseUnsigned(argv[++i], &config.epoch)) {
        refuse("not a number");
      }
    } else if (std::strcmp(argv[i], "--no-compress") == 0) {
      options.compress = false;
    } else {
      parsed = false;
    }
    if (!parsed) {
      Usage();
      return 2;
    }
  }
  if (source_path.empty() || out_path.empty() || key_hex.size() != 64) {
    Usage();
    return 2;
  }

  std::ifstream in(source_path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", source_path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  auto key_bytes = eric::HexDecode(key_hex);
  if (!key_bytes.ok() || key_bytes->size() != 32) {
    std::fprintf(stderr, "--key must be 64 hex chars\n");
    return 1;
  }
  eric::crypto::Key256 key;
  std::copy(key_bytes->begin(), key_bytes->end(), key.begin());

  eric::core::EncryptionPolicy policy;
  if (mode == "full") {
    policy = eric::core::EncryptionPolicy::Full();
  } else if (mode == "partial") {
    policy = eric::core::EncryptionPolicy::PartialRandom(fraction);
  } else if (mode == "field") {
    policy = eric::core::EncryptionPolicy::FieldLevelPointers();
    options.compress = false;  // field rules address 32-bit encodings
  } else if (mode == "none") {
    policy = eric::core::EncryptionPolicy::None();
  } else {
    Usage();
    return 2;
  }

  eric::core::SoftwareSource source(key, config);
  auto built = source.CompileAndPackage(buffer.str(), policy, options);
  if (!built.ok()) {
    std::fprintf(stderr, "error: %s\n", built.status().ToString().c_str());
    return 1;
  }
  const auto wire = eric::pkg::Serialize(built->packaging.package);
  std::ofstream out(out_path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(wire.data()),
            static_cast<long>(wire.size()));
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }

  std::printf("compiled:  %u instructions (%zu bytes text, %.0f %% RVC)\n",
              built->compile.program.stats.total_instructions,
              built->compile.program.text_bytes,
              100.0 * built->compile.program.stats.compressed_fraction());
  std::printf("mode:      %s\n",
              std::string(
                  eric::pkg::EncryptionModeName(built->packaging.package.mode))
                  .c_str());
  std::printf("package:   %zu bytes -> %s\n", wire.size(), out_path.c_str());
  std::printf("timings:   compile %.1f us + eric %.1f us\n",
              built->compile.TotalMicroseconds(),
              built->packaging.timings.total());
  return 0;
}
