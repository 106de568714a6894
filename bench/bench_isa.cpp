// Per-ISA overhead table for heterogeneous fleets: the same workload
// suite compiled and executed on an RV64GC device and an RV32I device,
// each receiving an own-ISA sealed package through its HDE.
//
// Two questions this answers, per ISA:
//   1. HDE overhead — decrypt-at-load cycles over plain execution
//      cycles (the Fig 7 metric, now split by backend). RV32I images
//      carry no compressed instructions and inline software mul/div
//      helpers, so the static image is larger and the HDE charges more.
//   2. Code size — RV32I image bytes relative to RV64GC for the same
//      sources, the cost of losing the C and M extensions.
//
// Workloads that are not 32-bit clean (their result needs 64-bit
// arithmetic, e.g. crc32's shifted constants) are skipped on RV32I and
// listed in the JSON, so the covered set is explicit rather than
// silently truncated.
//
// A third number is host speed: the simulator's CPU time per simulated
// instruction over every compiled kernel on both ISAs, untraced. Raw
// nanoseconds do not travel between hosts, so each pass over the kernels
// is bracketed by fixed-work spin probes (as in bench_obs) and divided by
// their mean, which cancels the host's clock rate and slow drifts in it;
// the gated value is the median of those calibrated passes.
//
// Emits BENCH_isa.json; gated by bench_compare.py.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/software_source.h"
#include "core/trusted_execution.h"
#include "isa/isa_backend.h"
#include "sim/soc.h"
#include "support/bench_json.h"
#include "workloads/workloads.h"
#include "cpu_probe.h"

using namespace eric;

namespace {

struct WorkloadRun {
  std::string name;
  uint64_t plain_cycles = 0;
  uint64_t hde_cycles = 0;
  uint64_t image_bytes = 0;
  double overhead_pct = 0.0;
  int64_t exit_code = 0;
};

struct IsaRuns {
  std::vector<WorkloadRun> runs;
  std::vector<std::string> skipped;  // name + reason, RV32I only
  double average_overhead_pct = 0.0;
  double max_overhead_pct = 0.0;
  uint64_t total_image_bytes = 0;
};

// A compiled kernel the speed passes run.
struct KernelImage {
  isa::IsaId isa;
  std::vector<uint8_t> bytes;
};

struct SpeedResult {
  double ns_per_instr = 0.0;             ///< median over passes, raw
  double probe_ms = 0.0;                 ///< median spin-probe CPU time
  double calibrated_ns_per_instr = 0.0;  ///< median of ns / probe ms
  uint64_t instructions_per_pass = 0;
};

// Calibrated passes; the median of an odd count is one real pass.
constexpr int kSpeedPasses = 7;

using bench::Median;
using bench::ProcessCpuMs;
using bench::SpinProbeCpuMs;

// Runs every image once on a fresh SoC; returns the CPU nanoseconds
// Soc::Run took per simulated instruction.
double NsPerInstruction(const std::vector<KernelImage>& images,
                        uint64_t* instructions) {
  double cpu_ms = 0.0;
  *instructions = 0;
  for (const KernelImage& image : images) {
    sim::Soc soc({}, image.isa);
    soc.LoadProgram(image.bytes);
    const double before = ProcessCpuMs();
    const sim::ExecStats stats = soc.Run();
    cpu_ms += ProcessCpuMs() - before;
    *instructions += stats.instructions;
  }
  return cpu_ms * 1e6 / static_cast<double>(*instructions);
}

SpeedResult MeasureSpeed(const std::vector<KernelImage>& images) {
  std::vector<double> raw, probes, calibrated;
  SpeedResult result;
  double probe_before = SpinProbeCpuMs();
  for (int pass = 0; pass < kSpeedPasses; ++pass) {
    const double ns = NsPerInstruction(images, &result.instructions_per_pass);
    const double probe_after = SpinProbeCpuMs();
    const double probe = (probe_before + probe_after) / 2;
    raw.push_back(ns);
    probes.push_back(probe);
    calibrated.push_back(ns / probe);
    probe_before = probe_after;
  }
  result.ns_per_instr = Median(raw);
  result.probe_ms = Median(probes);
  result.calibrated_ns_per_instr = Median(calibrated);
  return result;
}

const WorkloadRun* FindRun(const IsaRuns& table, const std::string& name) {
  for (const auto& r : table.runs) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

void Summarize(IsaRuns& table) {
  double sum = 0.0;
  for (const auto& r : table.runs) {
    sum += r.overhead_pct;
    table.max_overhead_pct = std::max(table.max_overhead_pct, r.overhead_pct);
    table.total_image_bytes += r.image_bytes;
  }
  if (!table.runs.empty()) {
    table.average_overhead_pct = sum / static_cast<double>(table.runs.size());
  }
}

void WriteIsaJson(JsonWriter& json, const IsaRuns& table) {
  json.BeginObject();
  json.Key("workloads");
  json.BeginArray();
  for (const auto& r : table.runs) {
    json.BeginObject();
    json.Field("name", r.name);
    json.Field("plain_cycles", r.plain_cycles);
    json.Field("hde_cycles", r.hde_cycles);
    json.Field("image_bytes", r.image_bytes);
    json.Field("overhead_pct", r.overhead_pct);
    json.EndObject();
  }
  json.EndArray();
  json.Key("skipped");
  json.BeginArray();
  for (const auto& s : table.skipped) json.Value(s);
  json.EndArray();
  json.Field("average_overhead_pct", table.average_overhead_pct);
  json.Field("max_overhead_pct", table.max_overhead_pct);
  json.Field("total_image_bytes", table.total_image_bytes);
  json.EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_isa.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_isa [--out FILE]\n");
      return 2;
    }
  }

  crypto::KeyConfig config;
  bool pass = true;

  std::printf("Per-ISA HDE overhead: decrypt-at-load cycles over plain "
              "execution, per backend\n");

  IsaRuns tables[isa::kNumIsaIds];
  std::vector<KernelImage> images;
  for (uint8_t raw = 0; raw < isa::kNumIsaIds; ++raw) {
    const auto isa_id = static_cast<isa::IsaId>(raw);
    // One device per silicon flavor; a distinct seed per ISA keeps the
    // two HDE key schedules independent, like two fleet cohorts.
    core::TrustedDevice device(0x15A0 + raw, config, core::CipherKind::kXor,
                               {}, isa_id);
    core::SoftwareSource source(device.Enroll(), config);
    compiler::CompileOptions options;
    options.isa = isa_id;

    std::printf("\n[%s]\n", std::string(isa::IsaName(isa_id)).c_str());
    std::printf("%-14s %12s %12s %10s %10s\n", "workload", "plain(cyc)",
                "hde(cyc)", "image(B)", "overhead");

    IsaRuns& table = tables[raw];
    for (const auto& w : workloads::AllWorkloads()) {
      auto built = source.CompileAndPackage(w.source,
                                            core::EncryptionPolicy::Full(),
                                            options);
      if (!built.ok()) {
        // RV32I fails closed on sources it cannot honor (64-bit-only
        // constants); that is a skip, not a bench failure.
        if (isa_id != isa::IsaId::kRv64Gc) {
          table.skipped.push_back(w.name + " (compile refused)");
          std::printf("%-14s skipped: compile refused\n", w.name.c_str());
          continue;
        }
        std::printf("%-14s FAILED compile\n", w.name.c_str());
        return 1;
      }
      images.push_back({isa_id, built->compile.program.image});
      const auto plain = device.RunPlaintext(built->compile.program.image);
      if (isa_id != isa::IsaId::kRv64Gc) {
        const WorkloadRun* rv64 = FindRun(tables[0], w.name);
        if (rv64 == nullptr ||
            rv64->exit_code !=
                static_cast<int64_t>(plain.exec.exit_code)) {
          // Result diverges from the 64-bit run: the workload needs
          // 64-bit arithmetic, so it is not a valid RV32I comparison.
          table.skipped.push_back(w.name + " (not 32-bit clean)");
          std::printf("%-14s skipped: not 32-bit clean\n", w.name.c_str());
          continue;
        }
      }
      auto secure =
          device.ReceiveAndRun(pkg::Serialize(built->packaging.package));
      if (!secure.ok() || secure->exec.exit_code != plain.exec.exit_code) {
        std::printf("%-14s FAILED secure run\n", w.name.c_str());
        return 1;
      }
      WorkloadRun run;
      run.name = w.name;
      run.plain_cycles = plain.exec.cycles;
      run.hde_cycles = secure->hde_cycles.total();
      run.image_bytes = built->compile.program.image.size();
      run.overhead_pct = 100.0 * static_cast<double>(run.hde_cycles) /
                         static_cast<double>(run.plain_cycles);
      run.exit_code = static_cast<int64_t>(plain.exec.exit_code);
      std::printf("%-14s %12llu %12llu %10llu %+9.2f%%\n", run.name.c_str(),
                  static_cast<unsigned long long>(run.plain_cycles),
                  static_cast<unsigned long long>(run.hde_cycles),
                  static_cast<unsigned long long>(run.image_bytes),
                  run.overhead_pct);
      table.runs.push_back(std::move(run));
    }
    Summarize(table);
    std::printf("%-14s average +%.2f %%, max +%.2f %%\n", "summary",
                table.average_overhead_pct, table.max_overhead_pct);
  }

  const IsaRuns& rv64 = tables[0];
  const IsaRuns& rv32 = tables[1];

  // RV64GC must cover the whole suite; RV32I must cover a real subset
  // (bitcount is 32-bit clean by construction and must be in it).
  if (rv64.runs.size() != workloads::AllWorkloads().size()) pass = false;
  if (rv32.runs.empty() || FindRun(rv32, "bitcount") == nullptr) pass = false;

  // Code-size ratio over the common subset only — comparing totals over
  // different workload sets would be meaningless.
  uint64_t common_rv64_bytes = 0, common_rv32_bytes = 0;
  for (const auto& r : rv32.runs) {
    const WorkloadRun* base = FindRun(rv64, r.name);
    if (base == nullptr) continue;
    common_rv64_bytes += base->image_bytes;
    common_rv32_bytes += r.image_bytes;
  }
  const double size_pct =
      common_rv64_bytes == 0
          ? 0.0
          : 100.0 * static_cast<double>(common_rv32_bytes) /
                static_cast<double>(common_rv64_bytes);
  if (common_rv64_bytes == 0) pass = false;

  std::printf("\n%-14s rv32i images are %.1f %% the bytes of rv64gc over "
              "the common %zu-workload subset\n", "code size", size_pct,
              rv32.runs.size());

  const SpeedResult speed = MeasureSpeed(images);
  std::printf("%-14s %.2f ns per simulated instruction over %zu kernels "
              "(%llu instructions), %.2f ms spin probe: %.4f calibrated\n",
              "sim speed", speed.ns_per_instr, images.size(),
              static_cast<unsigned long long>(speed.instructions_per_pass),
              speed.probe_ms, speed.calibrated_ns_per_instr);

  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "isa");
  json.Field("policy", "full");
  json.Key("rv64gc");
  WriteIsaJson(json, rv64);
  json.Key("rv32i");
  WriteIsaJson(json, rv32);
  json.Field("rv32_image_bytes_vs_rv64gc_pct", size_pct);
  json.Key("speed");
  json.BeginObject();
  json.Field("kernels", static_cast<uint64_t>(images.size()));
  json.Field("instructions_per_pass", speed.instructions_per_pass);
  json.Field("passes", static_cast<uint64_t>(kSpeedPasses));
  json.Field("ns_per_instr", speed.ns_per_instr);
  json.Field("probe_ms", speed.probe_ms);
  json.Field("calibrated_ns_per_instr", speed.calibrated_ns_per_instr);
  json.EndObject();
  json.Field("pass", pass);
  json.EndObject();
  if (!json.WriteFile(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s\n", out_path);
  return pass ? 0 : 1;
}
