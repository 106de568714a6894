#include "fleet/package_cache.h"

#include <chrono>

#include "obs/trace.h"
#include "pkg/delta.h"
#include "pkg/package.h"
#include "support/stopwatch.h"

namespace eric::fleet {

namespace {

// Process-wide mirrors of the cache counters plus the seal-path latency
// histograms. Resolved once; afterwards each event is one extra relaxed
// add on top of the per-instance counter. Per-instance counters stay
// authoritative for Stats() (a process may run several caches), the
// registry aggregates across all of them for export.
struct CacheMetrics {
  obs::Counter& artifact_hits;
  obs::Counter& artifact_misses;
  obs::Counter& compile_hits;
  obs::Counter& compile_misses;
  obs::Counter& evictions;
  obs::Counter& delta_hits;
  obs::Counter& delta_misses;
  obs::Counter& invalidations;
  obs::Counter& address_sha256_blocks;
  obs::Histogram& compile_us;
  obs::Histogram& seal_us;
  obs::Histogram& delta_encode_us;

  static CacheMetrics& Get() {
    static auto& registry = obs::MetricsRegistry::Global();
    static CacheMetrics metrics{
        registry.GetCounter("fleet_cache_artifact_hits"),
        registry.GetCounter("fleet_cache_artifact_misses"),
        registry.GetCounter("fleet_cache_compile_hits"),
        registry.GetCounter("fleet_cache_compile_misses"),
        registry.GetCounter("fleet_cache_evictions"),
        registry.GetCounter("fleet_cache_delta_hits"),
        registry.GetCounter("fleet_cache_delta_misses"),
        registry.GetCounter("fleet_cache_invalidations"),
        registry.GetCounter("fleet_cache_address_sha256_blocks"),
        registry.GetHistogram("fleet_compile_us"),
        registry.GetHistogram("fleet_seal_us"),
        registry.GetHistogram("fleet_delta_encode_us"),
    };
    return metrics;
  }
};

// Counts one cache event on the caller's own stats (when given), on the
// instance counter behind Stats(), and on the process-wide mirror.
void CountEvent(uint64_t PackageCacheStats::*field,
                PackageCacheStats* call_stats, obs::Counter& instance,
                obs::Counter& global) {
  if (call_stats != nullptr) ++(call_stats->*field);
  instance.Add();
  global.Add();
}

// Finishes `hasher`, adding the compressions it ran to `*blocks` when
// the caller counts them.
crypto::Sha256Digest FinishCounted(crypto::Sha256& hasher, uint64_t* blocks) {
  const crypto::Sha256Digest digest = hasher.Finish();
  if (blocks != nullptr) *blocks += hasher.blocks_processed();
  return digest;
}

}  // namespace

crypto::Sha256Digest FingerprintKey(const crypto::Key256& key,
                                    uint64_t* sha256_blocks) {
  crypto::Sha256 hasher;
  hasher.Update(key);
  return FinishCounted(hasher, sha256_blocks);
}

crypto::Sha256Digest FingerprintPolicy(const core::EncryptionPolicy& policy,
                                       uint64_t* sha256_blocks) {
  crypto::Sha256 hasher;
  Sha256AbsorbString(hasher, "eric.fleet.policy.v1");
  Sha256AbsorbU64(hasher, static_cast<uint64_t>(policy.mode));
  Sha256AbsorbU64(hasher, static_cast<uint64_t>(policy.strategy));
  uint64_t fraction_bits;
  static_assert(sizeof(fraction_bits) == sizeof(policy.fraction));
  std::memcpy(&fraction_bits, &policy.fraction, sizeof(fraction_bits));
  Sha256AbsorbU64(hasher, fraction_bits);
  Sha256AbsorbU64(hasher, policy.stride);
  Sha256AbsorbU64(hasher, policy.selection_seed);
  Sha256AbsorbU64(hasher, policy.field_specs.size());
  for (const auto& spec : policy.field_specs) {
    const std::array<uint8_t, 3> bytes = {spec.op_class, spec.bit_lo,
                                          spec.bit_hi};
    hasher.Update(bytes);
  }
  return FinishCounted(hasher, sha256_blocks);
}

crypto::Sha256Digest FingerprintKeyConfig(const crypto::KeyConfig& config,
                                          uint64_t* sha256_blocks) {
  crypto::Sha256 hasher;
  Sha256AbsorbString(hasher, "eric.fleet.keyconfig.v1");
  Sha256AbsorbU64(hasher, config.epoch);
  Sha256AbsorbString(hasher, config.domain);
  Sha256AbsorbU64(hasher, config.environment_binding);
  return FinishCounted(hasher, sha256_blocks);
}

CachedArtifact::CachedArtifact(std::vector<uint8_t> wire_bytes,
                               uint64_t* sha256_blocks)
    : wire(std::move(wire_bytes)), wire_digest([&] {
        crypto::Sha256 hasher;
        hasher.Update(wire);
        return FinishCounted(hasher, sha256_blocks);
      }()) {}

ProgramAddress::ProgramAddress(std::string_view source,
                               const compiler::CompileOptions& options)
    : source_(source), options_(options) {
  // The plaintext program identity. The target ISA is part of it — the
  // same source compiled for RV64GC and RV32I yields two different
  // programs, and (through the program digest) two different artifact
  // addresses, so a mixed fleet can never be served a cross-ISA image
  // from cache.
  crypto::Sha256 hasher;
  Sha256AbsorbString(hasher, "eric.fleet.program.v1");
  Sha256AbsorbString(hasher, source);
  Sha256AbsorbU64(hasher, options.optimize ? 1 : 0);
  Sha256AbsorbU64(hasher, options.compress ? 1 : 0);
  Sha256AbsorbU64(hasher, static_cast<uint64_t>(options.opt_rounds));
  Sha256AbsorbU64(hasher, static_cast<uint64_t>(options.isa));
  uint64_t blocks = 0;
  digest_ = FinishCounted(hasher, &blocks);
  CacheMetrics::Get().address_sha256_blocks.Add(blocks);
}

PackageCache::PackageCache(const PackageCacheConfig& config)
    : config_(config) {}

template <typename Entry, typename Build>
Result<std::shared_ptr<const Entry>> PackageCache::Lookup(
    Level<Entry>& level, const Digest& digest, size_t capacity, bool* built,
    Build&& build) {
  using Built = Result<std::shared_ptr<const Entry>>;
  std::unique_lock lock(level.mutex);
  if (auto it = level.map.find(digest); it != level.map.end()) {
    level.lru.splice(level.lru.begin(), level.lru, it->second.lru_it);
    return it->second.entry;
  }
  if (auto it = level.flights.find(digest); it != level.flights.end()) {
    const typename Level<Entry>::Flight flight = it->second;
    lock.unlock();
    return flight.get();
  }
  std::promise<Built> promise;
  level.flights.emplace(digest, promise.get_future().share());
  lock.unlock();

  *built = true;
  Built result = build();
  lock.lock();
  level.flights.erase(digest);
  if (result.ok()) {
    level.lru.push_front(digest);
    level.map.emplace(digest,
                      typename Level<Entry>::Slot{*result, level.lru.begin()});
    while (level.map.size() > capacity) {
      level.map.erase(level.lru.back());
      level.lru.pop_back();
      counters_.evictions.Add();
      CacheMetrics::Get().evictions.Add();
    }
  }
  lock.unlock();
  promise.set_value(result);
  return result;
}

Result<std::shared_ptr<const CachedArtifact>> PackageCache::GetOrBuild(
    std::string_view source, const crypto::Key256& key,
    const crypto::KeyConfig& key_config, const core::EncryptionPolicy& policy,
    core::CipherKind cipher, const compiler::CompileOptions& options,
    PackageCacheStats* call_stats) {
  return GetOrBuild(ProgramAddress(source, options), key, key_config, policy,
                    cipher, call_stats);
}

Result<std::shared_ptr<const CachedArtifact>> PackageCache::GetOrBuild(
    const ProgramAddress& program, const crypto::Key256& key,
    const crypto::KeyConfig& key_config, const core::EncryptionPolicy& policy,
    core::CipherKind cipher, PackageCacheStats* call_stats) {
  // Level-2 address: program x key fingerprint x policy x cipher. The raw
  // key is hashed, never stored.
  uint64_t address_blocks = 0;
  const crypto::Sha256Digest key_fingerprint =
      FingerprintKey(key, &address_blocks);
  crypto::Sha256 artifact_hasher;
  Sha256AbsorbString(artifact_hasher, "eric.fleet.artifact.v1");
  artifact_hasher.Update(program.digest());
  artifact_hasher.Update(key_fingerprint);
  artifact_hasher.Update(FingerprintPolicy(policy, &address_blocks));
  artifact_hasher.Update(FingerprintKeyConfig(key_config, &address_blocks));
  Sha256AbsorbU64(artifact_hasher, static_cast<uint64_t>(cipher));
  const Digest artifact_digest =
      FinishCounted(artifact_hasher, &address_blocks);

  CacheMetrics& metrics = CacheMetrics::Get();
  // Artifact miss: get the compiled program (level 1), then seal.
  const auto seal = [&]() -> Result<std::shared_ptr<const CachedArtifact>> {
    bool compiled = false;
    auto compiled_program = Lookup(
        programs_, program.digest(), config_.max_programs, &compiled,
        [&]() -> Result<std::shared_ptr<const CachedProgram>> {
          obs::ScopedSpan span("compile");
          const auto start = std::chrono::steady_clock::now();
          auto result =
              compiler::Compile(program.source(), program.options());
          if (!result.ok()) {
            span.set_ok(false);
            return result.status();
          }
          auto fresh = std::make_shared<CachedProgram>();
          fresh->compile_microseconds = MicrosecondsSince(start);
          metrics.compile_us.Record(fresh->compile_microseconds);
          fresh->program = std::move(result->program);
          return std::shared_ptr<const CachedProgram>(std::move(fresh));
        });
    if (!compiled_program.ok()) return compiled_program.status();
    if (compiled) {
      CountEvent(&PackageCacheStats::compile_misses, call_stats,
                 counters_.compile_misses, metrics.compile_misses);
    } else {
      CountEvent(&PackageCacheStats::compile_hits, call_stats,
                 counters_.compile_hits, metrics.compile_hits);
    }

    obs::ScopedSpan seal_span("seal");
    const auto seal_start = std::chrono::steady_clock::now();
    core::SoftwareSource sealer(key, key_config, cipher);
    auto packaged = sealer.BuildPackage((*compiled_program)->program, policy);
    if (!packaged.ok()) {
      seal_span.set_ok(false);
      return packaged.status();
    }
    auto artifact = std::make_shared<CachedArtifact>(
        pkg::Serialize(packaged->package), &address_blocks);
    artifact->instr_count = packaged->package.instr_count;
    artifact->compile_microseconds =
        compiled ? (*compiled_program)->compile_microseconds : 0;
    artifact->seal_microseconds = MicrosecondsSince(seal_start);
    artifact->key_fingerprint = key_fingerprint;
    artifact->isa = program.options().isa;
    metrics.seal_us.Record(artifact->seal_microseconds);
    return std::shared_ptr<const CachedArtifact>(std::move(artifact));
  };

  bool sealed = false;
  auto artifact = Lookup(artifacts_, artifact_digest, config_.max_artifacts,
                         &sealed, seal);
  metrics.address_sha256_blocks.Add(address_blocks);
  if (!artifact.ok()) return artifact.status();
  if (sealed) {
    CountEvent(&PackageCacheStats::artifact_misses, call_stats,
               counters_.artifact_misses, metrics.artifact_misses);
  } else {
    CountEvent(&PackageCacheStats::artifact_hits, call_stats,
               counters_.artifact_hits, metrics.artifact_hits);
  }
  return artifact;
}

Result<std::shared_ptr<const CachedArtifact>> PackageCache::GetOrBuildDelta(
    const CachedArtifact& base, const CachedArtifact& target,
    PackageCacheStats* call_stats) {
  if (!(base.key_fingerprint == target.key_fingerprint)) {
    return Status(ErrorCode::kInvalidArgument,
                  "delta endpoints sealed under different keys");
  }
  // Delta bases never cross ISAs: a patch computed between images of
  // different ISAs would pass delta CRCs yet hand a device an image it
  // cannot execute. Refuse at encode time, not just at apply time.
  if (base.isa != target.isa) {
    return Status(ErrorCode::kInvalidArgument,
                  "delta endpoints encoded for different isas");
  }
  // Address by the exact wire content of both sides: a delta is only
  // reusable against byte-identical endpoints, and binding the wires'
  // digests (instead of trusting caller-supplied version labels) makes a
  // stale label a miss, never a wrong patch.
  uint64_t address_blocks = 0;
  crypto::Sha256 hasher;
  Sha256AbsorbString(hasher, "eric.fleet.delta.v1");
  hasher.Update(base.wire_digest);
  hasher.Update(target.wire_digest);
  const Digest digest = FinishCounted(hasher, &address_blocks);

  CacheMetrics& metrics = CacheMetrics::Get();
  bool encoded = false;
  auto delta = Lookup(
      artifacts_, digest, config_.max_artifacts, &encoded,
      [&]() -> Result<std::shared_ptr<const CachedArtifact>> {
        obs::ScopedSpan span("delta_encode");
        const auto start = std::chrono::steady_clock::now();
        auto entry = std::make_shared<CachedArtifact>(
            pkg::EncodeDelta(base.wire, target.wire), &address_blocks);
        entry->instr_count = target.instr_count;
        entry->seal_microseconds = MicrosecondsSince(start);
        entry->key_fingerprint = target.key_fingerprint;
        entry->isa = target.isa;
        metrics.delta_encode_us.Record(entry->seal_microseconds);
        return std::shared_ptr<const CachedArtifact>(std::move(entry));
      });
  metrics.address_sha256_blocks.Add(address_blocks);
  if (encoded) {
    CountEvent(&PackageCacheStats::delta_misses, call_stats,
               counters_.delta_misses, metrics.delta_misses);
  } else {
    CountEvent(&PackageCacheStats::delta_hits, call_stats,
               counters_.delta_hits, metrics.delta_hits);
  }
  return delta;
}

PackageCacheStats PackageCache::Stats() const {
  // Thin wrapper over the atomic counters: same struct the pre-registry
  // API returned, now assembled from relaxed loads instead of a lock.
  PackageCacheStats stats;
  stats.artifact_hits = counters_.artifact_hits.value();
  stats.artifact_misses = counters_.artifact_misses.value();
  stats.compile_hits = counters_.compile_hits.value();
  stats.compile_misses = counters_.compile_misses.value();
  stats.evictions = counters_.evictions.value();
  stats.delta_hits = counters_.delta_hits.value();
  stats.delta_misses = counters_.delta_misses.value();
  stats.invalidations = counters_.invalidations.value();
  std::lock_guard lock(artifacts_.mutex);
  stats.artifact_entries = artifacts_.map.size();
  for (const auto& [digest, slot] : artifacts_.map) {
    stats.artifact_bytes += slot.entry->wire.size();
  }
  return stats;
}

size_t PackageCache::InvalidateKeyFingerprint(
    const crypto::Sha256Digest& key_fingerprint) {
  size_t dropped = 0;
  {
    std::lock_guard lock(artifacts_.mutex);
    for (auto it = artifacts_.map.begin(); it != artifacts_.map.end();) {
      if (it->second.entry->key_fingerprint == key_fingerprint) {
        artifacts_.lru.erase(it->second.lru_it);
        it = artifacts_.map.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  if (dropped > 0) {
    counters_.invalidations.Add(dropped);
    CacheMetrics::Get().invalidations.Add(dropped);
  }
  return dropped;
}

void PackageCache::Clear() {
  {
    std::lock_guard lock(programs_.mutex);
    programs_.map.clear();
    programs_.lru.clear();
  }
  std::lock_guard lock(artifacts_.mutex);
  artifacts_.map.clear();
  artifacts_.lru.clear();
}

}  // namespace eric::fleet
