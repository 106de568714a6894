// Content-addressed package cache: compile and encrypt ONCE per
// (program, deployment key, encryption policy), reuse across the fleet.
//
// The naive fleet path re-runs the whole Fig 6 pipeline — compile, sign,
// encrypt, package — for every device. But ERIC's group-key mechanism
// (Sec. III.1) makes the sealed artifact identical for every device that
// shares a deployment key: the text stream, the encryption map, and the
// encrypted signature are all functions of (plaintext program, PUF-based
// key, policy) only. This cache exploits that in two levels:
//
//   level 1  compile cache   digest(source, options)          -> program
//   level 2  artifact cache  digest(program, key, policy, ..) -> wire bytes
//
// A 1000-device single-group campaign therefore compiles once and seals
// once; per-device work drops to delivery + the device's own HDE. Devices
// with distinct keys still share level 1 — only the sealing (sign +
// encrypt + package) is redone per key.
//
// Keys never enter a cache index: level 2 is addressed by SHA-256 over the
// program digest, a key *fingerprint* (SHA-256 of the key), and the policy
// fingerprint, so the cache leaks nothing an attacker with cache access
// could use.
//
// Addresses cost SHA-256 work on every fetch, so the inputs that are
// large and unchanged are hashed once: a campaign derives each program's
// digest once (ProgramAddress) and every artifact carries the digest of
// its wire bytes from the moment it is built (CachedArtifact::wire_digest),
// which is all a delta address needs of its endpoints.
//
// Concurrency: one mutex per level guards its LRU map and its in-flight
// map (single-flight per address). The first caller of a cold address
// builds it outside the lock; concurrent callers of the same address wait
// for that build and count a hit. A failed build reaches every waiter of
// its flight and is not cached, so the next call builds again. An address
// is therefore built once for as long as it stays resident, whoever the
// callers are.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/software_source.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "support/status.h"

namespace eric::fleet {

/// One sealed, wire-ready artifact.
struct CachedArtifact {
  /// Takes the artifact's bytes and records their SHA-256, adding the
  /// compressions that ran to `*sha256_blocks`. The bytes and their
  /// digest are fixed from here on, so `wire_digest` always matches
  /// `wire`.
  CachedArtifact(std::vector<uint8_t> wire_bytes, uint64_t* sha256_blocks);

  const std::vector<uint8_t> wire;  ///< serialized package
  /// SHA-256 of `wire`: what a delta's cache address binds each endpoint
  /// by, hashed once here instead of on every delta lookup.
  const crypto::Sha256Digest wire_digest;
  uint32_t instr_count = 0;         ///< instructions in the sealed text
  double compile_microseconds = 0;  ///< 0 when level 1 hit
  double seal_microseconds = 0;     ///< sign + encrypt + package time
  /// SHA-256 of the deployment key the artifact was sealed under — the
  /// targeted-invalidation address a key-epoch rotation uses to drop
  /// exactly this key's artifacts (see InvalidateKeyFingerprint).
  crypto::Sha256Digest key_fingerprint{};
  /// ISA the sealed text was encoded for. Part of the cache address (via
  /// the compile options), recorded here so delta endpoints can be
  /// checked and campaign stats attributed without re-parsing the wire.
  isa::IsaId isa = isa::IsaId::kRv64Gc;
};

/// Cache counters. Hit/miss/eviction counts are monotonic (sample before
/// and after a campaign for deltas); entries/bytes are point-in-time
/// occupancy recomputed by Stats(). All fields are uint64_t so the
/// struct round-trips losslessly through the metrics registry and the
/// exported JSON (the fields double as the fleet_cache_* metric names,
/// snake_case by construction).
struct PackageCacheStats {
  uint64_t artifact_hits = 0;    ///< sealed artifacts served from cache
  uint64_t artifact_misses = 0;  ///< seal (sign+encrypt+package) builds
  uint64_t compile_hits = 0;     ///< compiled programs served from cache
  uint64_t compile_misses = 0;   ///< compilations performed
  uint64_t evictions = 0;        ///< LRU evictions across both levels
  uint64_t delta_hits = 0;       ///< encoded deltas served from cache
  uint64_t delta_misses = 0;     ///< delta encodings performed
  /// Artifacts dropped by targeted key invalidation (epoch rotation).
  uint64_t invalidations = 0;
  uint64_t artifact_entries = 0; ///< artifacts resident right now
  uint64_t artifact_bytes = 0;   ///< wire bytes resident right now

  /// Fraction of artifact requests served from cache (0 when idle).
  double artifact_hit_rate() const {
    const uint64_t total = artifact_hits + artifact_misses;
    return total == 0 ? 0.0 : static_cast<double>(artifact_hits) / total;
  }
};

/// Cache sizing.
struct PackageCacheConfig {
  size_t max_artifacts = 4096;  ///< level-2 entries (artifacts and deltas)
  size_t max_programs = 1024;   ///< level-1 entries
};

/// A program to seal: its source and compile options, bound to their
/// level-1 cache address (the program digest). A campaign derives one
/// per (source, ISA) and fetches every target's artifact with it, so the
/// source is hashed once per campaign rather than once per fetch.
class ProgramAddress {
 public:
  /// Hashes `source` and `options` into the program digest, adding the
  /// compressions to fleet_cache_address_sha256_blocks. `source` is
  /// viewed, not copied: it must outlive the address.
  ProgramAddress(std::string_view source,
                 const compiler::CompileOptions& options);

  std::string_view source() const { return source_; }
  const compiler::CompileOptions& options() const { return options_; }
  const crypto::Sha256Digest& digest() const { return digest_; }

 private:
  std::string_view source_;
  compiler::CompileOptions options_;
  crypto::Sha256Digest digest_;
};

/// The two-level, LRU-evicted artifact cache.
///
/// Thread-safe: GetOrBuild, Stats, and Clear may race freely; artifacts
/// handed out survive eviction and Clear because callers hold shared
/// ownership.
class PackageCache {
 public:
  /// Builds an empty cache sized by `config`.
  explicit PackageCache(const PackageCacheConfig& config = {});

  /// Returns the wire bytes for `source` sealed under `key` with `policy`,
  /// building (compile and/or seal) only on miss. The returned pointer is
  /// immutable and safe to hold across evictions. A caller that waited
  /// out another caller's build of the same address counts a hit.
  ///
  /// When `call_stats` is non-null, this call's own hit/miss events are
  /// accumulated into it — the per-caller attribution that the global
  /// Stats() counters cannot provide once multiple campaigns share a cache.
  Result<std::shared_ptr<const CachedArtifact>> GetOrBuild(
      std::string_view source, const crypto::Key256& key,
      const crypto::KeyConfig& key_config, const core::EncryptionPolicy& policy,
      core::CipherKind cipher = core::CipherKind::kXor,
      const compiler::CompileOptions& options = {},
      PackageCacheStats* call_stats = nullptr);

  /// GetOrBuild for a program whose level-1 address is already derived:
  /// the same artifact, without re-hashing the source.
  Result<std::shared_ptr<const CachedArtifact>> GetOrBuild(
      const ProgramAddress& program, const crypto::Key256& key,
      const crypto::KeyConfig& key_config, const core::EncryptionPolicy& policy,
      core::CipherKind cipher = core::CipherKind::kXor,
      PackageCacheStats* call_stats = nullptr);

  /// Returns the delta package rewriting `base`'s wire bytes into
  /// `target`'s, encoding only on miss. Both artifacts must be sealed
  /// under the same key; the cache address binds the exact wire content
  /// of both sides (each one's `wire_digest`), so any re-seal — new
  /// program, new policy, new key epoch — addresses a different delta.
  /// The entry is stored as a CachedArtifact whose `wire` holds the
  /// encoded delta and whose key_fingerprint is the sealing key's, so a
  /// key-epoch rotation's InvalidateKeyFingerprint drops the retired
  /// key's deltas together with its full artifacts. kInvalidArgument
  /// when the two artifacts were sealed under different keys.
  ///
  /// Delta entries share the artifact level (and its LRU budget) but
  /// count in the separate delta_hits/delta_misses stats.
  Result<std::shared_ptr<const CachedArtifact>> GetOrBuildDelta(
      const CachedArtifact& base, const CachedArtifact& target,
      PackageCacheStats* call_stats = nullptr);

  /// Monotonic hit/miss/eviction counters plus current occupancy.
  PackageCacheStats Stats() const;

  /// Drops every entry (the blunt rotation hook; prefer the targeted
  /// InvalidateKeyFingerprint when only one group's key rotated).
  void Clear();

  /// Drops every artifact sealed under the key whose SHA-256 matches
  /// `key_fingerprint`, leaving other keys' artifacts — and the whole
  /// key-independent compile cache — hot. Returns the number dropped.
  /// This is the epoch-rotation hook: rotating one group invalidates
  /// that group's sealed packages only, so a shared cache keeps serving
  /// every other group without a re-seal. Handed-out artifacts survive
  /// (callers hold shared ownership). Thread-safe against GetOrBuild; a
  /// build racing the invalidation may re-insert a stale-epoch artifact,
  /// which is harmless — its address includes the old key fingerprint,
  /// so no new-epoch request can ever hit it, and devices reject it.
  size_t InvalidateKeyFingerprint(const crypto::Sha256Digest& key_fingerprint);

 private:
  using Digest = crypto::Sha256Digest;

  struct DigestHash {
    size_t operator()(const Digest& d) const {
      size_t h;
      static_assert(sizeof(h) <= sizeof(Digest));
      std::memcpy(&h, d.data(), sizeof(h));
      return h;
    }
  };

  /// One LRU-evicted cache level. `Entry` is shared_ptr so readers keep
  /// artifacts alive after eviction. `flights` holds the builds in
  /// progress: an address is in `map` or `flights` from the moment its
  /// first caller claims it, so no second build of it can start.
  template <typename Entry>
  struct Level {
    using Flight = std::shared_future<Result<std::shared_ptr<const Entry>>>;
    mutable std::mutex mutex;
    std::list<Digest> lru;  ///< front = most recent
    struct Slot {
      std::shared_ptr<const Entry> entry;
      std::list<Digest>::iterator lru_it;
    };
    std::unordered_map<Digest, Slot, DigestHash> map;
    std::unordered_map<Digest, Flight, DigestHash> flights;
  };

  struct CachedProgram {
    compiler::CompiledProgram program;
    double compile_microseconds = 0;
  };

  /// Returns the entry at `digest`: resident, awaited from an in-flight
  /// build, or built here by `build` (then `*built` is set). A successful
  /// build is inserted LRU-first; a failed one is handed to its waiters
  /// and forgotten.
  template <typename Entry, typename Build>
  Result<std::shared_ptr<const Entry>> Lookup(Level<Entry>& level,
                                              const Digest& digest,
                                              size_t capacity, bool* built,
                                              Build&& build);

  PackageCacheConfig config_;
  Level<CachedProgram> programs_;
  Level<CachedArtifact> artifacts_;

  /// The monotonic counters, migrated from a mutex-guarded struct onto
  /// wait-free obs::Counter atomics. Stats() renders them back into a
  /// PackageCacheStats so the old accessor keeps its exact shape; every
  /// event also bumps the process-wide fleet_cache_* registry counters.
  struct AtomicCounters {
    obs::Counter artifact_hits;
    obs::Counter artifact_misses;
    obs::Counter compile_hits;
    obs::Counter compile_misses;
    obs::Counter evictions;
    obs::Counter delta_hits;
    obs::Counter delta_misses;
    obs::Counter invalidations;
  };
  AtomicCounters counters_;
};

/// Absorbs a little-endian u64 into a SHA-256 stream. One definition
/// for every fleet fingerprint (cache addresses, policy/key-config
/// fingerprints, program-version fingerprints) so the absorb scheme can
/// never diverge between them.
inline void Sha256AbsorbU64(crypto::Sha256& hasher, uint64_t value) {
  std::array<uint8_t, 8> bytes;
  for (int i = 0; i < 8; ++i) {
    bytes[static_cast<size_t>(i)] = static_cast<uint8_t>(value >> (8 * i));
  }
  hasher.Update(bytes);
}

/// Absorbs a length-prefixed byte run (the prefix removes concatenation
/// ambiguity between adjacent variable-length fields).
inline void Sha256AbsorbBytes(crypto::Sha256& hasher,
                              std::span<const uint8_t> bytes) {
  Sha256AbsorbU64(hasher, bytes.size());
  hasher.Update(bytes);
}

/// Absorbs a length-prefixed string.
inline void Sha256AbsorbString(crypto::Sha256& hasher,
                               std::string_view text) {
  Sha256AbsorbBytes(hasher, {reinterpret_cast<const uint8_t*>(text.data()),
                             text.size()});
}

/// SHA-256 fingerprint of a deployment key: the level-2 cache-address
/// component and the targeted-invalidation address. The raw key never
/// enters a cache index. Each fingerprint adds the SHA-256 compressions
/// it ran to `*sha256_blocks` when that is non-null (the cache's
/// fleet_cache_address_sha256_blocks accounting).
crypto::Sha256Digest FingerprintKey(const crypto::Key256& key,
                                    uint64_t* sha256_blocks = nullptr);
/// Stable fingerprint of an encryption policy, used to form cache
/// addresses (exposed for tests).
crypto::Sha256Digest FingerprintPolicy(const core::EncryptionPolicy& policy,
                                       uint64_t* sha256_blocks = nullptr);
/// Stable fingerprint of a key-derivation config (domain, epoch,
/// binding), used to form cache addresses (exposed for tests).
crypto::Sha256Digest FingerprintKeyConfig(const crypto::KeyConfig& config,
                                          uint64_t* sha256_blocks = nullptr);

}  // namespace eric::fleet
