#pragma once

// A shared, thread-safe memo of per-file compilations.
//
// The derivation rules collapse many (compiler, -O, switches) triples onto
// the same per-file floating-point semantics and cost -- inert flags,
// equivalent fp-models, same-family optimization levels -- so most of the
// 244-point study space recompiles a file into an object whose bindings
// already exist.  The cache therefore keys on the *derived-semantics
// fingerprint* of a compilation, not the raw triple: a fingerprint over
// derive_semantics(c) and derive_cost(c) (plus, for -fPIC objects, the
// canonical compilation string, because the -fPIC inlining-loss predicate
// is seeded by it).  Two compilations with equal fingerprints produce
// byte-for-byte identical code, so the cache stores one immutable, shared
// ObjectCode per key and a hit returns a new handle to it carrying the
// *requested* Compilation -- no code is copied.  The raw `comp` still
// matters downstream (ABI-hazard predicates hash it), which is why the
// Compilation itself cannot be the key *or* be cached; it lives in the
// per-handle ObjectFile instead.  Shared code is never mutated: objcopy
// copies before rewriting (objcopy.h), and a handle keeps its code alive
// after the entry is evicted or the cache cleared.
//
// The cache is shared across threads of the parallel study engine and
// across serial Bisect drivers (which relink far more often than they need
// to recompile); all methods are safe for concurrent use.
//
// Bounded memory: set_budget(bytes) caps the cache's resident footprint
// for long-lived deployments (the study service shares one cache across
// every tenant).  Eviction is LRU over *semantics-fingerprint groups*: all
// entries whose compilation collapses onto one non-fPIC fingerprint --
// the affinity placement's co-location unit -- age together, so evicting
// reclaims a whole group's objects at once and a half-resident group never
// lingers (a study that needs one member of a group almost always needs
// them all).  Eviction only ever changes wall-clock and hit/miss tallies:
// a rebuilt entry is byte-identical to the evicted one (fingerprint
// equality implies binding equality), so cached -- or evicted -- contents
// can never alter study results.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "toolchain/object.h"

namespace flit::toolchain {

/// Deterministic approximation of an object's resident footprint, the
/// unit of the cache budget.  A pure function of the object's contents
/// (never of allocator or padding details), so budget-driven eviction
/// decisions are reproducible across runs and platforms.
[[nodiscard]] std::uint64_t approx_object_bytes(const ObjectFile& obj);

class CompilationCache {
 public:
  /// Hit/miss/eviction tallies.  A value type with additive merge: the
  /// distributed engine runs one cache per shard and sums the per-shard
  /// stats into an aggregate hit-rate report instead of recomputing from
  /// scratch.  The subtractive merge is the complement: the study service
  /// snapshots the shared cache around each tenant's batch and attributes
  /// the delta, so per-tenant stats sum back to the aggregate exactly.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    /// Entries removed by the bounded-memory policy or clear(), counted
    /// per entry (a wholesale clear of N entries is N evictions).
    std::uint64_t evictions = 0;

    /// approx_object_bytes totals of every entry ever inserted / evicted.
    /// Both are monotone counters (so deltas subtract cleanly); the
    /// difference is the cache's current resident footprint.
    std::uint64_t inserted_bytes = 0;
    std::uint64_t evicted_bytes = 0;

    [[nodiscard]] std::uint64_t lookups() const { return hits + misses; }
    [[nodiscard]] double hit_rate() const {
      return lookups() == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(lookups());
    }
    /// Current resident footprint implied by the byte counters.
    [[nodiscard]] std::uint64_t resident_bytes() const {
      return inserted_bytes - evicted_bytes;
    }

    Stats& operator+=(const Stats& other) {
      hits += other.hits;
      misses += other.misses;
      evictions += other.evictions;
      inserted_bytes += other.inserted_bytes;
      evicted_bytes += other.evicted_bytes;
      return *this;
    }
    friend Stats operator+(Stats a, const Stats& b) { return a += b; }

    /// Counter-wise difference of two snapshots of the *same* cache
    /// (every field is monotone between snapshots, so `later - earlier`
    /// is the activity in between -- the per-tenant attribution unit).
    Stats& operator-=(const Stats& other) {
      hits -= other.hits;
      misses -= other.misses;
      evictions -= other.evictions;
      inserted_bytes -= other.inserted_bytes;
      evicted_bytes -= other.evicted_bytes;
      return *this;
    }
    friend Stats operator-(Stats a, const Stats& b) { return a -= b; }
    friend bool operator==(const Stats&, const Stats&) = default;
  };

  /// What a lookup derives from its compilation: the semantics
  /// fingerprint for the fpic mode and the semantics group.  A build of
  /// every file under one compilation derives it once and reuses it for
  /// each file (see BuildSystem::compile_all).
  struct Fingerprints {
    std::uint64_t fingerprint = 0;
    std::uint64_t group = 0;
    bool fpic = false;
  };
  [[nodiscard]] static Fingerprints fingerprints(const Compilation& c,
                                                 bool fpic);

  /// Returns the object for (file, c, fpic, injected), invoking `build`
  /// (which returns the file's compiled code under `c`) only when no
  /// semantically-equivalent compilation of the file is cached.  `fp` must
  /// be fingerprints(c, fpic).  The returned handle always carries `c` as
  /// its compilation.
  template <class Build>
  [[nodiscard]] ObjectFile get_or_build(const std::string& file,
                                        const Compilation& c,
                                        const Fingerprints& fp, bool injected,
                                        Build&& build) {
    if (std::optional<ObjectFile> hit = lookup(file, c, fp, injected)) {
      return *std::move(hit);
    }
    // Build outside the lock: compilations are the expensive part and two
    // threads racing to build the same key is rarer than serializing every
    // builder behind one mutex.
    return insert(file, c, fp, injected, build());
  }

  [[nodiscard]] Stats stats() const;
  void clear();

  /// Caps the resident footprint at `bytes` of approx_object_bytes,
  /// evicting least-recently-used fingerprint groups immediately and on
  /// every subsequent insertion.  A budget of 0 retains nothing (every
  /// lookup misses -- the cold-cache floor the study service's
  /// `--cache-budget 0` configuration measures against); nullopt (the
  /// default) restores the historical unbounded behavior.
  void set_budget(std::optional<std::uint64_t> bytes);
  [[nodiscard]] std::optional<std::uint64_t> budget() const;

  /// Current resident footprint / entry count (0 after clear()).
  [[nodiscard]] std::uint64_t resident_bytes() const;
  [[nodiscard]] std::size_t resident_entries() const;

  /// The semantics fingerprint of `c`: equal fingerprints guarantee equal
  /// per-file bindings (for the given fpic mode).  Exposed for tests.
  [[nodiscard]] static std::uint64_t fingerprint(const Compilation& c,
                                                 bool fpic);

  /// The affinity-grouping key of `c`: compilations with equal groups hit
  /// each other in this cache for every non-fPIC object, so a placement
  /// that co-locates a group compiles its fingerprint once per fleet.
  /// (-fPIC objects additionally key on the raw triple, but a study item's
  /// object set is dominated by non-fPIC bindings, so the non-fPIC
  /// fingerprint is the right co-location key.)  The bounded-memory policy
  /// ages and evicts entries by this same group.
  [[nodiscard]] static std::uint64_t semantics_group(const Compilation& c) {
    return fingerprint(c, /*fpic=*/false);
  }

 private:
  struct Key {
    std::string file;
    std::uint64_t fingerprint = 0;
    bool fpic = false;
    bool injected = false;
  };
  /// A lookup's key, borrowing the file name.
  struct KeyRef {
    std::string_view file;
    std::uint64_t fingerprint = 0;
    bool fpic = false;
    bool injected = false;

    KeyRef(std::string_view f, std::uint64_t fp, bool pic, bool inj)
        : file(f), fingerprint(fp), fpic(pic), injected(inj) {}
    KeyRef(const Key& k)  // implicit: stored keys compare as lookups
        : KeyRef(k.file, k.fingerprint, k.fpic, k.injected) {}
  };
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(const KeyRef& k) const;
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(const KeyRef& a, const KeyRef& b) const {
      return a.fingerprint == b.fingerprint && a.fpic == b.fpic &&
             a.injected == b.injected && a.file == b.file;
    }
  };

  struct Entry {
    std::shared_ptr<const ObjectCode> code;
    std::uint64_t group = 0;  ///< semantics_group of the inserted comp
    std::uint64_t bytes = 0;  ///< approx_object_bytes at insertion
  };

  /// One LRU unit: the keys and footprint of a semantics-fingerprint
  /// group, plus its position in the recency list.
  struct GroupInfo {
    std::list<std::uint64_t>::iterator lru_pos;
    std::vector<Key> keys;
    std::uint64_t bytes = 0;
  };

  /// The hit half of get_or_build: a handle to the cached code, counted
  /// as a hit, or nullopt (counted by the insert that follows).
  [[nodiscard]] std::optional<ObjectFile> lookup(const std::string& file,
                                                 const Compilation& c,
                                                 const Fingerprints& fp,
                                                 bool injected);

  /// The miss half of get_or_build: caches `code` unless another thread
  /// won the race to insert the key, and returns a handle to the cached
  /// code.
  [[nodiscard]] ObjectFile insert(const std::string& file,
                                  const Compilation& c,
                                  const Fingerprints& fp, bool injected,
                                  std::shared_ptr<const ObjectCode> code);

  /// Moves `group` to most-recently-used (creating it if new); caller
  /// holds mu_.
  void touch_group_locked(std::uint64_t group);

  /// Evicts least-recently-used groups until the resident footprint fits
  /// the budget; caller holds mu_.
  void evict_to_budget_locked();

  mutable std::mutex mu_;
  std::unordered_map<Key, Entry, KeyHash, KeyEq> entries_;
  Stats stats_;

  std::optional<std::uint64_t> budget_;
  std::uint64_t resident_bytes_ = 0;
  std::list<std::uint64_t> lru_;  ///< group ids, front = LRU, back = MRU
  std::unordered_map<std::uint64_t, GroupInfo> groups_;
};

/// The mergeable per-cache statistics value (one per shard in the
/// distributed engine; summed with operator+= into the aggregate report,
/// subtracted for the study service's per-tenant attribution).
using CacheStats = CompilationCache::Stats;

}  // namespace flit::toolchain
