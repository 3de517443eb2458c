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
// ObjectCode per (file, fingerprint, fpic, injected) and a hit returns a
// new handle to it carrying the *requested* Compilation -- no code is
// copied.  The raw `comp` still matters downstream (ABI-hazard predicates
// hash it), which is why the Compilation itself cannot be the key *or* be
// cached; it lives in the per-handle ObjectFile instead.  Shared code is
// never mutated: objcopy copies before rewriting (objcopy.h), and a handle
// keeps its code alive after its slot is evicted or the cache cleared.
//
// Storage is one *slab* per (fingerprint, fpic, injected): a vector of
// slots indexed by the file's position in CodeModel::files().  A build
// hashes its slab key once, not its file names once per file, and takes
// the lock twice per batch of files (one probe, one insert of the
// misses), not once per file.  Positions are only meaningful within one
// model, so the cache binds to the CodeModel of its first lookup and
// rejects any other (std::logic_error).  A model may still grow: a file
// registered after a slab was made simply misses at its new position.
//
// The cache is shared across threads of the parallel study engine and
// across serial Bisect drivers (which relink far more often than they need
// to recompile); all methods are safe for concurrent use.
//
// Bounded memory: set_budget(bytes) caps the cache's resident footprint
// for long-lived deployments (the study service shares one cache across
// every tenant).  Eviction is LRU over *semantics-fingerprint groups*: all
// slabs whose compilation collapses onto one non-fPIC fingerprint -- the
// affinity placement's co-location unit -- age together, so evicting
// reclaims a whole group's objects at once and a half-resident group never
// lingers (a study that needs one member of a group almost always needs
// them all).  Evictions and evicted bytes are still counted per occupied
// slot.  Eviction only ever changes wall-clock and hit/miss tallies: a
// rebuilt object is byte-identical to the evicted one (fingerprint
// equality implies binding equality), so cached -- or evicted -- contents
// can never alter study results.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "fpsem/code_model.h"
#include "toolchain/object.h"

namespace flit::toolchain {

/// Deterministic approximation of an object's resident footprint, the
/// unit of the cache budget.  A pure function of the shared code (never of
/// the triple a handle was requested under, nor of allocator or padding
/// details), so the resident footprint depends only on which slots are
/// filled, not on which equivalent triple filled them first.
[[nodiscard]] std::uint64_t approx_object_bytes(const ObjectCode& code);

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

  /// Fills out[k] with the object for (model.files()[first + k], c, fpic,
  /// injected), invoking `build(position)` (which returns the code of the
  /// file at that position of `model` under `c`) only for files with no
  /// semantically-equivalent compilation cached.  `fp` must be
  /// fingerprints(c, fpic).  Every returned handle carries `c` as its
  /// compilation.  Throws std::logic_error when `model` is not the model
  /// this cache is bound to.
  template <class Build>
  void get_or_build(const fpsem::CodeModel& model, std::size_t first,
                    std::span<ObjectFile> out, const Compilation& c,
                    const Fingerprints& fp, bool injected, Build&& build) {
    const std::vector<std::size_t> missing =
        lookup(model, first, out, fp, injected);
    // The hazard predicates hash the raw triple, so every handle carries
    // the requested one rather than the inserting build's.
    for (ObjectFile& o : out) o.comp = c;
    if (missing.empty()) return;
    // Build outside the lock: compilations are the expensive part and two
    // threads racing to build the same slot is rarer than serializing
    // every builder behind one mutex.
    for (std::size_t k : missing) out[k].code = build(first + k);
    insert(model, first, out, missing, fp, injected);
  }

  [[nodiscard]] Stats stats() const;

  /// Drops every entry and resets the tallies and the model binding, as
  /// if the cache were new.
  void clear();

  /// Caps the resident footprint at `bytes` of approx_object_bytes,
  /// evicting least-recently-used fingerprint groups immediately and after
  /// every subsequent batch of insertions.  A budget of 0 retains nothing (every
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
  struct SlabKey {
    std::uint64_t fingerprint = 0;
    bool fpic = false;
    bool injected = false;

    friend bool operator==(const SlabKey&, const SlabKey&) = default;
  };
  struct SlabKeyHash {
    std::size_t operator()(const SlabKey& k) const {
      // The fingerprint is already a well-mixed hash.
      return static_cast<std::size_t>(
          k.fingerprint ^ (std::uint64_t{k.fpic} << 1 | k.injected));
    }
  };

  struct Slot {
    std::shared_ptr<const ObjectCode> code;  ///< null = not resident
    std::uint64_t bytes = 0;                 ///< approx_object_bytes(*code)
  };

  /// Every cached file of one (fingerprint, fpic, injected), indexed by
  /// file position; shorter than files() when the model grew after the
  /// slab was made.
  using Slab = std::vector<Slot>;

  /// One LRU unit: the slabs of a semantics-fingerprint group, plus its
  /// position in the recency list.
  struct GroupInfo {
    std::list<std::uint64_t>::iterator lru_pos;
    std::vector<SlabKey> slabs;
  };

  /// The probe half of get_or_build: sets out[k].code for every cached
  /// file (counted as hits) and returns the k of the rest (counted by the
  /// insert that follows).  Binds the cache to `model` on first use.
  [[nodiscard]] std::vector<std::size_t> lookup(const fpsem::CodeModel& model,
                                                std::size_t first,
                                                std::span<ObjectFile> out,
                                                const Fingerprints& fp,
                                                bool injected);

  /// The miss half of get_or_build: caches the built out[k].code of every
  /// k in `missing` (ascending), unless another thread won the race to
  /// fill that slot, in which case out[k] is repointed at the winner's
  /// code.  Evicts to the budget once for the whole batch.
  void insert(const fpsem::CodeModel& model, std::size_t first,
              std::span<ObjectFile> out, std::span<const std::size_t> missing,
              const Fingerprints& fp, bool injected);

  /// Moves `group` to most-recently-used (creating it if new); caller
  /// holds mu_.
  GroupInfo& touch_group_locked(std::uint64_t group);

  /// Evicts least-recently-used groups until the resident footprint fits
  /// the budget; caller holds mu_.
  void evict_to_budget_locked();

  mutable std::mutex mu_;
  const fpsem::CodeModel* model_ = nullptr;  ///< bound by the first lookup
  std::unordered_map<SlabKey, Slab, SlabKeyHash> slabs_;
  std::size_t resident_entries_ = 0;  ///< occupied slots over all slabs
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
