#include "toolchain/compile_cache.h"

#include <cstdio>
#include <functional>
#include <utility>

#include "obs/session.h"
#include "toolchain/semantics_rules.h"

namespace flit::toolchain {

namespace {

/// The one fleet-wide eviction counter (every cache instance feeds it, as
/// with cache.hits/cache.misses).  Incremented once *per evicted entry* --
/// historically it only moved on wholesale clear()s, which under-counted
/// any policy that removes entries one group at a time.
obs::Counter& evicted_counter() {
  static obs::Counter& c = obs::metrics().counter("cache.evicted");
  return c;
}

}  // namespace

std::uint64_t approx_object_bytes(const ObjectFile& obj) {
  // Deterministic content-derived footprint: fixed per-record charges plus
  // the variable-length payloads.  The constants approximate the in-memory
  // cost of each record (object + binding-table overhead) without depending
  // on allocator or padding details.
  const ObjectCode& code = *obj.code;
  std::uint64_t b = 64 + code.source_file.size() + obj.comp.flag.size() +
                    obj.comp.compiler.name.size();
  for (const SymbolDef& s : code.symbols) b += 48 + s.name.size();
  b += 8 * code.internal_fns.size();
  b += 96 * code.bindings.size();
  return b;
}

std::uint64_t CompilationCache::fingerprint(const Compilation& c, bool fpic) {
  const fpsem::FpSemantics s = derive_semantics(c);
  const fpsem::CostFactors k = derive_cost(c);
  // The %a renderings keep the cost doubles exact; every semantics field
  // participates so that fingerprint equality implies binding equality.
  char buf[160];
  std::snprintf(buf, sizeof buf, "%d|%d|%d|%d|%d|%d|%d|%a|%a",
                static_cast<int>(s.contract_fma), s.reassoc_width,
                static_cast<int>(s.extended_precision),
                static_cast<int>(s.unsafe_math),
                static_cast<int>(s.flush_subnormals),
                static_cast<int>(s.fast_libm), static_cast<int>(s.exploits_ub),
                k.time_scale, k.bulk_scale);
  std::string material = buf;
  if (fpic) {
    // inlining_carries_variability() hashes the raw compilation string, so
    // -fPIC bindings are only shareable between textually equal triples.
    material += '|';
    material += c.str();
  }
  return stable_hash(material);
}

CompilationCache::Fingerprints CompilationCache::fingerprints(
    const Compilation& c, bool fpic) {
  const std::uint64_t group = semantics_group(c);
  return {fpic ? fingerprint(c, true) : group, group, fpic};
}

// Fleet-wide counters: every cache instance (one per shard in the
// distributed engine) feeds the same registry, so the global totals are
// the sum the aggregate report prints.  Handles are stable across
// MetricsRegistry::reset(), so resolving them once is safe.
std::optional<ObjectFile> CompilationCache::lookup(const std::string& file,
                                                   const Compilation& c,
                                                   const Fingerprints& fp,
                                                   bool injected) {
  static obs::Counter& obs_hits = obs::metrics().counter("cache.hits");
  std::lock_guard lock(mu_);
  const auto it =
      entries_.find(KeyRef(file, fp.fingerprint, fp.fpic, injected));
  if (it == entries_.end()) return std::nullopt;
  ++stats_.hits;
  obs_hits.add();
  touch_group_locked(fp.group);
  // The hazard predicates hash the raw triple, so the handle carries the
  // requested one rather than the inserting build's.
  return ObjectFile{it->second.code, c};
}

ObjectFile CompilationCache::insert(const std::string& file,
                                    const Compilation& c,
                                    const Fingerprints& fp, bool injected,
                                    std::shared_ptr<const ObjectCode> code) {
  static obs::Counter& obs_misses = obs::metrics().counter("cache.misses");
  ObjectFile built{std::move(code), c};
  std::lock_guard lock(mu_);
  ++stats_.misses;
  obs_misses.add();
  Key key{file, fp.fingerprint, fp.fpic, injected};
  auto [it, inserted] =
      entries_.try_emplace(key, Entry{built.code, fp.group, 0});
  touch_group_locked(fp.group);
  if (!inserted) {
    return ObjectFile{it->second.code, c};  // another thread won the race
  }
  const std::uint64_t bytes = approx_object_bytes(built);
  it->second.bytes = bytes;
  stats_.inserted_bytes += bytes;
  resident_bytes_ += bytes;
  GroupInfo& g = groups_[fp.group];
  g.keys.push_back(std::move(key));
  g.bytes += bytes;
  evict_to_budget_locked();
  return built;
}

CompilationCache::Stats CompilationCache::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

void CompilationCache::clear() {
  std::lock_guard lock(mu_);
  evicted_counter().add(entries_.size());
  entries_.clear();
  groups_.clear();
  lru_.clear();
  resident_bytes_ = 0;
  stats_ = Stats{};  // a clear resets the tallies too (a fresh cache)
}

void CompilationCache::set_budget(std::optional<std::uint64_t> bytes) {
  std::lock_guard lock(mu_);
  budget_ = bytes;
  evict_to_budget_locked();
}

std::optional<std::uint64_t> CompilationCache::budget() const {
  std::lock_guard lock(mu_);
  return budget_;
}

std::uint64_t CompilationCache::resident_bytes() const {
  std::lock_guard lock(mu_);
  return resident_bytes_;
}

std::size_t CompilationCache::resident_entries() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

void CompilationCache::touch_group_locked(std::uint64_t group) {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    lru_.push_back(group);
    GroupInfo info;
    info.lru_pos = std::prev(lru_.end());
    groups_.emplace(group, std::move(info));
    return;
  }
  lru_.splice(lru_.end(), lru_, it->second.lru_pos);
  it->second.lru_pos = std::prev(lru_.end());
}

void CompilationCache::evict_to_budget_locked() {
  if (!budget_.has_value()) return;
  // Whole-group eviction, least recently used first.  The loop also
  // retires the most recent group when it alone exceeds the budget (the
  // zero-budget configuration retains nothing) -- correctness never
  // depends on residency, only hit rates do.
  while (resident_bytes_ > *budget_ && !lru_.empty()) {
    const std::uint64_t victim = lru_.front();
    auto git = groups_.find(victim);
    for (const Key& key : git->second.keys) {
      auto it = entries_.find(key);
      if (it == entries_.end()) continue;
      ++stats_.evictions;
      evicted_counter().add();
      stats_.evicted_bytes += it->second.bytes;
      resident_bytes_ -= it->second.bytes;
      entries_.erase(it);
    }
    lru_.pop_front();
    groups_.erase(git);
  }
}

std::size_t CompilationCache::KeyHash::operator()(const KeyRef& k) const {
  // In-process bucket placement only (entries are never iterated in hash
  // order), so the library's word-at-a-time string hash serves.
  std::uint64_t h = std::hash<std::string_view>{}(k.file);
  h ^= k.fingerprint + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= (static_cast<std::uint64_t>(k.fpic) << 1 |
        static_cast<std::uint64_t>(k.injected)) +
       0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return static_cast<std::size_t>(h);
}

}  // namespace flit::toolchain
