#include "toolchain/compile_cache.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
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

std::uint64_t approx_object_bytes(const ObjectCode& code) {
  // Deterministic content-derived footprint: fixed per-record charges plus
  // the variable-length payloads.  The constants approximate the in-memory
  // cost of each record (object + binding-table overhead) without depending
  // on allocator or padding details.
  std::uint64_t b = 64 + code.source_file.size();
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
std::vector<std::size_t> CompilationCache::lookup(const fpsem::CodeModel& model,
                                                  std::size_t first,
                                                  std::span<ObjectFile> out,
                                                  const Fingerprints& fp,
                                                  bool injected) {
  static obs::Counter& obs_hits = obs::metrics().counter("cache.hits");
  std::vector<std::size_t> missing;
  std::lock_guard lock(mu_);
  if (model_ == nullptr) {
    model_ = &model;
  } else if (model_ != &model) {
    throw std::logic_error(
        "CompilationCache: file positions are per model, and this cache is "
        "bound to another CodeModel");
  }
  const auto it = slabs_.find({fp.fingerprint, fp.fpic, injected});
  const std::size_t cached = it == slabs_.end() ? 0 : it->second.size();
  for (std::size_t k = 0; k < out.size(); ++k) {
    const std::size_t pos = first + k;
    if (pos < cached && it->second[pos].code != nullptr) {
      out[k].code = it->second[pos].code;
    } else {
      missing.push_back(k);
    }
  }
  const std::size_t hits = out.size() - missing.size();
  if (hits > 0) {
    stats_.hits += hits;
    obs_hits.add(hits);
    touch_group_locked(fp.group);
  }
  return missing;
}

void CompilationCache::insert(const fpsem::CodeModel& model,
                              std::size_t first, std::span<ObjectFile> out,
                              std::span<const std::size_t> missing,
                              const Fingerprints& fp, bool injected) {
  static obs::Counter& obs_misses = obs::metrics().counter("cache.misses");
  std::vector<std::uint64_t> bytes(missing.size());
  for (std::size_t j = 0; j < missing.size(); ++j) {
    bytes[j] = approx_object_bytes(*out[missing[j]].code);
  }
  // Race losers' code, released after the lock is.
  std::vector<std::shared_ptr<const ObjectCode>> losers;
  std::lock_guard lock(mu_);
  stats_.misses += missing.size();
  obs_misses.add(missing.size());
  GroupInfo& group = touch_group_locked(fp.group);
  const auto [it, made] =
      slabs_.try_emplace(SlabKey{fp.fingerprint, fp.fpic, injected});
  Slab& slab = it->second;
  if (made) group.slabs.push_back(it->first);
  const std::size_t need = first + missing.back() + 1;
  if (slab.size() < need) slab.resize(std::max(need, model.files().size()));
  std::uint64_t added = 0;
  for (std::size_t j = 0; j < missing.size(); ++j) {
    ObjectFile& built = out[missing[j]];
    Slot& slot = slab[first + missing[j]];
    if (slot.code != nullptr) {  // another thread won the race
      losers.push_back(std::exchange(built.code, slot.code));
      continue;
    }
    slot = Slot{built.code, bytes[j]};
    added += bytes[j];
    ++resident_entries_;
  }
  stats_.inserted_bytes += added;
  resident_bytes_ += added;
  evict_to_budget_locked();
}

CompilationCache::Stats CompilationCache::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

void CompilationCache::clear() {
  std::lock_guard lock(mu_);
  evicted_counter().add(resident_entries_);
  slabs_.clear();
  groups_.clear();
  lru_.clear();
  resident_bytes_ = 0;
  resident_entries_ = 0;
  model_ = nullptr;
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
  return resident_entries_;
}

CompilationCache::GroupInfo& CompilationCache::touch_group_locked(
    std::uint64_t group) {
  auto [it, made] = groups_.try_emplace(group);
  if (made) {
    lru_.push_back(group);
  } else {
    lru_.splice(lru_.end(), lru_, it->second.lru_pos);
  }
  it->second.lru_pos = std::prev(lru_.end());
  return it->second;
}

void CompilationCache::evict_to_budget_locked() {
  if (!budget_.has_value()) return;
  // Whole-group eviction, least recently used first.  The loop also
  // retires the most recent group when it alone exceeds the budget (the
  // zero-budget configuration retains nothing) -- correctness never
  // depends on residency, only hit rates do.
  while (resident_bytes_ > *budget_ && !lru_.empty()) {
    const auto git = groups_.find(lru_.front());
    std::uint64_t evicted = 0;
    for (const SlabKey& key : git->second.slabs) {
      const auto it = slabs_.find(key);
      if (it == slabs_.end()) continue;
      for (const Slot& slot : it->second) {
        if (slot.code == nullptr) continue;
        ++evicted;
        stats_.evicted_bytes += slot.bytes;
        resident_bytes_ -= slot.bytes;
      }
      slabs_.erase(it);
    }
    stats_.evictions += evicted;
    resident_entries_ -= evicted;
    evicted_counter().add(evicted);
    lru_.pop_front();
    groups_.erase(git);
  }
}

}  // namespace flit::toolchain
