// The shared compilation cache: fingerprint collapse of semantically
// equivalent triples, byte-identical bindings on hits, hit/miss
// accounting, key separation for -fPIC and injected builds, shared code
// behind per-handle compilations, compile fault decisions that do not
// depend on the cache, and the file-position slabs (concurrent batches,
// a growing model, one model per cache).

#include <latch>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/faults.h"
#include "fpsem/code_model.h"
#include "toolchain/build.h"
#include "toolchain/compile_cache.h"
#include "toolchain/compiler.h"
#include "toolchain/linker.h"
#include "toolchain/objcopy.h"
#include "toolchain/semantics_rules.h"

namespace {

using namespace flit::toolchain;
using flit::fpsem::CodeModel;

CodeModel make_model() {
  CodeModel m;
  m.add({.name = "cc::f", .file = "cc/a.cpp"});
  m.add({.name = "cc::g", .file = "cc/a.cpp", .uses_libm = true});
  m.add({.name = "cc::hidden",
         .file = "cc/a.cpp",
         .exported = false,
         .host_symbol = "cc::f"});
  m.add({.name = "cc::h", .file = "cc/b.cpp", .inline_candidate = true});
  return m;
}

/// g++ -O1 with and without the documented-inert -fassociative-math flag:
/// identical derived semantics and cost, different raw triples.
Compilation o1_plain() { return {gcc(), OptLevel::O1, ""}; }
Compilation o1_inert() { return {gcc(), OptLevel::O1, "-fassociative-math"}; }

void expect_same_code(const ObjectCode& a, const ObjectCode& b) {
  EXPECT_EQ(a.source_file, b.source_file);
  EXPECT_EQ(a.fpic, b.fpic);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.bindings, b.bindings);
  EXPECT_EQ(a.internal_fns, b.internal_fns);
  ASSERT_EQ(a.symbols.size(), b.symbols.size());
  for (std::size_t i = 0; i < a.symbols.size(); ++i) {
    EXPECT_EQ(a.symbols[i].name, b.symbols[i].name);
    EXPECT_EQ(a.symbols[i].fn, b.symbols[i].fn);
    EXPECT_EQ(a.symbols[i].strong, b.symbols[i].strong);
  }
}

void expect_same_object(const ObjectFile& a, const ObjectFile& b) {
  EXPECT_EQ(a.comp, b.comp);
  expect_same_code(*a.code, *b.code);
}

TEST(CompilationCache, FingerprintCollapsesSemanticallyEquivalentTriples) {
  EXPECT_EQ(CompilationCache::fingerprint(o1_plain(), false),
            CompilationCache::fingerprint(o1_inert(), false));
  EXPECT_NE(CompilationCache::fingerprint(o1_plain(), false),
            CompilationCache::fingerprint({gcc(), OptLevel::O2, ""}, false));
  // Cost differences separate fingerprints even when semantics agree:
  // -mavx changes bulk_scale only.
  EXPECT_NE(
      CompilationCache::fingerprint({gcc(), OptLevel::O2, ""}, false),
      CompilationCache::fingerprint({gcc(), OptLevel::O2, "-mavx"}, false));
}

TEST(CompilationCache, FpicFingerprintsAreKeyedByTheRawTriple) {
  // The -fPIC inlining-loss predicate hashes the raw compilation string,
  // so equivalent triples must NOT share -fPIC objects.
  EXPECT_NE(CompilationCache::fingerprint(o1_plain(), true),
            CompilationCache::fingerprint(o1_inert(), true));
}

TEST(CompilationCache, HitReturnsTheSameObjectWithTheRequestedTriple) {
  CodeModel m = make_model();
  CompilationCache cache;
  BuildSystem cached(&m, &cache);
  BuildSystem uncached(&m);

  const ObjectFile first = cached.compile("cc/a.cpp", o1_plain());
  const ObjectFile hit = cached.compile("cc/a.cpp", o1_inert());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // The hit's bindings are byte-identical to a from-scratch compile of the
  // *requested* triple, and the raw triple is restamped (the ABI-hazard
  // predicates hash it).
  expect_same_object(hit, uncached.compile("cc/a.cpp", o1_inert()));
  EXPECT_EQ(hit.comp, o1_inert());
  EXPECT_EQ(first.comp, o1_plain());
}

TEST(CompilationCache, HitsShareOneCodeEachWithItsOwnCompilation) {
  CodeModel m = make_model();
  CompilationCache cache;
  BuildSystem build(&m, &cache);

  const ObjectFile miss = build.compile("cc/a.cpp", o1_plain());
  const ObjectFile hit = build.compile("cc/a.cpp", o1_plain());
  const ObjectFile equivalent = build.compile("cc/a.cpp", o1_inert());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 2u);

  // No copy of the code: every handle points at the cached ObjectCode...
  EXPECT_EQ(hit.code.get(), miss.code.get());
  EXPECT_EQ(equivalent.code.get(), miss.code.get());
  // ...and each carries the triple it was requested under.
  EXPECT_EQ(miss.comp, o1_plain());
  EXPECT_EQ(hit.comp, o1_plain());
  EXPECT_EQ(equivalent.comp, o1_inert());

  // A -fPIC build of the same file is different code.
  EXPECT_NE(build.compile("cc/a.cpp", o1_plain(), /*fpic=*/true).code.get(),
            miss.code.get());
}

TEST(CompilationCache, ObjcopyNeverRewritesSharedCode) {
  CodeModel m = make_model();
  CompilationCache cache;
  BuildSystem build(&m, &cache);
  BuildSystem uncached(&m);
  const auto all_strong = [](const ObjectFile& o) {
    for (const SymbolDef& s : o.code->symbols) {
      if (!s.strong) return false;
    }
    return true;
  };

  const ObjectFile a = build.compile("cc/a.cpp", o1_plain());
  const ObjectFile b = build.compile("cc/a.cpp", o1_inert());
  ASSERT_EQ(a.code.get(), b.code.get());
  const ObjectFile weak = objcopy_weaken(a, {"cc::f"});
  const ObjectFile complement = objcopy_weaken_complement(b, {"cc::f"});

  // The rewrites got private code with the requested strengths...
  EXPECT_NE(weak.code.get(), a.code.get());
  EXPECT_NE(complement.code.get(), a.code.get());
  EXPECT_EQ(weak.comp, o1_plain());
  EXPECT_EQ(complement.comp, o1_inert());
  for (const SymbolDef& s : weak.code->symbols) {
    EXPECT_EQ(s.strong, s.name != "cc::f");
  }
  for (const SymbolDef& s : complement.code->symbols) {
    EXPECT_EQ(s.strong, s.name == "cc::f");
  }
  // ...while both holders of the shared code, and the cache entry a new
  // lookup returns, still define every symbol strong.
  EXPECT_TRUE(all_strong(a));
  EXPECT_TRUE(all_strong(b));
  const ObjectFile again = build.compile("cc/a.cpp", o1_plain());
  EXPECT_EQ(again.code.get(), a.code.get());
  EXPECT_TRUE(all_strong(again));
  expect_same_object(again, uncached.compile("cc/a.cpp", o1_plain()));
}

TEST(CompilationCache, HandlesOutliveEvictionAndClear) {
  CodeModel m = make_model();
  BuildSystem uncached(&m);
  Linker linker(&m);
  for (const bool by_clear : {false, true}) {
    CompilationCache cache;
    BuildSystem build(&m, &cache);
    const std::vector<ObjectFile> objs = build.compile_all(o1_plain());
    ASSERT_EQ(cache.resident_entries(), m.files().size());
    if (by_clear) {
      cache.clear();
    } else {
      cache.set_budget(0);  // evicts every group
    }
    ASSERT_EQ(cache.resident_entries(), 0u);

    // The handles still own their code: it reads and links as before.
    const std::vector<ObjectFile> fresh = uncached.compile_all(o1_plain());
    ASSERT_EQ(objs.size(), fresh.size());
    for (std::size_t i = 0; i < objs.size(); ++i) {
      expect_same_object(objs[i], fresh[i]);
    }
    EXPECT_EQ(linker.link(objs, gcc()).map, linker.link(fresh, gcc()).map);

    // A rebuild after eviction is new code with the same contents.
    const ObjectFile rebuilt = build.compile("cc/a.cpp", o1_plain());
    EXPECT_NE(rebuilt.code.get(), objs[0].code.get());
    expect_same_object(rebuilt, objs[0]);
  }
}

TEST(CompilationCache, CompileCountsDropAcrossRepeatedBuilds) {
  CodeModel m = make_model();
  CompilationCache cache;
  BuildSystem build(&m, &cache);

  (void)build.compile_all(o1_plain());
  const auto after_first = cache.stats();
  EXPECT_EQ(after_first.misses, m.files().size());
  EXPECT_EQ(after_first.hits, 0u);

  (void)build.compile_all(o1_plain());
  (void)build.compile_all(o1_inert());  // equivalent triple: all hits too
  const auto after_third = cache.stats();
  EXPECT_EQ(after_third.misses, m.files().size());
  EXPECT_EQ(after_third.hits, 2 * m.files().size());
  EXPECT_GT(after_third.hit_rate(), 0.5);
}

TEST(CompilationCache, FpicAndInjectedAreSeparateEntries) {
  CodeModel m = make_model();
  CompilationCache cache;
  BuildSystem build(&m, &cache);

  const auto plain = build.compile("cc/a.cpp", o1_plain());
  const auto fpic = build.compile("cc/a.cpp", o1_plain(), /*fpic=*/true);
  const auto injected = build.compile("cc/a.cpp", o1_plain(), /*fpic=*/false,
                                      /*injected=*/true);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_FALSE(plain.code->fpic);
  EXPECT_TRUE(fpic.code->fpic);
  EXPECT_TRUE(injected.code->injected);
  EXPECT_FALSE(plain.code->injected);
}

TEST(CompilationCache, CachedObjectsEqualUncachedAcrossTheStudySpace) {
  CodeModel m = make_model();
  CompilationCache cache;
  BuildSystem cached(&m, &cache);
  BuildSystem uncached(&m);

  for (const Compilation& c : mfem_study_space()) {
    for (const std::string& f : m.files()) {
      expect_same_object(cached.compile(f, c), uncached.compile(f, c));
      expect_same_object(cached.compile(f, c, /*fpic=*/true),
                         uncached.compile(f, c, /*fpic=*/true));
    }
  }
}

TEST(CompilationCache, StudySpaceHitRateExceedsHalf) {
  // The Table 1 space: 244 triples collapse onto far fewer distinct
  // per-file semantics, so most non-fPIC compiles are hits.
  CodeModel m = make_model();
  CompilationCache cache;
  BuildSystem build(&m, &cache);
  for (const Compilation& c : mfem_study_space()) {
    (void)build.compile_all(c);
  }
  EXPECT_GT(cache.stats().hit_rate(), 0.5);
}

/// A model with enough files that an armed compile site fails some whole
/// builds and spares others.
CodeModel make_wide_model() {
  CodeModel m;
  for (int i = 0; i < 12; ++i) {
    const std::string file = "w/f" + std::to_string(i) + ".cpp";
    m.add({.name = "w::f" + std::to_string(i), .file = file});
  }
  return m;
}

/// The message of the first per-file compile of `c` the armed injector
/// fails, or nullopt when every file compiles.
std::optional<std::string> first_compile_fault(const BuildSystem& build,
                                               const Compilation& c) {
  for (const std::string& f : build.model().files()) {
    try {
      (void)build.compile(f, c);
    } catch (const flit::core::InjectedFault& e) {
      return std::string(e.what());
    }
  }
  return std::nullopt;
}

TEST(CompilationCache, CompileAllMakesThePerFileFaultDecisions) {
  // compile_all derives the fingerprint once per build, but the compile
  // fault site must still be consulted before every per-file lookup, so a
  // warm cache cannot hide an injected compiler crash.
  CodeModel m = make_wide_model();
  CompilationCache cache;
  BuildSystem cached(&m, &cache);
  BuildSystem uncached(&m);
  const auto space = mfem_study_space();
  for (const Compilation& c : space) (void)cached.compile_all(c);  // warm

  auto& faults = flit::core::FaultInjector::global();
  faults.configure("compile:0.1:5");
  std::size_t failed = 0;
  for (const Compilation& c : space) {
    const std::optional<std::string> expected =
        first_compile_fault(uncached, c);
    ASSERT_EQ(first_compile_fault(cached, c), expected) << c.str();
    for (const BuildSystem* build : {&cached, &uncached}) {
      try {
        (void)build->compile_all(c);
        EXPECT_FALSE(expected.has_value()) << c.str();
      } catch (const flit::core::InjectedFault& e) {
        ASSERT_TRUE(expected.has_value()) << c.str();
        EXPECT_EQ(e.what(), *expected) << c.str();
      }
    }
    if (expected.has_value()) ++failed;
  }
  faults.disarm();
  // The rate spares some builds and fails others.
  EXPECT_GT(failed, 0u);
  EXPECT_LT(failed, space.size());
}

TEST(CacheStats, MergeSumsTalliesAndPreservesTheHitRateInvariant) {
  // Per-shard stats are summed into the distributed engine's aggregate
  // report; the merge must be plain addition on both counters.
  CacheStats a{.hits = 7, .misses = 3};
  const CacheStats b{.hits = 1, .misses = 9};

  const CacheStats sum = a + b;
  EXPECT_EQ(sum.hits, 8u);
  EXPECT_EQ(sum.misses, 12u);
  EXPECT_EQ(sum.lookups(), 20u);
  EXPECT_EQ(sum.hit_rate(), 8.0 / 20.0);

  a += b;
  EXPECT_EQ(a, sum);

  // Identity: merging an idle shard's stats changes nothing.
  const CacheStats before = a;
  a += CacheStats{};
  EXPECT_EQ(a, before);
  EXPECT_EQ(CacheStats{}.hit_rate(), 0.0);  // no lookups, no rate
}

TEST(CacheStats, MergingRealShardCachesMatchesOneSharedCache) {
  // Two caches each serving half the study space tally, in sum, the same
  // lookups as one cache serving all of it (hit counts differ -- each
  // shard re-misses its first equivalent triple -- so only the lookup sum
  // is partition-invariant).
  CodeModel m = make_model();
  const auto space = mfem_study_space();
  const std::size_t half = space.size() / 2;

  CompilationCache whole;
  BuildSystem whole_build(&m, &whole);
  for (const Compilation& c : space) (void)whole_build.compile_all(c);

  CacheStats merged;
  for (std::size_t begin : {std::size_t{0}, half}) {
    CompilationCache shard;
    BuildSystem build(&m, &shard);
    const std::size_t end = begin == 0 ? half : space.size();
    for (std::size_t i = begin; i < end; ++i) {
      (void)build.compile_all(space[i]);
    }
    merged += shard.stats();
  }
  EXPECT_EQ(merged.lookups(), whole.stats().lookups());
  EXPECT_GE(merged.misses, whole.stats().misses);
}

TEST(CacheStats, SnapshotDifferenceAttributesTheActivityInBetween) {
  // The study service snapshots the shared cache around each tenant's
  // batch; later - earlier must be exactly the in-between tallies.
  CodeModel m = make_model();
  CompilationCache cache;
  BuildSystem build(&m, &cache);

  (void)build.compile_all(o1_plain());
  const CacheStats before = cache.stats();
  (void)build.compile_all(o1_plain());
  (void)build.compile_all(o1_inert());
  const CacheStats delta = cache.stats() - before;
  EXPECT_EQ(delta.hits, 2 * m.files().size());
  EXPECT_EQ(delta.misses, 0u);
  EXPECT_EQ(delta.inserted_bytes, 0u);
  EXPECT_EQ(before + delta, cache.stats());
}

TEST(CompilationCache, EvictionCountsPerEntryNotPerClear) {
  // Regression: the eviction counter historically only moved on wholesale
  // clear()s, so any policy that removes entries one group at a time was
  // invisible in the stats.  A budget of 0 evicts each inserted entry
  // immediately -- the counter must track every one.
  CodeModel m = make_model();
  CompilationCache cache;
  cache.set_budget(0);
  BuildSystem build(&m, &cache);

  (void)build.compile_all(o1_plain());
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, m.files().size());
  EXPECT_EQ(s.evictions, m.files().size());  // every insert evicted
  EXPECT_EQ(s.evicted_bytes, s.inserted_bytes);
  EXPECT_EQ(s.resident_bytes(), 0u);
  EXPECT_EQ(cache.resident_entries(), 0u);

  // Re-compiling misses again: nothing was retained.
  (void)build.compile_all(o1_plain());
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2 * m.files().size());
}

TEST(CompilationCache, UnboundedCacheNeverEvicts) {
  CodeModel m = make_model();
  CompilationCache cache;
  BuildSystem build(&m, &cache);
  for (const Compilation& c : mfem_study_space()) {
    (void)build.compile_all(c);
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().evicted_bytes, 0u);
  EXPECT_EQ(cache.resident_bytes(), cache.stats().inserted_bytes);
  EXPECT_EQ(cache.stats().resident_bytes(), cache.resident_bytes());
}

TEST(CompilationCache, BudgetCapsTheResidentFootprint) {
  CodeModel m = make_model();
  CompilationCache unbounded;
  {
    BuildSystem build(&m, &unbounded);
    for (const Compilation& c : mfem_study_space()) {
      (void)build.compile_all(c);
    }
  }
  const std::uint64_t full = unbounded.resident_bytes();
  ASSERT_GT(full, 0u);

  // A budget of half the full footprint: the cache must stay under it
  // after every insertion, evicting LRU fingerprint groups, and the byte
  // ledgers must reconcile (inserted - evicted == resident).
  CompilationCache bounded;
  bounded.set_budget(full / 2);
  BuildSystem build(&m, &bounded);
  for (const Compilation& c : mfem_study_space()) {
    (void)build.compile_all(c);
    EXPECT_LE(bounded.resident_bytes(), full / 2);
  }
  const CacheStats s = bounded.stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_EQ(s.inserted_bytes - s.evicted_bytes, bounded.resident_bytes());

  // Shrinking the budget evicts immediately; restoring nullopt stops
  // evicting but does not resurrect anything.
  bounded.set_budget(0);
  EXPECT_EQ(bounded.resident_bytes(), 0u);
  EXPECT_EQ(bounded.resident_entries(), 0u);
  bounded.set_budget(std::nullopt);
  EXPECT_EQ(bounded.resident_entries(), 0u);
}

TEST(CompilationCache, EvictedEntriesRebuildByteIdentical) {
  // The determinism half of the bounded-memory contract: an object
  // rebuilt after its group was evicted is byte-identical to the evicted
  // one, so eviction can change hit rates but never study results.
  CodeModel m = make_model();
  CompilationCache tight;
  tight.set_budget(0);  // worst case: every lookup rebuilds
  BuildSystem bounded_build(&m, &tight);
  BuildSystem uncached(&m);
  for (const Compilation& c : mfem_study_space()) {
    for (const std::string& f : m.files()) {
      expect_same_object(bounded_build.compile(f, c), uncached.compile(f, c));
    }
  }
  EXPECT_EQ(tight.stats().hits, 0u);
}

TEST(CompilationCache, ApproxObjectBytesIsContentDerived) {
  CodeModel m = make_model();
  BuildSystem build(&m);
  const ObjectFile a = build.compile("cc/a.cpp", o1_plain());
  EXPECT_GT(approx_object_bytes(*a.code), 0u);
  // Pure function of the contents: equal objects, equal footprint.
  EXPECT_EQ(approx_object_bytes(*a.code),
            approx_object_bytes(*build.compile("cc/a.cpp", o1_plain()).code));
}

TEST(CompilationCache, ClearResetsEntriesAndCounters) {
  CodeModel m = make_model();
  CompilationCache cache;
  BuildSystem build(&m, &cache);
  (void)build.compile_all(o1_plain());
  (void)build.compile_all(o1_plain());
  cache.clear();
  EXPECT_EQ(cache.stats().lookups(), 0u);
  (void)build.compile_all(o1_plain());
  EXPECT_EQ(cache.stats().misses, m.files().size());
}

TEST(CompilationCache, ResidentBytesIgnoreWhichEquivalentTripleFilledASlot) {
  // Equal-fingerprint triples of different spelling share every slot, so
  // the footprint must not depend on which of them missed first -- nor on
  // the order the slots were filled in.
  CodeModel m = make_wide_model();
  const std::vector<std::string>& files = m.files();
  CompilationCache forward;
  CompilationCache backward;
  {
    BuildSystem build(&m, &forward);
    for (const std::string& f : files) (void)build.compile(f, o1_plain());
    for (const std::string& f : files) (void)build.compile(f, o1_inert());
  }
  {
    BuildSystem build(&m, &backward);
    for (auto f = files.rbegin(); f != files.rend(); ++f) {
      (void)build.compile(*f, o1_inert());
    }
    for (auto f = files.rbegin(); f != files.rend(); ++f) {
      (void)build.compile(*f, o1_plain());
    }
  }
  EXPECT_EQ(forward.stats().misses, files.size());
  EXPECT_EQ(backward.stats().misses, files.size());
  EXPECT_EQ(forward.resident_bytes(), backward.resident_bytes());
  EXPECT_EQ(forward.stats().inserted_bytes, backward.stats().inserted_bytes);

  std::uint64_t expected = 0;
  for (const ObjectFile& o : BuildSystem(&m).compile_all(o1_plain())) {
    expected += approx_object_bytes(*o.code);
  }
  EXPECT_EQ(forward.resident_bytes(), expected);
}

TEST(CompilationCache, ConcurrentBatchesShareOneCodePerFile) {
  // Four threads build the same compilation at once: whoever loses a race
  // to fill a slot must come back with the winner's code, so every handle
  // of a file shares one ObjectCode and the cache holds one per file.
  constexpr std::size_t kThreads = 4;
  CodeModel m = make_wide_model();
  const std::size_t files = m.files().size();
  CompilationCache cache;
  const BuildSystem build(&m, &cache);
  std::vector<std::vector<ObjectFile>> objs(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      objs[t] = build.compile_all(o1_plain());
    });
  }
  for (std::thread& th : threads) th.join();

  const std::vector<ObjectFile> fresh = BuildSystem(&m).compile_all(o1_plain());
  for (std::size_t i = 0; i < files; ++i) {
    for (std::size_t t = 0; t < kThreads; ++t) {
      ASSERT_EQ(objs[t].size(), files);
      EXPECT_EQ(objs[t][i].code.get(), objs[0][i].code.get()) << i;
    }
    expect_same_object(objs[0][i], fresh[i]);
  }
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, kThreads * files);
  EXPECT_EQ(cache.resident_entries(), files);
  EXPECT_EQ(build.compile_all(o1_plain())[files - 1].code.get(),
            objs[0][files - 1].code.get());
}

TEST(CompilationCache, FileAddedAfterItsSlabExistsIsCachedAtItsPosition) {
  CodeModel m = make_model();
  CompilationCache cache;
  const BuildSystem build(&m, &cache);
  const std::vector<ObjectFile> before = build.compile_all(o1_plain());
  ASSERT_EQ(before.size(), 2u);

  m.add({.name = "cc::late", .file = "cc/c.cpp"});
  const std::vector<ObjectFile> grown = build.compile_all(o1_inert());
  ASSERT_EQ(grown.size(), 3u);
  EXPECT_EQ(cache.stats().hits, 2u);  // the earlier positions still hit
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(grown[0].code.get(), before[0].code.get());
  EXPECT_EQ(grown[1].code.get(), before[1].code.get());
  expect_same_object(grown[2], BuildSystem(&m).compile("cc/c.cpp", o1_inert()));

  // The new position is cached: a third build is all hits.
  const ObjectFile late = build.compile("cc/c.cpp", o1_plain());
  EXPECT_EQ(late.code.get(), grown[2].code.get());
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.resident_entries(), 3u);
}

TEST(CompilationCache, IsBoundToTheModelOfItsFirstBuild) {
  // Slots are indexed by file position, which means nothing in another
  // model: a second model is rejected rather than served the first one's
  // code.
  CodeModel first = make_model();
  CodeModel second = make_wide_model();
  CompilationCache cache;
  const BuildSystem a(&first, &cache);
  const BuildSystem b(&second, &cache);
  (void)a.compile_all(o1_plain());
  EXPECT_THROW((void)b.compile_all(o1_plain()), std::logic_error);
  EXPECT_THROW((void)b.compile("w/f0.cpp", o1_plain()), std::logic_error);
  EXPECT_EQ(cache.stats().lookups(), first.files().size());

  // clear() makes a fresh cache, free to bind again.
  cache.clear();
  EXPECT_EQ(b.compile_all(o1_plain()).size(), second.files().size());
  EXPECT_THROW((void)a.compile_all(o1_plain()), std::logic_error);
}

TEST(CompilationCache, UnknownFileIsRejectedBeforeTheCache) {
  CodeModel m = make_model();
  CompilationCache cache;
  const BuildSystem build(&m, &cache);
  EXPECT_THROW((void)build.compile("cc/none.cpp", o1_plain()),
               std::invalid_argument);
  EXPECT_EQ(cache.stats().lookups(), 0u);
}

}  // namespace
