#pragma once

// The simulated build system: compiles model source files into object
// files under a compilation triple, and provides the convenience "compile
// everything" entry the FLiT runner and Bisect drivers use.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fpsem/code_model.h"
#include "toolchain/compile_cache.h"
#include "toolchain/object.h"

namespace flit::toolchain {

class BuildSystem {
 public:
  /// `cache`, when non-null, memoizes per-file objects across semantically
  /// equivalent compilations; it may be shared with other BuildSystems of
  /// the same model and with other threads (CompilationCache is
  /// thread-safe).  The cache must outlive this BuildSystem.
  explicit BuildSystem(const fpsem::CodeModel* model,
                       CompilationCache* cache = nullptr)
      : model_(model), cache_(cache) {}

  /// Compiles one source file of the model under `c`.
  /// `fpic` models -fPIC (Symbol Bisect recompiles with it); `injected`
  /// marks the object as coming from the instrumented injection build.
  [[nodiscard]] ObjectFile compile(const std::string& file,
                                   const Compilation& c, bool fpic = false,
                                   bool injected = false) const;

  /// Compiles every file of the model under `c`.  Equivalent to compile()
  /// per file, in files() order -- the compile fault site is consulted for
  /// every file, in that order, before the cache is -- but derives the
  /// cache fingerprints once and probes the cache as one batch.
  [[nodiscard]] std::vector<ObjectFile> compile_all(
      const Compilation& c, bool fpic = false, bool injected = false) const;

  [[nodiscard]] const fpsem::CodeModel& model() const { return *model_; }

  void set_cache(CompilationCache* cache) { cache_ = cache; }
  [[nodiscard]] CompilationCache* cache() const { return cache_; }

 private:
  /// Fills out[k] with the object of the file at position first + k,
  /// through the cache when there is one.
  void compile_range(std::size_t first, std::span<ObjectFile> out,
                     const Compilation& c, bool fpic, bool injected) const;

  [[nodiscard]] std::shared_ptr<const ObjectCode> compile_code(
      std::size_t file_position, const Compilation& c, bool fpic,
      bool injected) const;

  const fpsem::CodeModel* model_;
  CompilationCache* cache_;
};

}  // namespace flit::toolchain
