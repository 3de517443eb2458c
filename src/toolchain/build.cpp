#include "toolchain/build.h"

#include <optional>
#include <stdexcept>

#include "core/faults.h"
#include "toolchain/semantics_rules.h"

namespace flit::toolchain {

ObjectFile BuildSystem::compile(const std::string& file, const Compilation& c,
                                bool fpic, bool injected) const {
  return compile_with(file, c, fpic, injected,
                      cache_ == nullptr
                          ? CompilationCache::Fingerprints{}
                          : CompilationCache::fingerprints(c, fpic));
}

ObjectFile BuildSystem::compile_with(
    const std::string& file, const Compilation& c, bool fpic, bool injected,
    const CompilationCache::Fingerprints& fp) const {
  // The fault check precedes the cache lookup on purpose: an injected
  // compiler crash must not depend on whether a semantically equivalent
  // object happens to be cached (cache state varies with scheduling; the
  // fault decision must not).
  if (core::FaultInjector::global().any_armed()) {
    core::FaultInjector::global().maybe_fail(
        core::FaultSite::Compile,
        file + "|" + c.str() + (fpic ? "|fpic" : "") +
            (injected ? "|injected" : ""));
  }
  if (cache_ == nullptr) {
    return ObjectFile{compile_code(file, c, fpic, injected), c};
  }
  return cache_->get_or_build(file, c, fp, injected, [&] {
    return compile_code(file, c, fpic, injected);
  });
}

std::shared_ptr<const ObjectCode> BuildSystem::compile_code(
    const std::string& file, const Compilation& c, bool fpic,
    bool injected) const {
  const auto fns = model_->functions_in(file);
  if (fns.empty()) {
    throw std::invalid_argument("unknown source file: " + file);
  }
  auto code = std::make_shared<ObjectCode>();
  code->source_file = file;
  code->fpic = fpic;
  code->injected = injected;
  code->bindings.reserve(fns.size());
  for (fpsem::FunctionId id : fns) {
    const fpsem::FunctionInfo& fi = model_->info(id);
    code->bindings.push_back({id, derive_binding(c, fi, fpic)});
    if (fi.exported) {
      code->symbols.push_back(SymbolDef{fi.name, id, /*strong=*/true});
    } else {
      // Only an exported host can win a symbol; the linker places an
      // internal function with any other host by its file alone.
      const std::optional<fpsem::FunctionId> host =
          model_->find(fi.host_symbol);
      code->internal_fns.push_back(
          {id, host.has_value() && model_->info(*host).exported
                   ? *host
                   : fpsem::kInvalidFunction});
    }
  }
  return code;
}

std::vector<ObjectFile> BuildSystem::compile_all(const Compilation& c,
                                                 bool fpic,
                                                 bool injected) const {
  // One fingerprint derivation per build, not one per file: every file of
  // the build shares the compilation.
  const CompilationCache::Fingerprints fp =
      cache_ == nullptr ? CompilationCache::Fingerprints{}
                        : CompilationCache::fingerprints(c, fpic);
  std::vector<ObjectFile> out;
  out.reserve(model_->files().size());
  for (const std::string& f : model_->files()) {
    out.push_back(compile_with(f, c, fpic, injected, fp));
  }
  return out;
}

}  // namespace flit::toolchain
