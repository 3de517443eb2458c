#include "toolchain/build.h"

#include <optional>
#include <stdexcept>

#include "core/faults.h"
#include "toolchain/semantics_rules.h"

namespace flit::toolchain {

namespace {

/// The fault checks precede the cache lookup on purpose: an injected
/// compiler crash must not depend on whether a semantically equivalent
/// object happens to be cached (cache state varies with scheduling; the
/// fault decision must not).
void check_compile_faults(std::span<const std::string> files,
                          const Compilation& c, bool fpic, bool injected) {
  core::FaultInjector& faults = core::FaultInjector::global();
  if (!faults.any_armed()) return;
  const std::string suffix = "|" + c.str() + (fpic ? "|fpic" : "") +
                             (injected ? "|injected" : "");
  for (const std::string& f : files) {
    faults.maybe_fail(core::FaultSite::Compile, f + suffix);
  }
}

}  // namespace

ObjectFile BuildSystem::compile(const std::string& file, const Compilation& c,
                                bool fpic, bool injected) const {
  check_compile_faults(std::span(&file, 1), c, fpic, injected);
  const std::optional<std::size_t> pos = model_->file_position(file);
  if (!pos.has_value()) {
    throw std::invalid_argument("unknown source file: " + file);
  }
  ObjectFile out;
  compile_range(*pos, std::span(&out, 1), c, fpic, injected);
  return out;
}

std::vector<ObjectFile> BuildSystem::compile_all(const Compilation& c,
                                                 bool fpic,
                                                 bool injected) const {
  const std::vector<std::string>& files = model_->files();
  check_compile_faults(files, c, fpic, injected);
  std::vector<ObjectFile> out(files.size());
  compile_range(0, out, c, fpic, injected);
  return out;
}

void BuildSystem::compile_range(std::size_t first, std::span<ObjectFile> out,
                                const Compilation& c, bool fpic,
                                bool injected) const {
  const auto build = [&](std::size_t pos) {
    return compile_code(pos, c, fpic, injected);
  };
  if (cache_ == nullptr) {
    for (std::size_t k = 0; k < out.size(); ++k) {
      out[k] = ObjectFile{build(first + k), c};
    }
    return;
  }
  // One fingerprint derivation per build, not one per file: every file of
  // the build shares the compilation.
  cache_->get_or_build(*model_, first, out, c,
                       CompilationCache::fingerprints(c, fpic), injected,
                       build);
}

std::shared_ptr<const ObjectCode> BuildSystem::compile_code(
    std::size_t file_position, const Compilation& c, bool fpic,
    bool injected) const {
  const std::vector<fpsem::FunctionId>& fns =
      model_->functions_at(file_position);
  auto code = std::make_shared<ObjectCode>();
  code->source_file = model_->files()[file_position];
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

}  // namespace flit::toolchain
