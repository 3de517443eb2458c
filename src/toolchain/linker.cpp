#include "toolchain/linker.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/faults.h"
#include "toolchain/semantics_rules.h"

namespace flit::toolchain {

Executable Linker::link(std::span<const ObjectFile> objects,
                        const CompilerSpec& link_compiler) const {
  if (core::FaultInjector::global().any_armed()) {
    core::FaultInjector::global().maybe_fail(
        core::FaultSite::Link, "link|" + link_compiler.name);
  }
  const std::size_t n_fns = model_->function_count();
  Executable exe;
  exe.map = fpsem::SemanticsMap(n_fns);
  exe.from_injected.assign(n_fns, false);

  // Resolution state is indexed by FunctionId (and object files by their
  // position on the link line), so the link allocates no per-symbol
  // strings or maps.
  constexpr std::uint32_t kNone = ~std::uint32_t{0};

  // --- coverage check: every model file must appear on the link line ---
  // Every object's functions belong to its source file, so any one of
  // them names the file.
  const std::vector<std::string>& files = model_->files();
  std::vector<std::uint32_t> file_of(objects.size());
  std::vector<bool> covered(files.size(), false);
  for (std::size_t i = 0; i < objects.size(); ++i) {
    file_of[i] = static_cast<std::uint32_t>(
        model_->file_index(objects[i].code->bindings.front().fn));
    covered[file_of[i]] = true;
  }
  for (std::size_t f = 0; f < files.size(); ++f) {
    if (!covered[f]) {
      throw LinkError(LinkError::Kind::MissingFile,
                      "no object file provides " + files[f]);
    }
  }

  // --- symbol resolution -----------------------------------------------
  // from[fn] = index of the object whose definition of fn is kept.  A
  // strong definition always wins (so a later strong one overrides an
  // earlier weak one); otherwise the first weak one in link order does.
  std::vector<std::uint32_t> from(n_fns, kNone);
  std::vector<bool> strong(n_fns, false);
  for (std::size_t i = 0; i < objects.size(); ++i) {
    for (const SymbolDef& s : objects[i].code->symbols) {
      if (s.strong) {
        if (strong[s.fn]) {
          throw LinkError(LinkError::Kind::DuplicateStrong,
                          "duplicate strong symbol " + s.name);
        }
        strong[s.fn] = true;
        from[s.fn] = static_cast<std::uint32_t>(i);
      } else if (from[s.fn] == kNone) {
        from[s.fn] = static_cast<std::uint32_t>(i);
      }
    }
  }

  // Every exported function of the model must be resolved.
  for (std::size_t id = 0; id < n_fns; ++id) {
    const auto& fi = model_->info(static_cast<fpsem::FunctionId>(id));
    if (fi.exported && from[id] == kNone) {
      throw LinkError(LinkError::Kind::Unresolved,
                      "unresolved symbol " + fi.name);
    }
  }

  // --- internal functions follow their host symbol ----------------------
  // The copy in the object that won the host symbol, else (the host lives
  // in another file) the first object of the function's file.
  for (std::size_t i = 0; i < objects.size(); ++i) {
    for (const InternalFn& f : objects[i].code->internal_fns) {
      if (f.host != fpsem::kInvalidFunction && from[f.host] == i) {
        from[f.fn] = static_cast<std::uint32_t>(i);
      }
    }
  }
  for (std::size_t i = 0; i < objects.size(); ++i) {
    for (const InternalFn& f : objects[i].code->internal_fns) {
      if (from[f.fn] == kNone) from[f.fn] = static_cast<std::uint32_t>(i);
    }
  }
  for (std::size_t id = 0; id < n_fns; ++id) {
    const auto& fi = model_->info(static_cast<fpsem::FunctionId>(id));
    if (!fi.exported && from[id] == kNone) {
      throw LinkError(LinkError::Kind::Unresolved,
                      "internal function " + fi.name + " not linked");
    }
  }

  // --- bind every function to its winning object --------------------------
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const ObjectCode& code = *objects[i].code;
    for (const CompiledFn& f : code.bindings) {
      if (from[f.fn] != i) continue;
      exe.map.binding(f.fn) = f.binding;
      exe.from_injected[f.fn] = code.injected;
    }
  }

  // --- link-step libm substitution --------------------------------------
  if (link_step_fast_libm(link_compiler)) {
    for (std::size_t id = 0; id < n_fns; ++id) {
      const auto fid = static_cast<fpsem::FunctionId>(id);
      if (model_->info(fid).uses_libm) {
        exe.map.binding(fid).sem.fast_libm = true;
      }
    }
  }

  // --- run-time hazards --------------------------------------------------
  // (a) ABI mixing: an Intel-compiled object linked next to GCC/Clang
  //     objects segfaults when the (file, compilation) pair is toxic.
  bool has_gnu = false;
  for (const ObjectFile& o : objects) {
    if (o.comp.compiler.family == CompilerFamily::GCC ||
        o.comp.compiler.family == CompilerFamily::Clang) {
      has_gnu = true;
    }
  }
  if (has_gnu) {
    // Each distinct compilation on the link line is rendered once.
    std::vector<std::pair<const Compilation*, std::string>> rendered;
    for (const ObjectFile& o : objects) {
      if (o.comp.compiler.family != CompilerFamily::Intel) continue;
      auto r = std::find_if(rendered.begin(), rendered.end(),
                            [&](const auto& p) { return *p.first == o.comp; });
      if (r == rendered.end()) {
        r = rendered.emplace(rendered.end(), &o.comp, o.comp.str());
      }
      if (abi_toxic(o.code->source_file, o.comp, r->second)) {
        exe.crashes = true;
        exe.crash_reason = "SIGSEGV: ABI-incompatible object " +
                           o.code->source_file + " [" + r->second + "]";
        break;
      }
    }
  }
  // (b) Symbol Bisect mixes: two copies of one file under different
  //     compilations in one image.
  if (!exe.crashes) {
    std::vector<std::uint32_t> first_of_file(files.size(), kNone);
    for (std::size_t i = 0; i < objects.size(); ++i) {
      std::uint32_t& first = first_of_file[file_of[i]];
      if (first == kNone) {
        first = static_cast<std::uint32_t>(i);
        continue;
      }
      const ObjectFile& o = objects[i];
      const Compilation& a = objects[first].comp;
      if (!(a == o.comp) &&
          symbol_mix_toxic(o.code->source_file, a, o.comp)) {
        exe.crashes = true;
        exe.crash_reason = "SIGSEGV: fragile strong/weak interposition in " +
                           o.code->source_file;
        break;
      }
    }
  }

  return exe;
}

}  // namespace flit::toolchain
