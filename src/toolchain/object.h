#pragma once

// Object files of the simulated toolchain.
//
// An object file is one translation unit compiled under one compilation
// triple: it defines strong (or, after objcopy, weak) symbols for the
// file's exported functions and carries the FnBinding each of the file's
// functions (exported and internal) executes with.
//
// It comes in two parts.  ObjectCode is the compiled code: immutable once
// built, and shared by every handle to it (the compilation cache hands
// one ObjectCode to every semantically equivalent triple).  ObjectFile is
// the cheap handle: the shared code plus the raw triple it was requested
// under, which the ABI-hazard predicates hash.

#include <memory>
#include <string>
#include <vector>

#include "fpsem/code_model.h"
#include "fpsem/semantics.h"
#include "toolchain/compiler.h"

namespace flit::toolchain {

struct SymbolDef {
  std::string name;
  fpsem::FunctionId fn = fpsem::kInvalidFunction;
  bool strong = true;
};

/// An internal function and the exported function that hosts it
/// (kInvalidFunction when no exported function of the model had the host
/// symbol's name at compile time).
struct InternalFn {
  fpsem::FunctionId fn = fpsem::kInvalidFunction;
  fpsem::FunctionId host = fpsem::kInvalidFunction;

  friend bool operator==(const InternalFn&, const InternalFn&) = default;
};

/// One function of the file and the behaviour it was compiled to.
struct CompiledFn {
  fpsem::FunctionId fn = fpsem::kInvalidFunction;
  fpsem::FnBinding binding;

  friend bool operator==(const CompiledFn&, const CompiledFn&) = default;
};

struct ObjectCode {
  std::string source_file;
  bool fpic = false;

  /// True for objects produced by the injection framework's instrumented
  /// build; functions whose winning copy comes from such an object carry
  /// the injected instruction.
  bool injected = false;

  /// Exported symbols defined by this object.
  std::vector<SymbolDef> symbols;

  /// Internal (static / always-inlined) functions of the file, reachable
  /// only through their host symbols.
  std::vector<InternalFn> internal_fns;

  /// Compiled behaviour of every function in the file, in the model's
  /// registration order.
  std::vector<CompiledFn> bindings;
};

struct ObjectFile {
  /// Never null for an object a BuildSystem or objcopy returned.
  std::shared_ptr<const ObjectCode> code;
  Compilation comp;
};

}  // namespace flit::toolchain
