#pragma once

// Derivation rules: compilation triple -> floating-point semantics + cost.
//
// These rules encode each compiler's published floating-point behaviour:
//  * g++ honours IEEE semantics by default; value-changing behaviour needs
//    explicit flags (-funsafe-math-optimizations, -fassociative-math,
//    -freciprocal-math) or FMA-capable ISA selection (-mavx2 -mfma, with
//    GCC's default -ffp-contract=fast contracting mul+add chains).
//  * clang++ 6 is the most conservative: no contraction by default even
//    when FMA hardware is selected; only fast-math-family flags change
//    values.  (This is why clang shows the fewest variable compilations in
//    Table 1.)
//  * icpc defaults to -fp-model fast=1 at -O1 and above (reassociation +
//    FMA), and its *link step* substitutes the fast vendor libm regardless
//    of per-TU switches -- reproducing both the ~50% variable-compilation
//    rate of Table 1 and the "Intel link step" variability of Figure 5.
//  * xlc++ contracts FMA at -O2 and becomes value-unsafe (and aggressive
//    enough to break UB-dependent idioms) at -O3 unless
//    -qstrict=vectorprecision is given -- the Laghos story of Sec. 3.4.
//
// The same header hosts the deterministic "hardware/ABI hazard" predicates
// (hash-seeded, reproducible): which Intel-compiled objects are
// ABI-incompatible with g++-compiled ones (the segfaults behind Table 2's
// File Bisect failure rate) and which symbol-level mixes crash.

#include <string>

#include "fpsem/code_model.h"
#include "fpsem/semantics.h"
#include "toolchain/compiler.h"

namespace flit::toolchain {

/// Floating-point semantics of code compiled under `c` (TU-level view;
/// does not include per-function libm or inlining adjustments).
fpsem::FpSemantics derive_semantics(const Compilation& c);

/// Deterministic cost factors of code compiled under `c`.
fpsem::CostFactors derive_cost(const Compilation& c);

/// True when `c` compiles calls to transcendental functions against the
/// vendor's fast low-accuracy libm at *compile* time (e.g. icpc
/// -fimf-precision=low, -fast-transcendentals, -fp-model fast=2).
bool compile_time_fast_libm(const Compilation& c);

/// True when the *link step* driven by `link_compiler` substitutes the
/// fast vendor libm for every transcendental call in the binary,
/// regardless of per-TU switches (the icpc behaviour of Sec. 3.1).
bool link_step_fast_libm(const CompilerSpec& link_compiler);

/// Per-function compiled binding under `c`.  Accounts for:
///  * compile-time fast libm on libm-using functions,
///  * -fPIC: slight call overhead, and -- for cross-TU inline candidates
///    whose variability came from inlining-enabled optimization -- loss of
///    that variability (the Sec. 2.3 "variability removed by -fPIC" case).
fpsem::FnBinding derive_binding(const Compilation& c,
                                const fpsem::FunctionInfo& fn, bool fpic);

/// Deterministic predicate: is this (file, compilation) object file
/// ABI-incompatible with g++-compiled objects?  Linking such an object
/// into a mixed binary crashes it at run time (Table 2 failures).
bool abi_toxic(const std::string& file, const Compilation& c);

/// abi_toxic(file, c) with `rendered` == c.str() supplied by the caller, so
/// a scan over many objects of one compilation renders it once.
bool abi_toxic(const std::string& file, const Compilation& c,
               const std::string& rendered);

/// Deterministic predicate: does linking two differently-compiled copies
/// of `file` (the Symbol Bisect strong/weak trick) produce a crashing
/// executable?  Symmetric in (a, b).
bool symbol_mix_toxic(const std::string& file, const Compilation& a,
                      const Compilation& b);

/// Deterministic predicate: is the variability `fn` exhibits under `c`
/// created by cross-TU inlining (and therefore removed by -fPIC)?
bool inlining_carries_variability(const fpsem::FunctionInfo& fn,
                                  const Compilation& c);

/// Stable 64-bit FNV-1a hash used by all hazard predicates.
std::uint64_t stable_hash(const std::string& s);

}  // namespace flit::toolchain
