#include "toolchain/semantics_rules.h"

#include <utility>

namespace flit::toolchain {

namespace {

using fpsem::CostFactors;
using fpsem::FpSemantics;

bool optimizing(const Compilation& c) { return c.opt >= OptLevel::O1; }

FpSemantics gcc_semantics(const Compilation& c) {
  FpSemantics s;
  if (!optimizing(c)) return s;  // -O0: no value-changing transformations
  const std::string& f = c.flag;
  if (f == "-funsafe-math-optimizations") {
    s.unsafe_math = true;
    s.reassoc_width = 4;
  } else if (f == "-freciprocal-math") {
    s.unsafe_math = true;
  } else if (f == "-mavx2 -mfma") {
    // GCC contracts mul+add chains by default (-ffp-contract=fast) as soon
    // as an FMA-capable ISA is selected.
    s.contract_fma = true;
  }
  // "-fassociative-math" alone is documented as inert (it requires
  // -fno-signed-zeros and -fno-trapping-math to activate), and
  // "-ffp-contract=on" behaves as "off" for C++ in this GCC generation --
  // both contribute flag coverage without changing values.
  return s;
}

// The workloads are memory-bound, so SIMD widening buys little: bulk
// factors are deliberately modest (AVX2 on these parts also downclocks,
// which is why "-mavx2 -mfma" can come out *slower* than plain -O3, as the
// paper observed on MFEM example 5).
CostFactors gcc_cost(const Compilation& c) {
  CostFactors k;
  switch (c.opt) {
    case OptLevel::O0: k = {3.00, 1.00}; break;
    case OptLevel::O1: k = {1.18, 1.00}; break;
    case OptLevel::O2: k = {1.00, 1.15}; break;
    case OptLevel::O3: k = {0.96, 1.25}; break;
  }
  if (!optimizing(c)) return k;
  const std::string& f = c.flag;
  if (f == "-mavx") {
    k.bulk_scale *= 1.03;
  } else if (f == "-mavx2 -mfma") {
    k.bulk_scale *= 1.00;
    k.time_scale *= 1.02;  // AVX2 downclocking
  } else if (f == "-funsafe-math-optimizations") {
    k.bulk_scale *= 1.005;  // vectorized reductions: memory-bound anyway
  } else if (f == "-frounding-math") {
    k.bulk_scale = 1.0;
    k.time_scale *= 1.08;
  } else if (f == "-ffloat-store") {
    k.time_scale *= 1.15;  // every intermediate spilled to memory
  }
  return k;
}

FpSemantics clang_semantics(const Compilation& c) {
  FpSemantics s;
  if (!optimizing(c)) return s;
  const std::string& f = c.flag;
  if (f == "-ffast-math") {
    s.unsafe_math = true;
    s.reassoc_width = 4;
    s.contract_fma = true;
  } else if (f == "-ffp-contract=fast") {
    s.contract_fma = true;
  } else if (f == "-fdenormal-fp-math=preserve-sign") {
    s.flush_subnormals = true;
  }
  // NOTE: clang 6 does *not* contract by default, so "-mavx2 -mfma" and
  // "-mfma" only change speed, not values; "-ffp-contract=on" is treated
  // as "off" for C++ by this clang generation, and the piecemeal
  // fast-math flags (-fassociative-math, -freciprocal-math,
  // -funsafe-math-optimizations) are driver no-ops outside the
  // -ffast-math umbrella -- which is why clang shows by far the fewest
  // variable compilations in Table 1.
  return s;
}

CostFactors clang_cost(const Compilation& c) {
  CostFactors k;
  switch (c.opt) {
    case OptLevel::O0: k = {3.10, 1.00}; break;
    case OptLevel::O1: k = {1.22, 1.00}; break;
    case OptLevel::O2: k = {1.03, 1.12}; break;
    case OptLevel::O3: k = {0.98, 1.23}; break;
  }
  if (!optimizing(c)) return k;
  const std::string& f = c.flag;
  if (f == "-mavx") {
    k.bulk_scale *= 1.03;
  } else if (f == "-mavx2 -mfma" || f == "-march=core-avx2" || f == "-mfma") {
    k.bulk_scale *= 1.02;
    k.time_scale *= 1.01;
  } else if (f == "-ffast-math") {
    k.bulk_scale *= 1.005;
  } else if (f == "-frounding-math") {
    k.bulk_scale = 1.0;
    k.time_scale *= 1.06;
  }
  return k;
}

/// icpc's default floating-point model at -O1 and above.
FpSemantics icpc_fast1() {
  FpSemantics s;
  s.contract_fma = true;
  s.reassoc_width = 2;
  return s;
}

FpSemantics icpc_semantics(const Compilation& c) {
  if (!optimizing(c)) return {};  // no transformations run at -O0
  const std::string& f = c.flag;
  if (f == "-fp-model precise" || f == "-fp-model source" ||
      f == "-fp-model strict" || f == "-mieee-fp") {
    return {};
  }
  if (f == "-fp-model double" || f == "-fp-model extended") {
    FpSemantics s;
    s.extended_precision = true;  // wider intermediates, precise model
    return s;
  }
  FpSemantics s = icpc_fast1();
  if (f == "-fp-model fast=2") {
    s.reassoc_width = 4;
    s.unsafe_math = true;
    s.flush_subnormals = true;
    s.fast_libm = true;
  } else if (f == "-no-fma") {
    s.contract_fma = false;
  } else if (f == "-ftz") {
    s.flush_subnormals = true;
  } else if (f == "-no-prec-div" || f == "-no-prec-sqrt") {
    s.unsafe_math = true;
  } else if (f == "-fimf-precision=low" || f == "-fast-transcendentals") {
    s.fast_libm = true;
  }
  // "-fma", "-no-ftz", "-prec-div", "-prec-sqrt", "-fimf-precision=high",
  // "-fimf-precision=medium", "-no-fast-transcendentals", "-fp-port",
  // "-mavx", "-mavx2 -mfma", "-march=core-avx2": default fast=1 model.
  return s;
}

CostFactors icpc_cost(const Compilation& c) {
  CostFactors k;
  switch (c.opt) {
    case OptLevel::O0: k = {3.00, 1.00}; break;
    case OptLevel::O1: k = {1.12, 1.05}; break;
    case OptLevel::O2: k = {1.005, 1.14}; break;
    case OptLevel::O3: k = {0.985, 1.19}; break;
  }
  if (!optimizing(c)) return k;
  const std::string& f = c.flag;
  if (f == "-mavx") {
    k.bulk_scale *= 1.03;
  } else if (f == "-mavx2 -mfma" || f == "-march=core-avx2") {
    k.bulk_scale *= 1.02;
  } else if (f == "-fp-model fast=2") {
    k.bulk_scale *= 1.005;
  } else if (f == "-fp-model precise" || f == "-fp-model source") {
    k.bulk_scale *= 0.92;
  } else if (f == "-fp-model strict") {
    k.bulk_scale = 1.0;
    k.time_scale *= 1.10;
  } else if (f == "-fp-model double" || f == "-fp-model extended") {
    k.time_scale *= 1.12;
    k.bulk_scale = 1.0;
  } else if (f == "-mieee-fp") {
    k.bulk_scale *= 0.92;
  }
  return k;
}

FpSemantics xlc_semantics(const Compilation& c) {
  FpSemantics s;
  if (!optimizing(c)) return s;
  s.contract_fma = true;  // xlc fuses multiply-add by default
  if (c.opt >= OptLevel::O3 && c.flag != "-qstrict=vectorprecision") {
    s.reassoc_width = 4;
    s.unsafe_math = true;
    s.exploits_ub = true;
  }
  return s;
}

CostFactors xlc_cost(const Compilation& c) {
  CostFactors k;
  switch (c.opt) {
    case OptLevel::O0: k = {2.80, 1.0}; break;
    case OptLevel::O1: k = {1.30, 1.0}; break;
    case OptLevel::O2: k = {1.00, 1.2}; break;
    case OptLevel::O3: k = {0.42, 2.2}; break;  // Laghos saw 2.42x O2->O3
  }
  if (c.opt >= OptLevel::O3 && c.flag == "-qstrict=vectorprecision") {
    k.bulk_scale = 1.6;
    k.time_scale = 0.50;
  }
  return k;
}

}  // namespace

FpSemantics derive_semantics(const Compilation& c) {
  switch (c.compiler.family) {
    case CompilerFamily::GCC: return gcc_semantics(c);
    case CompilerFamily::Clang: return clang_semantics(c);
    case CompilerFamily::Intel: return icpc_semantics(c);
    case CompilerFamily::XLC: return xlc_semantics(c);
  }
  return {};
}

CostFactors derive_cost(const Compilation& c) {
  switch (c.compiler.family) {
    case CompilerFamily::GCC: return gcc_cost(c);
    case CompilerFamily::Clang: return clang_cost(c);
    case CompilerFamily::Intel: return icpc_cost(c);
    case CompilerFamily::XLC: return xlc_cost(c);
  }
  return {};
}

bool compile_time_fast_libm(const Compilation& c) {
  return derive_semantics(c).fast_libm;
}

bool link_step_fast_libm(const CompilerSpec& link_compiler) {
  return link_compiler.family == CompilerFamily::Intel;
}

fpsem::FnBinding derive_binding(const Compilation& c,
                                const fpsem::FunctionInfo& fn, bool fpic) {
  fpsem::FnBinding b;
  b.sem = derive_semantics(c);
  b.cost = derive_cost(c);
  // Fast transcendentals only matter for functions that call libm; keep
  // the binding of libm-free functions canonical so strictness checks and
  // binary comparisons are meaningful.
  b.sem.fast_libm = fn.uses_libm && compile_time_fast_libm(c);
  if (fpic) {
    b.cost.time_scale *= 1.03;  // PLT-indirect calls, no cross-TU inlining
    if (!b.sem.strict() && inlining_carries_variability(fn, c)) {
      // The optimization that changed this function's values required
      // inlining it into its callers; -fPIC disables that, so the compiled
      // function reverts to baseline numerics (Sec. 2.3).
      b.sem = fpsem::FpSemantics{};
    }
  }
  return b;
}

std::uint64_t stable_hash(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

bool abi_toxic(const std::string& file, const Compilation& c) {
  return c.compiler.family == CompilerFamily::Intel &&
         abi_toxic(file, c, c.str());
}

bool abi_toxic(const std::string& file, const Compilation& c,
               const std::string& rendered) {
  if (c.compiler.family != CompilerFamily::Intel) return false;
  return stable_hash("abi:" + file + ":" + rendered) % 1000 < 16;  // 1.6%
}

namespace {
unsigned symbol_mix_rate(CompilerFamily f) {
  switch (f) {
    case CompilerFamily::GCC: return 340;    // 34% of runs crash
    case CompilerFamily::Clang: return 0;    // clang mixes cleanly
    case CompilerFamily::Intel: return 250;  // 25%
    case CompilerFamily::XLC: return 60;
  }
  return 0;
}
}  // namespace

bool symbol_mix_toxic(const std::string& file, const Compilation& a,
                      const Compilation& b) {
  // Same family: that family's strong/weak interposition reliability.
  // Mixed families: the non-GCC (non-baseline) toolchain dominates.
  unsigned rate = 0;
  if (a.compiler.family == b.compiler.family) {
    rate = symbol_mix_rate(a.compiler.family);
  } else {
    const CompilerFamily f = a.compiler.family != CompilerFamily::GCC
                                 ? a.compiler.family
                                 : b.compiler.family;
    rate = symbol_mix_rate(f);
  }
  std::string lo = a.str(), hi = b.str();
  if (hi < lo) std::swap(lo, hi);
  return stable_hash("sym:" + file + ":" + lo + "|" + hi) % 1000 < rate;
}

bool inlining_carries_variability(const fpsem::FunctionInfo& fn,
                                  const Compilation& c) {
  if (!fn.inline_candidate) return false;
  return stable_hash("inl:" + fn.name + ":" + c.str()) % 1000 < 300;  // 30%
}

}  // namespace flit::toolchain
