// Property tests of the linker: randomized strong/weak symbol partitions
// must always bind each exported function to exactly the chosen side, and
// internal functions must always follow their host symbol.

#include <random>

#include <gtest/gtest.h>

#include "fpsem/code_model.h"
#include "toolchain/build.h"
#include "toolchain/linker.h"
#include "toolchain/objcopy.h"
#include "toolchain/semantics_rules.h"

namespace {

using namespace flit::toolchain;
using flit::fpsem::CodeModel;
using flit::fpsem::FunctionId;

/// A file with `n_exported` exported functions, each hosting one internal.
CodeModel make_model(int n_exported) {
  CodeModel m;
  for (int i = 0; i < n_exported; ++i) {
    const std::string name = "p::f" + std::to_string(i);
    m.add({.name = name, .file = "p/impl.cpp"});
    m.add({.name = "p::detail" + std::to_string(i),
           .file = "p/impl.cpp",
           .exported = false,
           .host_symbol = name});
  }
  m.add({.name = "q::g", .file = "q/other.cpp"});
  return m;
}

Compilation base() { return {gcc(), OptLevel::O0, ""}; }
Compilation variant() {
  return {gcc(), OptLevel::O2, "-funsafe-math-optimizations"};
}

class LinkerPartitionTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(LinkerPartitionTest, EveryFunctionBindsToItsChosenSide) {
  const unsigned seed = GetParam();
  std::mt19937 rng(seed);
  const int n = 8;
  CodeModel m = make_model(n);
  BuildSystem build(&m);
  Linker linker(&m);

  // Random subset of exported symbols taken from the variant object.
  std::vector<std::string> chosen;
  for (int i = 0; i < n; ++i) {
    if (rng() % 2 == 0) chosen.push_back("p::f" + std::to_string(i));
  }

  const ObjectFile var = objcopy_weaken_complement(
      build.compile("p/impl.cpp", variant(), /*fpic=*/true), chosen);
  const ObjectFile bas = objcopy_weaken(
      build.compile("p/impl.cpp", base(), /*fpic=*/true), chosen);
  const std::vector<ObjectFile> objs{var, bas,
                                     build.compile("q/other.cpp", base())};
  const Executable exe = linker.link(objs, gcc());

  const auto var_sem = derive_semantics(variant());
  for (int i = 0; i < n; ++i) {
    const FunctionId f = *m.find("p::f" + std::to_string(i));
    const FunctionId d = *m.find("p::detail" + std::to_string(i));
    const bool is_chosen =
        std::find(chosen.begin(), chosen.end(),
                  "p::f" + std::to_string(i)) != chosen.end();
    // Note: with fpic, variant semantics may have been stripped for
    // inline candidates -- none here, so the check is exact.
    EXPECT_EQ(exe.map.binding(f).sem == var_sem, is_chosen) << i;
    // The internal detail function follows its host's side.
    EXPECT_EQ(exe.map.binding(d).sem == var_sem, is_chosen) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkerPartitionTest,
                         ::testing::Range(0u, 12u));

TEST(LinkerProperty, ResolutionIsLinkOrderIndependentForStrongSymbols) {
  CodeModel m = make_model(4);
  BuildSystem build(&m);
  Linker linker(&m);
  std::vector<ObjectFile> objs{build.compile("p/impl.cpp", variant()),
                               build.compile("q/other.cpp", base())};
  const Executable a = linker.link(objs, gcc());
  std::swap(objs[0], objs[1]);
  const Executable b = linker.link(objs, gcc());
  EXPECT_EQ(a.map, b.map);
}

TEST(LinkerProperty, AllWeakTakesTheFirstDefinitionInLinkOrder) {
  CodeModel m;
  m.add({.name = "w::f", .file = "w/a.cpp"});
  BuildSystem build(&m);
  Linker linker(&m);
  const auto weaken_all = [](const ObjectFile& o) {
    return objcopy_weaken(o, {"w::f"});
  };
  ObjectFile first = weaken_all(build.compile("w/a.cpp", variant()));
  ObjectFile second = weaken_all(build.compile("w/a.cpp", base()));
  const std::vector<ObjectFile> objs{first, second};
  const Executable exe = linker.link(objs, gcc());
  EXPECT_EQ(exe.map.binding(*m.find("w::f")).sem,
            derive_semantics(variant()));
}

}  // namespace
