// The simulated linker: strong/weak resolution, duplicate and missing
// symbol errors, internal-function binding through host symbols, link-step
// libm substitution, injected-build tracking, objcopy, and the run-time
// hazard modeling.

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

CodeModel make_model() {
  CodeModel m;
  m.add({.name = "alpha::f", .file = "alpha.cpp"});
  m.add({.name = "alpha::g", .file = "alpha.cpp"});
  m.add({.name = "alpha::hidden",
         .file = "alpha.cpp",
         .exported = false,
         .host_symbol = "alpha::g"});
  m.add({.name = "beta::h", .file = "beta.cpp", .uses_libm = true});
  return m;
}

Compilation base_comp() { return {gcc(), OptLevel::O0, ""}; }
Compilation var_comp() {
  return {gcc(), OptLevel::O2, "-funsafe-math-optimizations"};
}

TEST(Linker, UniformLinkBindsEverythingToTheCompilation) {
  CodeModel m = make_model();
  BuildSystem build(&m);
  Linker linker(&m);
  const auto objs = build.compile_all(var_comp());
  const Executable exe = linker.link(objs, gcc());
  EXPECT_FALSE(exe.crashes);
  const auto expect = derive_semantics(var_comp());
  for (FunctionId id = 0; id < m.function_count(); ++id) {
    EXPECT_EQ(exe.map.binding(id).sem, expect) << m.info(id).name;
  }
}

TEST(Linker, MissingFileIsALinkError) {
  CodeModel m = make_model();
  BuildSystem build(&m);
  Linker linker(&m);
  std::vector<ObjectFile> objs{build.compile("alpha.cpp", base_comp())};
  EXPECT_THROW(
      {
        try {
          (void)linker.link(objs, gcc());
        } catch (const LinkError& e) {
          EXPECT_EQ(e.kind(), LinkError::Kind::MissingFile);
          throw;
        }
      },
      LinkError);
}

TEST(Linker, TwoStrongCopiesOfAFileClash) {
  CodeModel m = make_model();
  BuildSystem build(&m);
  Linker linker(&m);
  std::vector<ObjectFile> objs = build.compile_all(base_comp());
  objs.push_back(build.compile("alpha.cpp", var_comp()));
  EXPECT_THROW(
      {
        try {
          (void)linker.link(objs, gcc());
        } catch (const LinkError& e) {
          EXPECT_EQ(e.kind(), LinkError::Kind::DuplicateStrong);
          throw;
        }
      },
      LinkError);
}

TEST(Linker, DuplicateStrongErrorNamesTheSymbol) {
  CodeModel m = make_model();
  BuildSystem build(&m);
  Linker linker(&m);
  std::vector<ObjectFile> objs = build.compile_all(base_comp());
  objs.push_back(objcopy_weaken(build.compile("alpha.cpp", var_comp()),
                                {"alpha::f"}));
  try {
    (void)linker.link(objs, gcc());
    FAIL() << "two strong alpha::g definitions linked";
  } catch (const LinkError& e) {
    EXPECT_EQ(e.kind(), LinkError::Kind::DuplicateStrong);
    EXPECT_STREQ(e.what(), "duplicate strong symbol alpha::g");
  }
}

TEST(Linker, ExportedFunctionAddedAfterTheBuildIsUnresolved) {
  CodeModel m = make_model();
  BuildSystem build(&m);
  Linker linker(&m);
  const auto objs = build.compile_all(base_comp());
  // Every file is still covered, but no object defines the new symbol.
  m.add({.name = "alpha::late", .file = "alpha.cpp"});
  try {
    (void)linker.link(objs, gcc());
    FAIL() << "a symbol no object defines was resolved";
  } catch (const LinkError& e) {
    EXPECT_EQ(e.kind(), LinkError::Kind::Unresolved);
    EXPECT_STREQ(e.what(), "unresolved symbol alpha::late");
  }
}

TEST(Linker, InternalFunctionAddedAfterTheBuildIsNotLinked) {
  CodeModel m = make_model();
  BuildSystem build(&m);
  Linker linker(&m);
  const auto objs = build.compile_all(base_comp());
  m.add({.name = "alpha::late_hidden",
         .file = "alpha.cpp",
         .exported = false,
         .host_symbol = "alpha::f"});
  try {
    (void)linker.link(objs, gcc());
    FAIL() << "an internal function no object carries was bound";
  } catch (const LinkError& e) {
    EXPECT_EQ(e.kind(), LinkError::Kind::Unresolved);
    EXPECT_STREQ(e.what(), "internal function alpha::late_hidden not linked");
  }
}

TEST(Linker, WeakThenStrongResolvesLikeStrongThenWeak) {
  CodeModel m = make_model();
  BuildSystem build(&m);
  Linker linker(&m);
  const ObjectFile beta = build.compile("beta.cpp", base_comp());
  // Every alpha symbol weak in the variable copy, strong in the baseline
  // copy: the strong definitions win whichever copy is linked first.
  const ObjectFile weak = objcopy_weaken(
      build.compile("alpha.cpp", var_comp()), {"alpha::f", "alpha::g"});
  const ObjectFile strong = build.compile("alpha.cpp", base_comp());
  const std::vector<ObjectFile> weak_first{weak, strong, beta};
  const std::vector<ObjectFile> strong_first{strong, weak, beta};
  const Executable a = linker.link(weak_first, gcc());
  const Executable b = linker.link(strong_first, gcc());
  for (FunctionId id = 0; id < m.function_count(); ++id) {
    EXPECT_EQ(a.map.binding(id), b.map.binding(id)) << m.info(id).name;
    EXPECT_EQ(a.map.binding(id).sem, derive_semantics(base_comp()))
        << m.info(id).name;
  }
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.crash_reason, b.crash_reason);

  // A split choice (alpha::f from the variable copy, alpha::g and its
  // internal alpha::hidden from the baseline copy) is order-free too.
  const ObjectFile var_f = objcopy_weaken_complement(
      build.compile("alpha.cpp", var_comp()), {"alpha::f"});
  const ObjectFile base_g =
      objcopy_weaken(build.compile("alpha.cpp", base_comp()), {"alpha::f"});
  const std::vector<ObjectFile> var_first{var_f, base_g, beta};
  const std::vector<ObjectFile> base_first{base_g, var_f, beta};
  const Executable c = linker.link(var_first, gcc());
  const Executable d = linker.link(base_first, gcc());
  for (FunctionId id = 0; id < m.function_count(); ++id) {
    EXPECT_EQ(c.map.binding(id), d.map.binding(id)) << m.info(id).name;
  }
  EXPECT_EQ(c.map.binding(*m.find("alpha::f")).sem,
            derive_semantics(var_comp()));
  EXPECT_EQ(c.map.binding(*m.find("alpha::hidden")).sem,
            derive_semantics(base_comp()));
}

TEST(Linker, StrongBeatsWeak) {
  CodeModel m = make_model();
  BuildSystem build(&m);
  Linker linker(&m);
  const FunctionId f = *m.find("alpha::f");
  const FunctionId g = *m.find("alpha::g");

  // Variable copy keeps alpha::f strong; baseline copy keeps alpha::g.
  ObjectFile var_obj =
      objcopy_weaken_complement(build.compile("alpha.cpp", var_comp()),
                                {"alpha::f"});
  ObjectFile base_obj =
      objcopy_weaken(build.compile("alpha.cpp", base_comp()), {"alpha::f"});
  std::vector<ObjectFile> objs{var_obj, base_obj,
                               build.compile("beta.cpp", base_comp())};
  const Executable exe = linker.link(objs, gcc());
  EXPECT_EQ(exe.map.binding(f).sem, derive_semantics(var_comp()));
  EXPECT_EQ(exe.map.binding(g).sem, derive_semantics(base_comp()));
}

TEST(Linker, InternalFunctionFollowsItsHostSymbol) {
  CodeModel m = make_model();
  BuildSystem build(&m);
  Linker linker(&m);
  const FunctionId hidden = *m.find("alpha::hidden");

  // Host symbol alpha::g taken from the variable copy -> hidden follows.
  ObjectFile var_obj = objcopy_weaken_complement(
      build.compile("alpha.cpp", var_comp()), {"alpha::g"});
  ObjectFile base_obj =
      objcopy_weaken(build.compile("alpha.cpp", base_comp()), {"alpha::g"});
  std::vector<ObjectFile> objs{var_obj, base_obj,
                               build.compile("beta.cpp", base_comp())};
  const Executable exe = linker.link(objs, gcc());
  EXPECT_EQ(exe.map.binding(hidden).sem, derive_semantics(var_comp()));

  // And the complement choice leaves it at baseline.
  ObjectFile var_obj2 = objcopy_weaken_complement(
      build.compile("alpha.cpp", var_comp()), {"alpha::f"});
  ObjectFile base_obj2 =
      objcopy_weaken(build.compile("alpha.cpp", base_comp()), {"alpha::f"});
  std::vector<ObjectFile> objs2{var_obj2, base_obj2,
                                build.compile("beta.cpp", base_comp())};
  const Executable exe2 = linker.link(objs2, gcc());
  EXPECT_EQ(exe2.map.binding(hidden).sem, derive_semantics(base_comp()));
}

TEST(Linker, IntelLinkStepForcesFastLibmOnLibmUsers) {
  CodeModel m = make_model();
  BuildSystem build(&m);
  Linker linker(&m);
  const auto objs = build.compile_all(base_comp());
  const Executable exe = linker.link(objs, icpc());
  EXPECT_TRUE(exe.map.binding(*m.find("beta::h")).sem.fast_libm);
  EXPECT_FALSE(exe.map.binding(*m.find("alpha::f")).sem.fast_libm);
}

TEST(Linker, InjectedObjectsAreTracked) {
  CodeModel m = make_model();
  BuildSystem build(&m);
  Linker linker(&m);
  std::vector<ObjectFile> objs{
      build.compile("alpha.cpp", base_comp(), false, /*injected=*/true),
      build.compile("beta.cpp", base_comp())};
  const Executable exe = linker.link(objs, gcc());
  EXPECT_TRUE(exe.from_injected[*m.find("alpha::f")]);
  EXPECT_TRUE(exe.from_injected[*m.find("alpha::hidden")]);
  EXPECT_FALSE(exe.from_injected[*m.find("beta::h")]);
}

TEST(Objcopy, WeakenAndComplementArePartitions) {
  CodeModel m = make_model();
  BuildSystem build(&m);
  const ObjectFile obj = build.compile("alpha.cpp", base_comp());
  const auto weak_f = objcopy_weaken(obj, {"alpha::f"});
  const auto strong_f = objcopy_weaken_complement(obj, {"alpha::f"});
  for (const SymbolDef& s : weak_f.code->symbols) {
    EXPECT_EQ(s.strong, s.name != "alpha::f");
  }
  for (const SymbolDef& s : strong_f.code->symbols) {
    EXPECT_EQ(s.strong, s.name == "alpha::f");
  }
}

TEST(Objcopy, UnknownSymbolNamesAreIgnored) {
  CodeModel m = make_model();
  BuildSystem build(&m);
  const ObjectFile obj = build.compile("alpha.cpp", base_comp());
  const auto same = objcopy_weaken(obj, {"no::such::symbol"});
  for (const SymbolDef& s : same.code->symbols) EXPECT_TRUE(s.strong);
}

TEST(Hazards, ToxicIntelObjectCrashesMixedBinaries) {
  CodeModel m;
  // Find a file name that the hash marks ABI-toxic under icpc -O2.
  std::string toxic_file;
  const Compilation icomp{icpc(), OptLevel::O2, ""};
  for (int i = 0; i < 2000; ++i) {
    const std::string f = "t" + std::to_string(i) + ".cpp";
    if (abi_toxic(f, icomp)) {
      toxic_file = f;
      break;
    }
  }
  ASSERT_FALSE(toxic_file.empty());
  m.add({.name = "tox::f", .file = toxic_file});
  m.add({.name = "other::g", .file = "other.cpp"});
  BuildSystem build(&m);
  Linker linker(&m);

  std::vector<ObjectFile> mixed{build.compile(toxic_file, icomp),
                                build.compile("other.cpp", base_comp())};
  EXPECT_TRUE(linker.link(mixed, gcc()).crashes);

  // A pure-Intel link of the same objects does not crash.
  std::vector<ObjectFile> pure{build.compile(toxic_file, icomp),
                               build.compile("other.cpp", icomp)};
  EXPECT_FALSE(linker.link(pure, icpc()).crashes);
}

TEST(Hazards, SameCompilationTwoCopiesNeverSymbolCrash) {
  CodeModel m = make_model();
  BuildSystem build(&m);
  Linker linker(&m);
  // Two copies of alpha.cpp under the SAME compilation (injection mode):
  // never a symbol-mix hazard.
  ObjectFile a = objcopy_weaken_complement(
      build.compile("alpha.cpp", base_comp(), false, true), {"alpha::f"});
  ObjectFile b =
      objcopy_weaken(build.compile("alpha.cpp", base_comp()), {"alpha::f"});
  std::vector<ObjectFile> objs{a, b, build.compile("beta.cpp", base_comp())};
  EXPECT_FALSE(linker.link(objs, gcc()).crashes);
}

TEST(BuildSystem, RejectsUnknownFiles) {
  CodeModel m = make_model();
  BuildSystem build(&m);
  EXPECT_THROW((void)build.compile("gamma.cpp", base_comp()),
               std::invalid_argument);
}

TEST(BuildSystem, CompileAllCoversEveryFileOnce) {
  CodeModel m = make_model();
  BuildSystem build(&m);
  const auto objs = build.compile_all(base_comp());
  ASSERT_EQ(objs.size(), 2u);
  EXPECT_EQ(objs[0].code->source_file, "alpha.cpp");
  EXPECT_EQ(objs[1].code->source_file, "beta.cpp");
  EXPECT_EQ(objs[0].code->symbols.size(), 2u);       // exported only
  EXPECT_EQ(objs[0].code->internal_fns.size(), 1u);  // alpha::hidden
}

}  // namespace
