// CodeModel: registration rules, file/function queries, symbol coverage.

#include <stdexcept>

#include <gtest/gtest.h>

#include "fpsem/code_model.h"

namespace {

using namespace flit::fpsem;

CodeModel make_model() {
  CodeModel m;
  m.add({.name = "a::one", .file = "a.cpp"});
  m.add({.name = "a::two", .file = "a.cpp"});
  m.add({.name = "a::hidden",
         .file = "a.cpp",
         .exported = false,
         .host_symbol = "a::one"});
  m.add({.name = "b::solo", .file = "b.cpp", .uses_libm = true});
  return m;
}

TEST(CodeModel, RegistersAndLooksUp) {
  CodeModel m = make_model();
  EXPECT_EQ(m.function_count(), 4u);
  ASSERT_TRUE(m.find("a::two").has_value());
  EXPECT_EQ(m.info(*m.find("a::two")).file, "a.cpp");
  EXPECT_FALSE(m.find("missing").has_value());
}

TEST(CodeModel, FilesInRegistrationOrder) {
  CodeModel m = make_model();
  ASSERT_EQ(m.files().size(), 2u);
  EXPECT_EQ(m.files()[0], "a.cpp");
  EXPECT_EQ(m.files()[1], "b.cpp");
}

TEST(CodeModel, FileIndexPointsIntoFiles) {
  CodeModel m = make_model();
  // A file registered again after another keeps its first position.
  const FunctionId late = m.add({.name = "a::late", .file = "a.cpp"});
  for (FunctionId id = 0; id < m.function_count(); ++id) {
    EXPECT_EQ(m.files().at(m.file_index(id)), m.info(id).file)
        << m.info(id).name;
  }
  EXPECT_EQ(m.file_index(late), 0u);
  EXPECT_EQ(m.functions_in("a.cpp").back(), late);
  EXPECT_THROW((void)m.file_index(m.function_count()), std::out_of_range);
}

TEST(CodeModel, FunctionsInFile) {
  CodeModel m = make_model();
  EXPECT_EQ(m.functions_in("a.cpp").size(), 3u);
  EXPECT_EQ(m.functions_in("b.cpp").size(), 1u);
  EXPECT_TRUE(m.functions_in("zzz.cpp").empty());
}

TEST(CodeModel, ExportedSymbolsExcludeInternal) {
  CodeModel m = make_model();
  const auto syms = m.exported_symbols_of("a.cpp");
  EXPECT_EQ(syms, (std::vector<std::string>{"a::one", "a::two"}));
}

TEST(CodeModel, CoverageFollowsHostSymbol) {
  CodeModel m = make_model();
  const auto covered = m.functions_covered_by("a.cpp", {"a::one"});
  // a::one itself plus a::hidden (hosted by a::one).
  ASSERT_EQ(covered.size(), 2u);
  EXPECT_EQ(m.info(covered[0]).name, "a::one");
  EXPECT_EQ(m.info(covered[1]).name, "a::hidden");

  const auto covered2 = m.functions_covered_by("a.cpp", {"a::two"});
  ASSERT_EQ(covered2.size(), 1u);
  EXPECT_EQ(m.info(covered2[0]).name, "a::two");
}

TEST(CodeModel, AverageFunctionsPerFile) {
  CodeModel m = make_model();
  EXPECT_DOUBLE_EQ(m.average_functions_per_file(), 2.0);
  EXPECT_DOUBLE_EQ(CodeModel{}.average_functions_per_file(), 0.0);
}

TEST(CodeModel, RejectsDuplicateNames) {
  CodeModel m = make_model();
  EXPECT_THROW(m.add({.name = "a::one", .file = "c.cpp"}),
               std::invalid_argument);
}

TEST(CodeModel, RejectsAnonymousOrHomelessFunctions) {
  CodeModel m;
  EXPECT_THROW(m.add({.name = "", .file = "c.cpp"}), std::invalid_argument);
  EXPECT_THROW(m.add({.name = "x", .file = ""}), std::invalid_argument);
}

TEST(CodeModel, InternalFunctionsRequireHostSymbol) {
  CodeModel m;
  EXPECT_THROW(m.add({.name = "x", .file = "c.cpp", .exported = false}),
               std::invalid_argument);
}

TEST(CodeModel, GlobalModelHasTheApplicationKernels) {
  // This test binary links flit_core only; the global model still exists
  // and is usable (contents depend on which app libraries are linked in).
  CodeModel& g = global_code_model();
  EXPECT_EQ(&g, &global_code_model());
}

}  // namespace
