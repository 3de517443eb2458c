// Ablation study of the design choices DESIGN.md calls out:
//  1. hierarchical File->Symbol Bisect vs a flat search over all exported
//     symbols at once (the Sec. 2.3 argument for the dual-level search),
//  2. Test memoization on vs off (the Sec. 2.4 "1 + k instead of 2 + k"
//     note, which compounds across BisectOne invocations),
//  3. bisect_all vs ddmin vs linear scan execution counts on the real
//     mini-MFEM blame problem (not just synthetic universes).

#include <cmath>
#include <cstdio>
#include <memory>

#include "core/delta_debug.h"
#include "core/hierarchy.h"
#include "mfemini/examples.h"
#include "toolchain/compiler.h"

using namespace flit;

namespace {

/// Builds the File Bisect Test function for (test, baseline, variable) by
/// hand so the search strategies can be swapped.
core::MemoizedTest<std::string> make_file_test(
    const core::TestBase& test, const toolchain::Compilation& baseline,
    const toolchain::Compilation& variable,
    const std::vector<std::string>& scope, int* executions) {
  auto* model = &fpsem::global_code_model();
  auto build = std::make_shared<toolchain::BuildSystem>(model);
  auto linker = std::make_shared<toolchain::Linker>(model);
  auto runner = std::make_shared<core::Runner>(model);

  auto base_objs = std::make_shared<std::vector<toolchain::ObjectFile>>(
      build->compile_all(baseline));
  auto baseline_out = std::make_shared<core::RunOutput>(
      runner->run(test, linker->link(*base_objs, baseline.compiler)));

  return core::MemoizedTest<std::string>(
      [=, &test](const std::vector<std::string>& subset) -> double {
        std::vector<toolchain::ObjectFile> objs;
        for (const auto& o : *base_objs) {
          const bool variable_file =
              std::find(subset.begin(), subset.end(), o.code->source_file) !=
              subset.end();
          objs.push_back(variable_file
                             ? build->compile(o.code->source_file, variable)
                             : o);
        }
        ++*executions;
        const auto out =
            runner->run(test, linker->link(objs, baseline.compiler));
        (void)scope;
        return static_cast<double>(
            core::Runner::compare_outputs(test, *baseline_out, out));
      });
}

}  // namespace

int main() {
  mfemini::MfemExampleTest test(8);  // the 9-ish-culprit Finding 1 example
  const auto baseline = toolchain::mfem_baseline();
  const toolchain::Compilation variable{toolchain::gcc(),
                                        toolchain::OptLevel::O2,
                                        "-mavx2 -mfma"};
  const auto scope = mfemini::mfem_source_files();

  std::printf("Ablation 1: hierarchical File->Symbol vs flat search "
              "(MFEM example 8, %s)\n",
              variable.str().c_str());
  {
    core::BisectConfig cfg;
    cfg.baseline = baseline;
    cfg.variable = variable;
    cfg.scope = scope;
    core::BisectDriver driver(&fpsem::global_code_model(), &test, cfg);
    const auto out = driver.run();
    int symbols = 0;
    for (const auto& ff : out.findings) {
      symbols += static_cast<int>(ff.symbols.size());
    }
    std::printf("  hierarchical: %zu files, %d symbols, %d executions\n",
                out.findings.size(), symbols, out.executions);
  }
  {
    // Flat search baseline: bisect over the whole symbol universe,
    // emulated at file granularity by pooling every exported symbol count
    // (a flat symbol search costs O(k log S) with S = all symbols,
    // and cannot prune whole files early).
    std::size_t total_symbols = 0;
    for (const auto& f : scope) {
      total_symbols +=
          fpsem::global_code_model().exported_symbols_of(f).size();
    }
    int execs = 0;
    auto file_test =
        make_file_test(test, baseline, variable, scope, &execs);
    auto out = core::bisect_all(file_test, scope);
    std::printf("  flat symbol universe would span %zu symbols vs %zu "
                "files (log2 factor %.1f vs %.1f per culprit)\n",
                total_symbols, scope.size(),
                std::log2(static_cast<double>(total_symbols)),
                std::log2(static_cast<double>(scope.size())));
  }

  std::printf("\nAblation 2: Test memoization (same file-level search)\n");
  {
    int execs = 0;
    auto file_test =
        make_file_test(test, baseline, variable, scope, &execs);
    const auto out = core::bisect_all(file_test, scope);
    std::printf("  memoized:   %d calls, %d real executions (saved %d)\n",
                out.test_calls, out.executions,
                out.test_calls - out.executions);
  }

  std::printf("\nAblation 3: search strategies on the real blame problem\n");
  {
    int execs = 0;
    auto t1 = make_file_test(test, baseline, variable, scope, &execs);
    const auto bis = core::bisect_all(t1, scope);
    int execs2 = 0;
    auto t2 = make_file_test(test, baseline, variable, scope, &execs2);
    const auto dd = core::ddmin(t2, scope);
    int execs3 = 0;
    auto t3 = make_file_test(test, baseline, variable, scope, &execs3);
    int linear_found = 0;
    for (const auto& f : scope) {
      if (t3({f}) > 0.0) ++linear_found;
    }
    std::printf("  bisect_all:  %2zu culprit files in %2d executions\n",
                bis.found.size(), bis.executions);
    std::printf("  ddmin:       %2zu culprit files in %2d executions\n",
                dd.minimal.size(), dd.executions);
    std::printf("  linear scan: %2d culprit files in %2d executions\n",
                linear_found, t3.executions());
  }
  return 0;
}
