#include "core/hierarchy.h"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "core/bisect_biggest.h"
#include "core/faults.h"
#include "core/probe_memo.h"
#include "obs/session.h"
#include "toolchain/objcopy.h"

namespace flit::core {

namespace {

RunOutput truncated(RunOutput out, int digits) {
  if (digits <= 0) return out;
  for (TestResult& r : out.results) {
    if (auto* v = std::get_if<long double>(&r)) {
      *v = truncate_digits(*v, digits);
    }
  }
  return out;
}

}  // namespace

BisectDriver::BisectDriver(const fpsem::CodeModel* model, const TestBase* test,
                           BisectConfig cfg,
                           toolchain::CompilationCache* cache)
    : model_(model),
      test_(test),
      cfg_(std::move(cfg)),
      build_(model, cache),
      linker_(model),
      runner_(model) {}

long double BisectDriver::metric(const RunOutput& out) const {
  return Runner::compare_outputs(*test_, baseline_out_,
                                 truncated(out, cfg_.digits));
}

RunOutput BisectDriver::execute(
    const std::vector<toolchain::ObjectFile>& objs) {
  ++executions_;
  // Per-probe fault scope: decisions vary deterministically across the
  // probes of one search (the execution ordinal is driver-local, so the
  // sequence is identical at any --jobs count) instead of dooming every
  // probe of a test at once.
  FaultInjector::ScopedTrial trial(
      "bisect|" + cfg_.variable.str() + "#" + std::to_string(executions_),
      0);
  const toolchain::Executable exe =
      linker_.link(objs, cfg_.baseline.compiler);
  // The memo only short-circuits plain runs: an injection hook's output is
  // not a function of the binary alone, and an armed fault injector must
  // see every probe roll its run-site decision.
  if (cfg_.memo == nullptr || cfg_.hook != nullptr ||
      FaultInjector::global().any_armed()) {
    return runner_.run(*test_, exe, cfg_.hook);
  }
  const std::string key = ProbeMemo::key_of(test_->name(), exe);
  if (std::optional<ProbeMemo::Entry> hit = cfg_.memo->lookup(key)) {
    ++memo_hits_;
    if (hit->crashed) throw ExecutionCrash(hit->crash_reason);
    return std::move(hit->output);
  }
  try {
    RunOutput out = runner_.run(*test_, exe, cfg_.hook);
    cfg_.memo->store(key, ProbeMemo::Entry{false, {}, out});
    return out;
  } catch (const ExecutionCrash& e) {
    cfg_.memo->store(key, ProbeMemo::Entry{true, e.what(), {}});
    throw;
  }
}

HierarchicalOutcome BisectDriver::run() {
  // The search itself is untouched (run_impl); the wrapper only accounts
  // for it.  The span cost is the search's headline metric -- real program
  // executions -- so a trace shows at a glance which searches were cheap
  // and which burned the budget.
  static obs::Counter& m_searches = obs::metrics().counter("bisect.searches");
  static obs::Counter& m_executions =
      obs::metrics().counter("bisect.executions");
  static obs::Counter& m_memo_hits =
      obs::metrics().counter("bisect.memo_hits");
  m_searches.add();
  obs::Span span(obs::tracer_if_enabled(), "bisect", "bisect",
                 cfg_.variable.str());
  HierarchicalOutcome out = run_impl();
  m_executions.add(static_cast<std::uint64_t>(
      out.executions > 0 ? out.executions : 0));
  m_memo_hits.add(
      static_cast<std::uint64_t>(out.memo_hits > 0 ? out.memo_hits : 0));
  span.set_cost(static_cast<double>(out.executions));
  return out;
}

HierarchicalOutcome BisectDriver::run_impl() {
  HierarchicalOutcome out;

  base_objs_ = build_.compile_all(cfg_.baseline);
  baseline_out_ = truncated(execute(base_objs_), cfg_.digits);

  // Variable-compilation objects, one per in-scope file (compilation is a
  // one-time cost; linking dominates searches).
  const std::vector<std::string>& all_files = model_->files();
  const std::vector<std::string> files =
      cfg_.scope.empty() ? all_files : cfg_.scope;
  std::vector<toolchain::ObjectFile> var_objs;
  var_objs.reserve(files.size());
  for (const std::string& f : files) {
    var_objs.push_back(build_.compile(f, cfg_.variable, /*fpic=*/false,
                                      cfg_.variable_injected));
  }
  const auto var_index = [&](const std::string& f) {
    return static_cast<std::size_t>(
        std::find(files.begin(), files.end(), f) - files.begin());
  };

  // ---- File Bisect ------------------------------------------------------
  MemoizedTest<std::string> file_test(
      [&](const std::vector<std::string>& subset) -> double {
        std::vector<toolchain::ObjectFile> objs;
        objs.reserve(all_files.size());
        for (std::size_t i = 0; i < all_files.size(); ++i) {
          const bool variable =
              std::find(subset.begin(), subset.end(), all_files[i]) !=
              subset.end();
          objs.push_back(variable ? var_objs[var_index(all_files[i])]
                                  : base_objs_[i]);
        }
        return static_cast<double>(metric(execute(objs)));
      });

  try {
    out.whole_value = file_test(files);
    if (cfg_.k > 0) {
      auto ranked = bisect_biggest(file_test, files, cfg_.k);
      for (const auto& rf : ranked.found) {
        FileFinding ff;
        ff.file = rf.element;
        ff.value = rf.value;
        out.findings.push_back(std::move(ff));
      }
    } else {
      auto all = bisect_all(file_test, files);
      if (!all.assumptions_verified) {
        out.assumptions_verified = false;
        out.diagnostic += "[file] " + all.diagnostic;
      }
      for (const std::string& f : all.found) {
        FileFinding ff;
        ff.file = f;
        ff.value = file_test({f});
        out.findings.push_back(std::move(ff));
      }
    }
  } catch (const ExecutionCrash& e) {
    out.crashed = true;
    out.crash_reason = e.what();
    out.executions = executions_;
    out.memo_hits = memo_hits_;
    return out;
  }

  std::sort(out.findings.begin(), out.findings.end(),
            [](const FileFinding& a, const FileFinding& b) {
              return a.value > b.value;
            });

  // ---- Symbol Bisect per found file --------------------------------------
  std::vector<SymbolFinding> global_symbols;  // for the k-mode early exit
  for (FileFinding& ff : out.findings) {
    if (cfg_.k > 0 && static_cast<int>(global_symbols.size()) >= cfg_.k) {
      // Early exit (Sec. 2.5): this file cannot beat the k-th symbol.
      std::sort(global_symbols.begin(), global_symbols.end(),
                [](const SymbolFinding& a, const SymbolFinding& b) {
                  return a.value > b.value;
                });
      if (ff.value <=
          global_symbols[static_cast<std::size_t>(cfg_.k) - 1].value) {
        ff.status = FileFinding::SymbolStatus::NotSearched;
        ff.note = "skipped by BisectBiggest early exit";
        continue;
      }
    }
    symbol_phase(ff);
    for (const SymbolFinding& sf : ff.symbols) global_symbols.push_back(sf);
  }

  out.executions = executions_;
  out.memo_hits = memo_hits_;
  // Re-derive the verification flag from symbol phases' notes.
  for (const FileFinding& ff : out.findings) {
    if (ff.status == FileFinding::SymbolStatus::Found && !ff.note.empty()) {
      out.assumptions_verified = false;
      out.diagnostic += "[" + ff.file + "] " + ff.note;
    }
  }
  return out;
}

void BisectDriver::symbol_phase(FileFinding& finding) {
  const std::string& file = finding.file;
  const std::vector<std::string> symbols = model_->exported_symbols_of(file);
  if (symbols.empty()) {
    finding.status = FileFinding::SymbolStatus::NotSearched;
    finding.note = "file exports no symbols";
    return;
  }

  // Recompile the file with -fPIC under both compilations (Sec. 2.3).
  const toolchain::ObjectFile var_fpic = build_.compile(
      file, cfg_.variable, /*fpic=*/true, cfg_.variable_injected);
  const toolchain::ObjectFile base_fpic =
      build_.compile(file, cfg_.baseline, /*fpic=*/true);

  const auto objects_with = [&](const toolchain::ObjectFile& a,
                                const toolchain::ObjectFile* b =
                                    nullptr) {
    std::vector<toolchain::ObjectFile> objs;
    for (const toolchain::ObjectFile& o : base_objs_) {
      if (o.code->source_file != file) objs.push_back(o);
    }
    objs.push_back(a);
    if (b != nullptr) objs.push_back(*b);
    return objs;
  };

  try {
    // -fPIC pre-check: does the variability survive the recompile?
    if (metric(execute(objects_with(var_fpic))) == 0.0L) {
      finding.status = FileFinding::SymbolStatus::VanishedUnderFpic;
      finding.note = "variability removed by -fPIC; reporting file only";
      return;
    }

    MemoizedTest<std::string> sym_test(
        [&](const std::vector<std::string>& chosen) -> double {
          // Variable copy: chosen symbols strong, others weak.
          // Baseline copy: chosen symbols weak, others strong.
          toolchain::ObjectFile v =
              toolchain::objcopy_weaken_complement(var_fpic, chosen);
          toolchain::ObjectFile b =
              toolchain::objcopy_weaken(base_fpic, chosen);
          return static_cast<double>(metric(execute(objects_with(v, &b))));
        });

    if (cfg_.k > 0) {
      auto ranked = bisect_biggest(sym_test, symbols, cfg_.k);
      for (const auto& rf : ranked.found) {
        finding.symbols.push_back(SymbolFinding{rf.element, rf.value});
      }
    } else {
      auto all = bisect_all(sym_test, symbols);
      if (!all.assumptions_verified) finding.note = all.diagnostic;
      for (const std::string& s : all.found) {
        finding.symbols.push_back(SymbolFinding{s, sym_test({s})});
      }
    }
    finding.status = FileFinding::SymbolStatus::Found;
    std::sort(finding.symbols.begin(), finding.symbols.end(),
              [](const SymbolFinding& a, const SymbolFinding& b) {
                return a.value > b.value;
              });
  } catch (const ExecutionCrash& e) {
    finding.status = FileFinding::SymbolStatus::Crashed;
    finding.note = e.what();
  }
}

}  // namespace flit::core
