#pragma once

// The traced replay: a workload's cells pushed through the public layer
// calls -- BuildSystem::compile_all, Linker::link, Runner::run,
// Runner::compare_outputs, ResultsDb::record and BisectDriver::run -- with a
// span around each call.  Study replays follow SpaceExplorer::explore: the
// two anchor runs first, then checkpoint batches of the space in order,
// each fanned out over a core::ThreadPool and recorded after its barrier.

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "blame/campaign.h"
#include "core/explorer.h"
#include "core/hierarchy.h"
#include "core/parallel.h"
#include "core/probe_memo.h"
#include "core/resultsdb.h"
#include "common.h"
#include "core/runner.h"
#include "core/registry.h"
#include "spans.h"
#include "toolchain/build.h"
#include "toolchain/compile_cache.h"
#include "toolchain/linker.h"

namespace perfbench {

/// Call counts taken at the layer boundaries of one replay.
struct ReplayTally {
  std::atomic<std::uint64_t> build_calls{0};
  std::atomic<std::uint64_t> link_calls{0};
  std::atomic<std::uint64_t> link_errors{0};
  std::atomic<std::uint64_t> runner_calls{0};
  std::atomic<std::uint64_t> compare_calls{0};
  std::atomic<std::uint64_t> record_calls{0};
  std::atomic<std::uint64_t> record_bytes{0};
  std::atomic<std::uint64_t> bisect_calls{0};
  std::atomic<std::uint64_t> bisect_logical{0};
  std::atomic<std::uint64_t> bisect_memo_hits{0};
  std::atomic<std::uint64_t> bisect_failed{0};
};

/// Replays explore() of `test` over `space`.  `db` (optional, stored at
/// `db_path`) is recorded after every `batch` items, as explore()
/// checkpoints.
inline flit::core::StudyResult replay_study(
    const flit::fpsem::CodeModel* model, const flit::core::TestBase& test,
    std::span<const flit::toolchain::Compilation> space,
    flit::toolchain::CompilationCache* cache, flit::core::ResultsDb* db,
    const std::filesystem::path& db_path, std::size_t batch, unsigned lanes,
    SpanRecorder& rec, std::uint32_t parent, std::uint32_t job, ReplayTally& tally) {
  using namespace flit;
  const toolchain::BuildSystem build(model, cache);
  const toolchain::Linker linker(model);
  const core::Runner runner(model);
  const toolchain::Compilation baseline = toolchain::mfem_baseline();
  const toolchain::Compilation reference = toolchain::mfem_speed_reference();

  const auto run_program = [&](const toolchain::Compilation& c,
                               std::uint32_t par) {
    std::vector<toolchain::ObjectFile> objs;
    {
      SpanRecorder::Scope s(rec, "build", par, job);
      objs = build.compile_all(c);
      ++tally.build_calls;
    }
    toolchain::Executable exe;
    {
      SpanRecorder::Scope s(rec, "link", par, job);
      ++tally.link_calls;
      try {
        exe = linker.link(objs, c.compiler);
      } catch (const toolchain::LinkError&) {
        ++tally.link_errors;
        throw;
      }
    }
    SpanRecorder::Scope s(rec, "run", par, job);
    ++tally.runner_calls;
    return runner.run(test, exe);
  };

  core::RunOutput base, ref;
  {
    SpanRecorder::Scope s(rec, "anchor", parent, job);
    base = run_program(baseline, s.id());
    ref = reference == baseline ? base : run_program(reference, s.id());
  }

  core::StudyResult result;
  result.test_name = test.name();
  result.outcomes.resize(space.size());
  const auto run_item = [&](std::size_t i, std::uint32_t par) {
    SpanRecorder::Scope cell(rec, "cell", par, job);
    core::CompilationOutcome& o = result.outcomes[i];
    o.comp = space[i];
    try {
      core::RunOutput fresh;
      const core::RunOutput* out = &fresh;
      if (o.comp == baseline) {
        out = &base;
      } else if (o.comp == reference) {
        out = &ref;
      } else {
        fresh = run_program(o.comp, cell.id());
      }
      {
        SpanRecorder::Scope s(rec, "compare", cell.id(), job);
        ++tally.compare_calls;
        o.variability = core::Runner::compare_outputs(test, base, *out);
      }
      o.cycles = out->cycles;
      o.speedup = ref.cycles / out->cycles;
    } catch (const core::ExecutionCrash& e) {
      o.status = core::OutcomeStatus::Crashed;
      o.reason = e.what();
    } catch (const std::exception& e) {
      o.status = core::OutcomeStatus::BuildFailed;
      o.reason = e.what();
    }
  };

  core::ThreadPool pool(lanes);
  const std::size_t step = db != nullptr && batch > 0 ? batch : space.size();
  for (std::size_t start = 0; start < space.size(); start += step) {
    const std::size_t n = std::min(step, space.size() - start);
    SpanRecorder::Scope b(rec, "batch", parent, job);
    pool.parallel_for(n, [&](std::size_t j) { run_item(start + j, b.id()); });
    if (db != nullptr) {
      core::StudyResult slice;
      slice.test_name = result.test_name;
      slice.outcomes.assign(result.outcomes.begin() + start,
                            result.outcomes.begin() + start + n);
      SpanRecorder::Scope s(rec, "record", b.id(), job);
      db->record(slice);
      ++tally.record_calls;
      // record() rewrites the whole file, so each call writes its size.
      tally.record_bytes += std::filesystem::file_size(db_path);
    }
  }
  return result;
}

/// Replays the bisect sweep of a blame campaign: every cell through
/// BisectDriver::run with one shared cache and probe memo, fanned out over
/// `lanes`.  Returns each cell's outcome (cell order) and its duration.
struct BisectReplay {
  std::vector<flit::core::HierarchicalOutcome> outcomes;
  std::vector<double> seconds;
  flit::toolchain::CacheStats cache;
};

inline BisectReplay replay_bisects(const flit::fpsem::CodeModel* model,
                                   const flit::core::TestRegistry& registry,
                                   std::span<const flit::blame::Cell> cells,
                                   unsigned lanes, SpanRecorder& rec,
                                   std::uint32_t parent, ReplayTally& tally) {
  using namespace flit;
  toolchain::CompilationCache cache;
  core::ProbeMemo memo;
  BisectReplay r;
  r.outcomes.resize(cells.size());
  r.seconds.resize(cells.size());
  core::ThreadPool pool(lanes);
  pool.parallel_for(cells.size(), [&](std::size_t i) {
    const double t0 = now_s();
    SpanRecorder::Scope s(rec, "bisect", parent,
                          static_cast<std::uint32_t>(i + 1));
    core::BisectConfig cfg;
    cfg.baseline = toolchain::mfem_baseline();
    cfg.variable = cells[i].variable;
    cfg.memo = &memo;
    core::HierarchicalOutcome out;
    try {
      const std::unique_ptr<core::TestBase> test =
          registry.create(cells[i].test);
      core::BisectDriver driver(model, test.get(), cfg, &cache);
      out = driver.run();
    } catch (const std::exception& e) {
      out = core::HierarchicalOutcome{};
      out.crashed = true;
      out.crash_reason = std::string("bisect aborted: ") + e.what();
    }
    ++tally.bisect_calls;
    tally.bisect_logical += static_cast<std::uint64_t>(out.executions);
    tally.bisect_memo_hits += static_cast<std::uint64_t>(out.memo_hits);
    if (out.crashed) ++tally.bisect_failed;
    r.outcomes[i] = std::move(out);
    r.seconds[i] = now_s() - t0;
  });
  r.cache = cache.stats();
  return r;
}

}  // namespace perfbench
