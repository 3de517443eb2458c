// perfbench: the repository benchmark (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--trace-file <file>] [--spawn-ns <ns>]
//             [--setup-only 1]
//
// Runs one seeded workload through the library's public entry points and
// prints, as its last stdout line, one JSON object with the keys correct,
// attempted, failed and metrics.  --trace 0 measures the end-to-end
// metrics: set-up is repeated and timed, then passes of the workload run
// until --seconds have elapsed, and every pass's outputs are checked.
// --trace 1 gives the per-layer metrics from a replay of the workload's
// cells with a span around every layer call.  Human-readable detail goes to
// stdout lines starting with '#'.  --spawn-ns is the steady-clock time
// at which the launcher started this process, so set-up time counts from
// process start; --setup-only 1 runs only the set-up and prints its time.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "blame/campaign.h"
#include "common.h"
#include "core/explorer.h"
#include "core/registry.h"
#include "core/report.h"
#include "core/resultsdb.h"
#include "dist/supervisor.h"
#include "gen/generator.h"
#include "gen/suite.h"
#include "mfemini/examples.h"
#include "obs/session.h"
#include "replay.h"
#include "serve/request.h"
#include "serve/service.h"
#include "spans.h"
#include "toolchain/compiler.h"

using namespace flit;

namespace perfbench {
namespace {

// The seed the pinned digests below were taken at.  Every seed is also
// checked against untimed reference runs of the program.
constexpr std::uint64_t kDefaultSeed = 1;

constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kCheckpointBatch = 32;  // ExploreOptions default
// blame-matrix bisects one in kBlameStride of each test's variable cells per
// campaign, and runs kBlameRound such campaigns (jobs) per pass.
constexpr std::size_t kBlameStride = 24;
constexpr std::size_t kBlameRound = 6;
constexpr std::size_t kGenKernels = 640;
// Timed passes run on one or two threads.  On a few cores of a shared host,
// more lanes than that measure the host's scheduler (a preempted lane holds
// up every barrier and lock) rather than the program.
constexpr unsigned kBlameJobs = 1;
constexpr int kGenShards = 2;
constexpr unsigned kGenJobs = 1;
constexpr int kServeShards = 2;
constexpr unsigned kServeJobs = 1;
constexpr int kServeTenants = 8;
constexpr int kServeDuplicates = 4;

unsigned nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// ---------------------------------------------------------------- results

struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double cells = 0.0;
  double real_executions = 0.0;
  std::vector<double> jobs_s;  ///< per-job latencies
  Digest digest;
  std::map<std::string, double> layer;  ///< program-side per-layer values
};

struct ReplayResult {
  double wall_s = 0.0;
  Digest digest;
  std::vector<Span> spans;
  std::map<std::string, double> counts;  ///< must repeat at 1 lane
  std::map<std::string, double> values;  ///< other per-layer values
};

std::map<std::string, double> tally_counts(const ReplayTally& t) {
  return {{"build_calls", double(t.build_calls)},
          {"link_calls", double(t.link_calls)},
          {"link_errors", double(t.link_errors)},
          {"runner_calls", double(t.runner_calls)},
          {"compare_calls", double(t.compare_calls)},
          {"record_calls", double(t.record_calls)},
          {"record_bytes", double(t.record_bytes)},
          {"bisect_calls", double(t.bisect_calls)},
          {"bisect_logical", double(t.bisect_logical)},
          {"bisect_memo_hits", double(t.bisect_memo_hits)},
          {"bisect_failed", double(t.bisect_failed)}};
}

std::uint64_t counter(const char* name) {
  return obs::metrics().counter(name).value();
}

/// Anchor runs plus every item that was run rather than reused from an
/// anchor or stopped at build/link.
double executed_items(const core::StudyResult& s) {
  const toolchain::Compilation base = toolchain::mfem_baseline();
  const toolchain::Compilation ref = toolchain::mfem_speed_reference();
  double n = 0;
  for (const auto& o : s.outcomes) {
    if (o.comp == base || o.comp == ref) continue;
    if (o.status != core::OutcomeStatus::BuildFailed) ++n;
  }
  return n;
}

void register_mfem_tests(core::TestRegistry& reg) {
  for (int ex = 1; ex <= mfemini::kNumExamples; ++ex) {
    const std::string name = "MFEM_ex" + std::to_string(ex);
    if (reg.contains(name)) continue;
    reg.add(name, [ex] {
      return std::unique_ptr<core::TestBase>(
          std::make_unique<mfemini::MfemExampleTest>(ex));
    });
  }
}

std::vector<std::string> mfem_test_names() {
  std::vector<std::string> names;
  for (int ex = 1; ex <= mfemini::kNumExamples; ++ex) {
    names.push_back("MFEM_ex" + std::to_string(ex));
  }
  return names;
}

void put_cache(std::map<std::string, double>& layer,
               const toolchain::CacheStats& c) {
  layer["toolchain.cache.hits"] = double(c.hits);
  layer["toolchain.cache.misses"] = double(c.misses);
  layer["toolchain.cache.hit_rate"] = c.hit_rate();
  layer["toolchain.cache.evictions"] = double(c.evictions);
}

// --------------------------------------------------------------- workloads

class Workload {
 public:
  Workload(std::uint64_t seed, std::filesystem::path work)
      : seed_(seed), work_(std::move(work)) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Makes the inputs from the seed.  Timed and repeated by the caller.
  virtual void setup() = 0;
  /// One timed unit of the workload.
  virtual PassResult pass() = 0;
  /// The digest every pass must reproduce, from untimed runs of the
  /// program in another configuration.
  virtual Digest reference() = 0;
  /// The cells of one pass replayed through the layer calls.
  virtual ReplayResult replay(unsigned lanes, SpanRecorder& rec) = 0;
  /// A replay's digest must equal this (by default the pass digest).
  virtual bool replay_matches(const ReplayResult& r, const Digest& ref) {
    return r.digest == ref;
  }
  /// Extra program-side per-layer values for the traced run.
  virtual void program_layers(std::map<std::string, double>&) {}

 protected:
  std::filesystem::path fresh_path(const std::string& stem) {
    std::filesystem::path p = work_ / (stem + "-" + std::to_string(++files_));
    std::filesystem::remove_all(p);
    return p;
  }

  std::uint64_t seed_;
  std::filesystem::path work_;

 private:
  int files_ = 0;
};

// explore-table1: every mini-MFEM example over the Table-1 space, each the
// way `flit explore <test> --db` runs it, checkpointing into one database.
class ExploreTable1 final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    registry_ = std::make_unique<core::TestRegistry>();
    register_mfem_tests(*registry_);
    Rng rng(seed_ ^ 0x7ab1e1ULL);
    tests_.clear();
    std::vector<std::string> names = mfem_test_names();
    shuffle(names, rng);
    for (const auto& n : names) tests_.push_back(registry_->create(n));
    space_ = toolchain::mfem_study_space();
    shuffle(space_, rng);
  }

  PassResult pass() override {
    PassResult r;
    const std::filesystem::path db_path = fresh_path("table1") += ".tsv";
    core::ResultsDb db(db_path);
    const toolchain::CacheStats cache0 = cache_counters();
    const std::uint64_t anchors0 = counter("explore.anchor_runs");
    const double t0 = now_s();
    for (const auto& test : tests_) {
      const double j0 = now_s();
      const core::SpaceExplorer ex(&fpsem::global_code_model(),
                                   toolchain::mfem_baseline(),
                                   toolchain::mfem_speed_reference(), nproc());
      core::ExploreOptions opts;
      opts.db = &db;
      const core::StudyResult s = ex.explore(*test, space_, opts);
      r.jobs_s.push_back(now_s() - j0);
      add_study(r.digest, s);
      r.real_executions += executed_items(s);
      r.cells += double(s.outcomes.size());
    }
    r.wall_s = now_s() - t0;
    r.real_executions += double(counter("explore.anchor_runs") - anchors0);
    if (db.size() != tests_.size() * space_.size()) {
      throw std::runtime_error("explore-table1: database holds " +
                               std::to_string(db.size()) + " rows");
    }
    std::filesystem::remove(db_path);
    put_cache(r.layer, cache_counters() - cache0);
    return r;
  }

  Digest reference() override {
    Digest d;
    for (const auto& test : tests_) {
      const core::SpaceExplorer ex(&fpsem::global_code_model(),
                                   toolchain::mfem_baseline(),
                                   toolchain::mfem_speed_reference(), 1);
      add_study(d, ex.explore(*test, toolchain::mfem_study_space()));
    }
    return d;
  }

  ReplayResult replay(unsigned lanes, SpanRecorder& rec) override {
    ReplayResult r;
    ReplayTally tally;
    const std::filesystem::path db_path = fresh_path("replay") += ".tsv";
    core::ResultsDb db(db_path);
    double resident = 0.0;
    toolchain::CacheStats cache;
    const double t0 = now_s();
    {
      SpanRecorder::Scope root(rec, "replay", 0, 0);
      std::uint32_t job = 0;
      for (const auto& test : tests_) {
        SpanRecorder::Scope j(rec, "job", root.id(), ++job);
        toolchain::CompilationCache c;  // a fresh explorer's cold cache
        add_study(r.digest,
                  replay_study(&fpsem::global_code_model(), *test, space_, &c,
                               &db, db_path, kCheckpointBatch, lanes, rec,
                               j.id(), job, tally));
        resident = std::max(resident, double(c.resident_bytes()));
        cache += c.stats();
      }
    }
    r.wall_s = now_s() - t0;
    std::filesystem::remove(db_path);
    r.counts = tally_counts(tally);
    r.counts["cache_hits"] = double(cache.hits);
    r.counts["cache_misses"] = double(cache.misses);
    r.values["toolchain.cache.resident_bytes"] = resident;
    return r;
  }

 private:
  static toolchain::CacheStats cache_counters() {
    toolchain::CacheStats c;
    c.hits = counter("cache.hits");
    c.misses = counter("cache.misses");
    c.evictions = counter("cache.evicted");
    return c;
  }

  std::unique_ptr<core::TestRegistry> registry_;
  std::vector<std::unique_ptr<core::TestBase>> tests_;
  std::vector<toolchain::Compilation> space_;
};

// blame-matrix: `flit blame --db` over the variable cells of the Table-1
// matrix, run as a round of campaigns over seeded per-test samples.
class BlameMatrix final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    registry_ = std::make_unique<core::TestRegistry>();
    register_mfem_tests(*registry_);
    // The input database, as `flit explore MFEM_exN --db` for every N.
    const std::filesystem::path db_path = fresh_path("input") += ".tsv";
    core::ResultsDb db(db_path);
    const auto space = toolchain::mfem_study_space();
    for (const auto& name : mfem_test_names()) {
      const core::SpaceExplorer ex(&fpsem::global_code_model(),
                                   toolchain::mfem_baseline(),
                                   toolchain::mfem_speed_reference(), nproc());
      core::ExploreOptions opts;
      opts.db = &db;
      opts.checkpoint_batch = 0;  // one write per test: set-up is not about I/O
      (void)ex.explore(*registry_->create(name), space, opts);
    }
    const core::ResultsDb loaded(db_path);
    blame::CampaignInput all = blame::input_from_db(loaded, space);
    std::filesystem::remove(db_path);

    // Systematic samples: campaign j takes the cells of each test whose
    // space position is (offset + j) modulo kBlameStride, from a seeded
    // per-test offset, so that every campaign covers every compiler and
    // flag group of the space alike; tests run in a seeded order.  A round
    // of kBlameRound campaigns covers kBlameRound / kBlameStride of the
    // cells, so that its cost hardly depends on the seed.
    std::map<std::string, std::vector<blame::Cell>> by_test;
    for (const blame::Cell& c : all.cells) by_test[c.test].push_back(c);
    Rng rng(seed_ ^ 0xb1a3eULL);
    std::vector<std::string> order = mfem_test_names();
    shuffle(order, rng);
    inputs_.assign(kBlameRound, blame::CampaignInput{});
    for (auto& in : inputs_) in.equal_comps = all.equal_comps;
    cells_.clear();
    for (const std::string& test : order) {
      const std::vector<blame::Cell>& cells = by_test[test];
      const std::size_t offset = rng.below(kBlameStride);
      for (std::size_t j = 0; j < kBlameRound; ++j) {
        for (std::size_t i = (offset + j) % kBlameStride; i < cells.size();
             i += kBlameStride) {
          inputs_[j].cells.push_back(cells[i]);
        }
      }
    }
    for (const auto& in : inputs_) {
      cells_.insert(cells_.end(), in.cells.begin(), in.cells.end());
    }
  }

  PassResult pass() override {
    PassResult r;
    const toolchain::CacheStats cache0{counter("cache.hits"),
                                       counter("cache.misses")};
    double sweep_real = 0.0, clusters = 0, failed = 0;
    double claims = 0, steals = 0, stolen = 0;
    cell_digest_ = Digest{};
    for (const blame::CampaignInput& in : inputs_) {
      const double t0 = now_s();
      const blame::BlameReport rep = run(in, kBlameJobs, 1);
      const double wall = now_s() - t0;
      r.wall_s += wall;
      r.jobs_s.push_back(wall);
      r.cells += double(rep.cells.size());
      r.real_executions += double(rep.executions - rep.memo_hits);
      r.digest.add(rep.text());
      for (const auto& c : rep.cells) {
        sweep_real += c.bisect.executions - c.bisect.memo_hits;
        cell_digest_.add(cell_row(c.cell, c.bisect));
      }
      clusters += double(rep.clusters.size());
      failed += double(rep.failed_cells.size());
      for (const auto& rk : rep.shard_stats.ranks) {
        claims += double(rk.claims);
        steals += double(rk.steals);
        stolen += double(rk.stolen);
      }
    }
    toolchain::CacheStats cache{counter("cache.hits"),
                                counter("cache.misses")};
    put_cache(r.layer, cache - cache0);
    r.layer["blame.confirm_real_executions"] =
        r.real_executions - sweep_real;
    r.layer["blame.clusters"] = clusters;
    r.layer["blame.failed_cells"] = failed;
    r.layer["blame.campaign_s"] = r.wall_s;
    r.layer["dist.claims"] = claims;
    r.layer["dist.steals"] = steals;
    r.layer["dist.stolen_items"] = stolen;
    // One rank runs every cell, so the ratio is 1 by construction.
    r.layer["dist.rank_items_max_over_mean"] = r.cells > 0 ? 1.0 : 0.0;
    return r;
  }

  // The report must not depend on how the campaign is sharded, so the
  // reference runs every campaign on two shards.
  Digest reference() override {
    Digest d;
    for (const blame::CampaignInput& in : inputs_) d.add(run(in, 1, 2).text());
    return d;
  }

  ReplayResult replay(unsigned lanes, SpanRecorder& rec) override {
    ReplayResult r;
    ReplayTally tally;
    BisectReplay b;
    const double t0 = now_s();
    {
      SpanRecorder::Scope root(rec, "replay", 0, 0);
      b = replay_bisects(&fpsem::global_code_model(), *registry_, cells_,
                         lanes, rec, root.id(), tally);
    }
    r.wall_s = now_s() - t0;
    for (std::size_t i = 0; i < b.outcomes.size(); ++i) {
      r.digest.add(cell_row(cells_[i], b.outcomes[i]));
    }
    r.counts = tally_counts(tally);
    r.counts["cache_hits"] = double(b.cache.hits);
    r.counts["cache_misses"] = double(b.cache.misses);
    r.values["core.bisect.run_s_p50"] = median(b.seconds);
    r.values["toolchain.cache.resident_bytes"] = double(b.cache.resident_bytes());
    return r;
  }

  // The replay reproduces the campaign's per-cell searches, not its report.
  bool replay_matches(const ReplayResult& r, const Digest&) override {
    return r.digest == cell_digest_;
  }

 private:
  blame::BlameReport run(const blame::CampaignInput& in, unsigned jobs,
                         int shards) const {
    blame::BlameOptions opts;
    opts.baseline = toolchain::mfem_baseline();
    opts.shard.jobs = jobs;
    opts.shard.shards = shards;
    return blame::run_campaign(&fpsem::global_code_model(), *registry_, in,
                               opts);
  }

  static std::string cell_row(const blame::Cell& cell,
                              const core::HierarchicalOutcome& o) {
    std::string row = cell.test + '\t' + cell.variable.str() + '\t' +
                      std::to_string(o.executions) + '\t' +
                      (o.crashed ? "crashed" : "ok");
    for (const auto& f : o.findings) {
      row += '\t' + f.file;
      for (const auto& s : f.symbols) row += ':' + s.symbol;
    }
    return row;
  }

  std::unique_ptr<core::TestRegistry> registry_;
  std::vector<blame::CampaignInput> inputs_;
  std::vector<blame::Cell> cells_;  ///< every campaign's cells, in order
  Digest cell_digest_;
};

// gen-sharded: the seeded generated corpus in its own code model, explored
// as `flit explore GenSuite --gen-seed S --gen-count N --shards 2 --jobs 2`.
class GenSharded final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    gen::GenSpec spec;
    spec.seed = Rng(seed_ ^ 0x6e11ULL).next() | 1;  // generator seeds are > 0
    spec.count = kGenKernels;
    const double t0 = now_s();
    model_ = std::make_unique<fpsem::CodeModel>();
    registry_ = std::make_unique<core::TestRegistry>();
    const gen::InstalledSuite suite =
        gen::install_suite(spec, *model_, registry_.get());
    generate_s_ = now_s() - t0;
    kernels_ = double(suite.kernels.size());
    test_ = registry_->create(gen::kSuiteTestName);
    space_ = toolchain::mfem_study_space();
  }

  PassResult pass() override {
    PassResult r;
    const std::uint64_t anchors0 = counter("explore.anchor_runs");
    const double t0 = now_s();
    const dist::ShardedStudy s = run_sharded();
    r.wall_s = now_s() - t0;
    r.jobs_s.push_back(r.wall_s);
    r.cells = double(s.study.outcomes.size());
    r.real_executions = executed_items(s.study) +
                        double(counter("explore.anchor_runs") - anchors0);
    r.digest = digest(s.study);
    put_cache(r.layer, s.aggregate_cache());
    double steals = 0, stolen = 0, max_items = 0, sum_items = 0;
    for (const auto& sh : s.shards) {
      steals += double(sh.steals);
      stolen += double(sh.stolen);
      max_items = std::max(max_items, double(sh.executed_items));
      sum_items += double(sh.executed_items);
    }
    r.layer["dist.steals"] = steals;
    r.layer["dist.stolen_items"] = stolen;
    r.layer["dist.rank_items_max_over_mean"] =
        sum_items > 0 ? max_items / (sum_items / s.shards.size()) : 0.0;
    return r;
  }

  // The sharded bytes must equal a plain serial explore, at every seed.
  Digest reference() override {
    const core::SpaceExplorer ex(model_.get(), toolchain::mfem_baseline(),
                                 toolchain::mfem_speed_reference(), 1);
    return digest(ex.explore(*test_, space_));
  }

  ReplayResult replay(unsigned lanes, SpanRecorder& rec) override {
    ReplayResult r;
    ReplayTally tally;
    toolchain::CompilationCache cache;
    core::StudyResult s;
    const double t0 = now_s();
    {
      SpanRecorder::Scope root(rec, "replay", 0, 0);
      SpanRecorder::Scope j(rec, "job", root.id(), 1);
      s = replay_study(model_.get(), *test_, space_, &cache, nullptr, {}, 0,
                       lanes, rec, j.id(), 1, tally);
    }
    r.wall_s = now_s() - t0;
    r.digest = digest(s);
    r.counts = tally_counts(tally);
    r.counts["cache_hits"] = double(cache.stats().hits);
    r.counts["cache_misses"] = double(cache.stats().misses);
    r.values["toolchain.cache.resident_bytes"] = double(cache.resident_bytes());
    return r;
  }

  // Claims are visible only through the program's own span tracer: one
  // "shard" or "steal" event per claim.  Generation was timed in set-up.
  void program_layers(std::map<std::string, double>& layer) override {
    obs::tracer().set_enabled(true);
    (void)run_sharded();
    obs::tracer().set_enabled(false);
    double claims = 0;
    for (const obs::TraceEvent& e : obs::tracer().drain_sorted()) {
      if (e.phase == "dist" && (e.name == "shard" || e.name == "steal")) {
        ++claims;
      }
    }
    layer["dist.claims"] = claims;
    layer["gen.generate_s"] = generate_s_;
    layer["gen.kernels"] = kernels_;
  }

 private:
  dist::ShardedStudy run_sharded() const {
    dist::SupervisorOptions o;
    o.shard.shards = kGenShards;
    o.shard.jobs = kGenJobs;
    o.shard.steal = true;
    dist::FleetSupervisor fleet(model_.get(), toolchain::mfem_baseline(),
                                toolchain::mfem_speed_reference(), o);
    return fleet.run(*test_, space_);
  }

  static Digest digest(const core::StudyResult& s) {
    Digest d;
    add_study(d, s);
    d.add(core::study_csv(s));
    return d;
  }

  std::unique_ptr<fpsem::CodeModel> model_;
  std::unique_ptr<core::TestRegistry> registry_;
  std::unique_ptr<core::TestBase> test_;
  std::vector<toolchain::Compilation> space_;
  double generate_s_ = 0.0;
  double kernels_ = 0.0;
};

// serve-tenants: a seeded JSONL stream from eight tenants run as
// `flit serve --shards 2 --jobs nproc` at half the unbounded footprint.
class ServeTenants final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    register_mfem_tests(core::global_test_registry());
    space_ = toolchain::mfem_study_space();
    std::istringstream in(stream_text());
    requests_ = serve::read_requests(in);

    // Half of what the stream's explorations keep resident in an
    // unbounded cache: every whole-program build of every subspace.
    toolchain::CompilationCache cache;
    const toolchain::BuildSystem build(&fpsem::global_code_model(), &cache);
    std::set<std::string> seen;
    for (const auto& req : requests_) {
      auto comps = serve::request_subspace(req, space_);
      comps.push_back(toolchain::mfem_baseline());
      comps.push_back(toolchain::mfem_speed_reference());
      for (const auto& c : comps) {
        if (seen.insert(c.str()).second) (void)build.compile_all(c);
      }
    }
    budget_ = cache.resident_bytes() / 2;
  }

  PassResult pass() override {
    PassResult r;
    std::unordered_map<std::string, std::size_t> index;
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      index[requests_[i].id] = i;
    }
    std::vector<double> admitted(requests_.size(), -1.0);
    std::vector<double> done(requests_.size(), -1.0);
    serve::ServeOptions o;
    o.shards = kServeShards;
    o.jobs = kServeJobs;
    o.cache_budget = budget_;
    o.state_dir = fresh_path("state");
    // The whole stream is submitted at once, so a request's latency runs
    // from the start of the run to its done event; the admitted (or, for a
    // repeated payload, deduplicated) event ends its wait for a slot.
    o.event_sink = [&](const std::string&, const std::string& line) {
      const double t = now_s();
      const std::string event = field(line, "event");
      const std::size_t i = index.at(field(line, "request"));
      if (event == "admitted" || event == "deduplicated") admitted[i] = t;
      if (event == "done") done[i] = t;
    };
    const std::filesystem::path state = o.state_dir;
    const std::uint64_t anchors0 = counter("explore.anchor_runs");
    const std::uint64_t bisect0 =
        counter("bisect.executions") - counter("bisect.memo_hits");
    const std::uint64_t claims0 = counter("serve.claims");
    const std::uint64_t dedup0 = counter("serve.deduplicated");
    const double t0 = now_s();
    serve::StudyService service(&fpsem::global_code_model(),
                                toolchain::mfem_baseline(),
                                toolchain::mfem_speed_reference(), space_,
                                std::move(o));
    const serve::ServeReport rep = service.run(requests_);
    r.wall_s = now_s() - t0;

    std::vector<double> waits;
    Digest executed;
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      if (admitted[i] < 0 || done[i] < 0) {
        throw std::runtime_error("serve-tenants: request " + requests_[i].id +
                                 " has no admitted/done event");
      }
      r.jobs_s.push_back(done[i] - t0);
      waits.push_back(admitted[i] - t0);
    }
    for (const auto& rr : rep.requests) {
      r.digest.add(rr.id + '\t' + rr.csv);
      if (rr.deduplicated) continue;
      executed.add(rr.csv);
      r.cells += double(rr.items);
      r.real_executions += executed_items(rr.study);
    }
    r.real_executions += double(counter("explore.anchor_runs") - anchors0) +
                         double(counter("bisect.executions") -
                                counter("bisect.memo_hits") - bisect0);
    executed_digest_ = executed;
    std::filesystem::remove_all(state);
    put_cache(r.layer, rep.cache);
    r.layer["serve.requests"] = double(rep.requests.size());
    r.layer["serve.claims"] = double(counter("serve.claims") - claims0);
    r.layer["serve.deduplicated"] =
        double(counter("serve.deduplicated") - dedup0);
    r.layer["serve.wait_s_p50"] = median(waits);
    return r;
  }

  // Every served CSV must equal a solo run of its request.
  Digest reference() override {
    std::map<std::string, std::string> solo;  // payload key -> csv
    Digest d;
    for (const auto& req : requests_) {
      auto [it, fresh] = solo.try_emplace(req.payload_key());
      if (fresh) {
        const core::SpaceExplorer ex(&fpsem::global_code_model(),
                                     toolchain::mfem_baseline(),
                                     toolchain::mfem_speed_reference(), 1);
        it->second = core::study_csv(
            ex.explore(*core::global_test_registry().create(req.test),
                       serve::request_subspace(req, space_)));
      }
      d.add(req.id + '\t' + it->second);
    }
    return d;
  }

  // The replay runs each executed request's explore cells in admission
  // order through one budgeted cache, checkpointing per claim-sized batch;
  // the serve scheduler's interleaving and workflow bisects are not
  // replayed.
  ReplayResult replay(unsigned lanes, SpanRecorder& rec) override {
    ReplayResult r;
    ReplayTally tally;
    toolchain::CompilationCache cache;
    cache.set_budget(budget_);
    std::set<std::string> seen;
    const double t0 = now_s();
    {
      SpanRecorder::Scope root(rec, "replay", 0, 0);
      std::uint32_t job = 0;
      for (const auto& req : requests_) {
        if (!seen.insert(req.payload_key()).second) continue;
        SpanRecorder::Scope j(rec, "job", root.id(), ++job);
        const std::filesystem::path db_path = fresh_path("replay") += ".tsv";
        core::ResultsDb db(db_path);
        const auto test = core::global_test_registry().create(req.test);
        const core::StudyResult s = replay_study(
            &fpsem::global_code_model(), *test,
            serve::request_subspace(req, space_), &cache, &db, db_path,
            kCheckpointBatch, lanes, rec, j.id(), job, tally);
        r.digest.add(core::study_csv(s));
        std::filesystem::remove(db_path);
      }
    }
    r.wall_s = now_s() - t0;
    r.counts = tally_counts(tally);
    r.counts["cache_hits"] = double(cache.stats().hits);
    r.counts["cache_misses"] = double(cache.stats().misses);
    r.values["toolchain.cache.resident_bytes"] = double(cache.resident_bytes());
    return r;
  }

  // The replay must reproduce the CSVs of the requests the service ran.
  bool replay_matches(const ReplayResult& r, const Digest&) override {
    return r.digest == executed_digest_;
  }

 private:
  /// The request stream.  Request shapes (compiler filter, limit, mode,
  /// copies) are fixed, so every seed asks for about the same amount of
  /// work.  The stream is a sequence of rounds, the k-th copy of every
  /// shape in round k, so that every position has about the same mix of
  /// shapes ahead of it.  The seed
  /// picks each request's test and tenant, the order within each round,
  /// and which requests repeat an earlier payload.  Workflow requests over
  /// the first -O0 compilations of g++ or clang++ find no variability and
  /// skip the bisect; the two over icpc -O0 bisect, so that slow requests
  /// stay a small, fixed share of every stream.
  std::string stream_text() const {
    struct Shape {
      const char* compilers;  // JSON array body
      int limit;              // 0 = whole filtered space
      bool workflow;
      int copies;             // requests with this shape, distinct tests
    };
    static const Shape shapes[] = {
        {"", 64, false, 8},
        {"", 32, false, 8},
        {"", 16, false, 8},
        {"\"g++\"", 48, false, 8},
        {"\"g++\"", 80, false, 8},
        {"\"clang++\"", 0, false, 8},
        {"\"icpc\"", 0, false, 8},
        {"\"icpc\"", 32, false, 8},
        {"\"icpc\"", 16, false, 8},
        {"\"g++\",\"clang++\"", 48, false, 8},
        {"\"g++\"", 16, true, 8},
        {"\"clang++\"", 16, true, 8},
        {"\"g++\",\"clang++\"", 8, true, 8},
        {"\"icpc\"", 8, true, 2},
    };
    Rng rng(seed_ ^ 0x5e77eULL);
    const std::vector<std::string> tests = mfem_test_names();
    std::vector<std::vector<std::string>> rounds;
    for (const Shape& sh : shapes) {
      // Distinct tests per shape, so payloads repeat only where chosen.
      std::vector<std::string> pick = tests;
      shuffle(pick, rng);
      for (int k = 0; k < sh.copies; ++k) {
        std::string p = "\"test\":\"" + pick[k] + "\"";
        if (sh.workflow) p += ",\"mode\":\"workflow\"";
        if (sh.compilers[0] != '\0') {
          p += ",\"compilers\":[" + std::string(sh.compilers) + "]";
        }
        if (sh.limit > 0) p += ",\"limit\":" + std::to_string(sh.limit);
        if (rounds.size() <= std::size_t(k)) rounds.resize(k + 1);
        rounds[k].push_back(p);
      }
    }
    std::vector<std::string> payloads;
    for (std::size_t k = 0; k < rounds.size(); ++k) {
      shuffle(rounds[k], rng);
      // The last request of each of the last rounds repeats an earlier
      // payload.
      if (k + kServeDuplicates >= rounds.size()) {
        rounds[k].back() = payloads[rng.below(payloads.size() / 2)];
      }
      payloads.insert(payloads.end(), rounds[k].begin(), rounds[k].end());
    }
    std::string text;
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      char id[32];
      std::snprintf(id, sizeof id, "r%03zu", i);
      text += "{\"id\":\"" + std::string(id) + "\",\"tenant\":\"tenant" +
              std::to_string(rng.below(kServeTenants)) + "\"," + payloads[i] +
              "}\n";
    }
    return text;
  }

  /// The string value of `"key":"..."` in one event line.
  static std::string field(const std::string& line, const std::string& key) {
    const std::string open = "\"" + key + "\":\"";
    const std::size_t at = line.find(open);
    if (at == std::string::npos) return {};
    const std::size_t from = at + open.size();
    return line.substr(from, line.find('"', from) - from);
  }

  std::vector<toolchain::Compilation> space_;
  std::vector<serve::StudyRequest> requests_;
  std::uint64_t budget_ = 0;
  Digest executed_digest_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::filesystem::path& work) {
  if (name == "explore-table1") return std::make_unique<ExploreTable1>(seed, work);
  if (name == "blame-matrix") return std::make_unique<BlameMatrix>(seed, work);
  if (name == "gen-sharded") return std::make_unique<GenSharded>(seed, work);
  if (name == "serve-tenants") return std::make_unique<ServeTenants>(seed, work);
  return nullptr;
}

// Digests of the seed code's outputs at kDefaultSeed.
std::optional<Digest> pinned_digest(const std::string& workload) {
  static const std::map<std::string, Digest> pinned = {
      {"explore-table1", {0xc66830b53e20388bULL, 4636}},
      {"blame-matrix", {0x07f2ae733ff1f755ULL, 6}},
      {"gen-sharded", {0xf176af412ab7d7daULL, 245}},
      {"serve-tenants", {0x64a9f56e46531d8eULL, 106}},
  };
  const auto it = pinned.find(workload);
  if (it == pinned.end()) return std::nullopt;
  return it->second;
}

// ------------------------------------------------------------------ output

struct Output {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void metric(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& why) {
    std::fprintf(stderr, "perfbench: VERIFICATION FAILED: %s\n", why.c_str());
    std::printf("# VERIFICATION FAILED: %s\n", why.c_str());
    correct = false;
    ++failed;
  }
  void print() const {
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      char v[64];
      std::snprintf(v, sizeof v, "%.17g", metrics[i].value);
      json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
              v + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }
};

/// Checks one pass or replay digest against the reference.
void verify(Output& out, const std::string& what, bool ok) {
  ++out.attempted;
  if (!ok) out.fail(what + " differs from the reference");
}

Digest reference_for(Workload& w, const std::string& workload,
                     std::uint64_t seed, Output& out) {
  const std::optional<Digest> pinned =
      seed == kDefaultSeed ? pinned_digest(workload) : std::nullopt;
  // Every seed compares against the program's own reference runs; the
  // pinned digest is checked on top at the default seed.
  const Digest ref = w.reference();
  std::printf("# reference digest %s\n", ref.str().c_str());
  if (pinned.has_value()) {
    verify(out, "reference vs pinned digest", ref == *pinned);
  }
  return ref;
}

/// Runs the set-up and returns the seconds from process start (as
/// `spawn_ns` on the steady clock, when the launcher passed it) to the
/// first timed operation.
double timed_setup(Workload& w, std::int64_t spawn_ns) {
  const double t0 = spawn_ns > 0 ? spawn_ns * 1e-9 : now_s();
  w.setup();
  return now_s() - t0;
}

void run_measured(Workload& w, const std::string& workload,
                  std::uint64_t seed, double seconds, std::int64_t spawn_ns,
                  Output& out) {
  const double setup_s = timed_setup(w, spawn_ns);

  // One warm-up pass (checked, not measured) so that the first measured
  // pass does not pay for a cold page cache.
  std::vector<PassResult> passes{w.pass()};
  const double start = now_s();
  while (passes.size() <= kMinPasses || now_s() - start < seconds) {
    const double c0 = cpu_s();
    passes.push_back(w.pass());
    passes.back().cpu_s = cpu_s() - c0;
  }
  const double rss = peak_rss_mib();
  const double passes_s = now_s() - start;

  const Digest ref = reference_for(w, workload, seed, out);
  std::vector<double> rate, cpu, real, jobs, tails;
  verify(out, "warm-up pass digest " + passes.front().digest.str(),
         passes.front().digest == ref);
  passes.erase(passes.begin());
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    verify(out, "pass " + std::to_string(i) + " digest " + p.digest.str(),
           p.digest == ref);
    rate.push_back(p.cells / p.wall_s);
    cpu.push_back(p.cpu_s);
    real.push_back(p.real_executions);
    jobs.insert(jobs.end(), p.jobs_s.begin(), p.jobs_s.end());
    tails.push_back(tail(p.jobs_s).value);
  }
  // Where a pass holds enough jobs for p90 (100 or more: one request
  // stream), the tail is taken within each pass and its median reported,
  // like every other metric.  Otherwise the jobs of all passes are the
  // samples.
  const bool pooled = passes.front().jobs_s.size() < 100;
  Tail t = tail(pooled ? jobs : passes.front().jobs_s);
  if (!pooled) t.value = median(tails);
  std::printf("# pass walls:");
  for (const PassResult& p : passes) std::printf(" %.4f", p.wall_s);
  std::printf("\n");
  std::printf("# %s seed %llu: %zu passes in %.3f s, %.0f cells/pass\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              passes.size(), passes_s, passes.front().cells);
  std::printf("# job latency: p50 %.6f s over %zu jobs, tail p%d %.6f s "
              "over %zu jobs%s\n",
              median(jobs), jobs.size(), t.percentile, t.value, t.samples,
              pooled ? "" : " per pass (median over passes)");
  out.metric("setup_s", setup_s, "s");
  out.metric("cells_per_s", median(rate), "1/s");
  out.metric("cpu_s", median(cpu), "s");
  out.metric("peak_rss_mib", rss, "MiB");
  out.metric("real_executions", median(real), "count");
  out.metric("job_p50_s", median(jobs), "s");
  out.metric("job_tail_s", t.value, "s");
}

void write_trace(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty()) return;
  std::ofstream f(path);
  for (const Span& s : spans) {
    f << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
      << ",\"parent\":" << s.parent << ",\"job\":" << s.job
      << ",\"thread\":" << s.thread << ",\"start_ns\":" << s.start_ns
      << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

void print_rollup(const char* label, const Rollup& r) {
  const double total = r.lanes * r.wall_s;
  std::printf("# %s: %u lane(s), wall %.4f s, idle %.4f s (%.1f%%), "
              "account residual %.2e s\n",
              label, r.lanes, r.wall_s, r.idle_s, 100.0 * r.idle_s / total,
              r.residual_s);
  for (const auto& [name, l] : r.layers) {
    std::printf("#   %-8s calls %7zu  self %9.4f s (%5.1f%%)  total %9.4f s\n",
                name.c_str(), l.calls, l.self_s, 100.0 * l.self_s / total,
                l.total_s);
  }
}

void run_traced(Workload& w, const std::string& workload, std::uint64_t seed,
                const std::string& trace_file, Output& out) {
  w.setup();
  const Digest ref = reference_for(w, workload, seed, out);

  // Program passes: public counters, and the spread of the ones that
  // depend on scheduling.
  std::vector<PassResult> passes;
  for (int i = 0; i < 2; ++i) {
    passes.push_back(w.pass());
    verify(out, "program pass digest", passes.back().digest == ref);
  }
  std::map<std::string, double> program = passes.front().layer;
  w.program_layers(program);
  // These counts do not depend on scheduling, so they must repeat exactly.
  static const std::set<std::string> exact = {
      "serve.requests", "serve.claims", "serve.deduplicated",
      "blame.clusters", "blame.failed_cells"};
  for (const auto& [name, v] : passes.front().layer) {
    const double v2 = passes.back().layer.at(name);
    if (exact.count(name) != 0) {
      ++out.attempted;
      if (v != v2) out.fail(name + " differs between two program passes");
    } else if (v != v2) {
      std::printf("# spread between program passes: %s %.17g vs %.17g\n",
                  name.c_str(), v, v2);
    }
  }

  // Replays: untraced and traced at nproc lanes, twice traced at 1 lane.
  const auto replay = [&](unsigned lanes, bool traced) {
    SpanRecorder rec(traced);
    ReplayResult r = w.replay(lanes, rec);
    r.spans = rec.spans();
    verify(out, std::string("replay at ") + std::to_string(lanes) + " lane(s)",
           w.replay_matches(r, ref));
    return r;
  };
  // Untraced and traced replays alternate so that warm-up favours neither.
  const ReplayResult plain = replay(nproc(), false);
  const ReplayResult traced = replay(nproc(), true);
  const double plain2_s = replay(nproc(), false).wall_s;
  const double traced2_s = replay(nproc(), true).wall_s;
  const ReplayResult serial1 = replay(1, true);
  const ReplayResult serial2 = replay(1, true);

  ++out.attempted;
  if (serial1.counts != serial2.counts) {
    for (const auto& [name, v] : serial1.counts) {
      std::printf("# 1-lane count %s: %.17g vs %.17g\n", name.c_str(), v,
                  serial2.counts.at(name));
    }
    out.fail("per-layer counts differ between two 1-lane replays");
  }
  for (const auto& [name, v] : traced.counts) {
    if (v != plain.counts.at(name)) {
      std::printf("# spread at %u lanes: replay %s %.17g vs %.17g\n", nproc(),
                  name.c_str(), v, plain.counts.at(name));
    }
  }

  const Rollup roll = SpanRecorder::rollup(traced.spans, nproc(), traced.wall_s);
  const Rollup roll1 = SpanRecorder::rollup(serial1.spans, 1, serial1.wall_s);
  print_rollup("traced replay", roll);
  print_rollup("serial replay", roll1);
  ++out.attempted;
  if (roll.idle_s < -1e-3 * roll.wall_s ||
      std::abs(roll.residual_s) > 1e-6 * roll.wall_s * roll.lanes) {
    out.fail("span self times and lane idle do not account for the wall");
  }
  write_trace(trace_file, traced.spans);

  const auto layer = [&](const char* name) {
    const auto it = roll.layers.find(name);
    return it == roll.layers.end() ? LayerTotals{} : it->second;
  };
  const auto get = [](const std::map<std::string, double>& m,
                      const std::string& k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  const auto& c = traced.counts;
  const double logical = get(c, "bisect_logical");
  const double overhead =
      (traced.wall_s + traced2_s) / (plain.wall_s + plain2_s) - 1.0;
  // The campaign minus its untraced bisect sweep is the confirmation phase;
  // both run on one lane.
  const double sweep_s =
      get(c, "bisect_calls") > 0 ? replay(1, false).wall_s : 0.0;
  const double campaign_s = get(program, "blame.campaign_s");

  out.metric("core.runner.run_s", layer("run").total_s, "s");
  out.metric("core.runner.calls", get(c, "runner_calls"), "count");
  out.metric("core.runner.compare_s", layer("compare").total_s, "s");
  out.metric("toolchain.build.compile_all_s", layer("build").total_s, "s");
  out.metric("toolchain.build.calls", get(c, "build_calls"), "count");
  out.metric("toolchain.cache.hits", get(program, "toolchain.cache.hits"), "count");
  out.metric("toolchain.cache.misses", get(program, "toolchain.cache.misses"), "count");
  out.metric("toolchain.cache.hit_rate", get(program, "toolchain.cache.hit_rate"), "ratio");
  out.metric("toolchain.cache.evictions", get(program, "toolchain.cache.evictions"), "count");
  out.metric("toolchain.cache.resident_bytes",
             get(traced.values, "toolchain.cache.resident_bytes"), "bytes");
  out.metric("toolchain.link.link_s", layer("link").total_s, "s");
  out.metric("toolchain.link.calls", get(c, "link_calls"), "count");
  out.metric("toolchain.link.errors", get(c, "link_errors"), "count");
  out.metric("core.resultsdb.record_s", layer("record").total_s, "s");
  out.metric("core.resultsdb.calls", get(c, "record_calls"), "count");
  out.metric("core.resultsdb.bytes_written", get(c, "record_bytes"), "bytes");
  out.metric("core.explore.lane_busy_s", roll.busy_s, "s");
  out.metric("core.explore.lane_idle_s", roll.idle_s, "s");
  out.metric("core.bisect.run_s_p50", get(traced.values, "core.bisect.run_s_p50"), "s");
  out.metric("core.bisect.logical_executions", logical, "count");
  out.metric("core.bisect.memo_hits", get(c, "bisect_memo_hits"), "count");
  out.metric("core.bisect.memo_hit_rate",
             logical > 0 ? get(c, "bisect_memo_hits") / logical : 0.0, "ratio");
  out.metric("blame.sweep_s", sweep_s, "s");
  out.metric("blame.confirm_s", campaign_s > 0 ? campaign_s - sweep_s : 0.0, "s");
  out.metric("blame.confirm_real_executions",
             get(program, "blame.confirm_real_executions"), "count");
  out.metric("blame.clusters", get(program, "blame.clusters"), "count");
  out.metric("blame.failed_cells", get(program, "blame.failed_cells"), "count");
  out.metric("dist.claims", get(program, "dist.claims"), "count");
  out.metric("dist.steals", get(program, "dist.steals"), "count");
  out.metric("dist.stolen_items", get(program, "dist.stolen_items"), "count");
  out.metric("dist.rank_items_max_over_mean",
             get(program, "dist.rank_items_max_over_mean"), "ratio");
  out.metric("serve.requests", get(program, "serve.requests"), "count");
  out.metric("serve.claims", get(program, "serve.claims"), "count");
  out.metric("serve.deduplicated", get(program, "serve.deduplicated"), "count");
  out.metric("serve.wait_s_p50", get(program, "serve.wait_s_p50"), "s");
  out.metric("gen.generate_s", get(program, "gen.generate_s"), "s");
  out.metric("gen.kernels", get(program, "gen.kernels"), "count");
  out.metric("trace.overhead", overhead, "ratio");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <explore-table1|blame-matrix|"
               "gen-sharded|serve-tenants> --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--trace-file FILE] [--spawn-ns NS] "
               "[--setup-only 1]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, work_dir, trace_file;
  long long seed = -1;
  long long spawn_ns = 0;
  bool setup_only = false;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      seed = std::strtoll(v, &end, 10);
      if (*end != '\0' || seed < 0) return usage();
    } else if (flag == "--seconds") {
      seconds = std::strtod(v, &end);
      if (*end != '\0' || seconds <= 0) return usage();
    } else if (flag == "--trace") {
      trace = std::strcmp(v, "1") == 0 ? 1 : std::strcmp(v, "0") == 0 ? 0 : -1;
    } else if (flag == "--work-dir") {
      work_dir = v;
    } else if (flag == "--trace-file") {
      trace_file = v;
    } else if (flag == "--spawn-ns") {
      spawn_ns = std::strtoll(v, &end, 10);
      if (*end != '\0' || spawn_ns <= 0) return usage();
    } else if (flag == "--setup-only") {
      setup_only = std::strcmp(v, "1") == 0;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || seed < 0 || seconds <= 0 || trace < 0 ||
      work_dir.empty()) {
    return usage();
  }
  std::filesystem::create_directories(work_dir);
  const auto w = make_workload(workload, static_cast<std::uint64_t>(seed),
                               work_dir);
  if (w == nullptr) return usage();

  Output out;
  try {
    if (setup_only) {
      std::printf("setup_s %.17g\n", timed_setup(*w, spawn_ns));
      return 0;
    }
    if (trace == 0) {
      run_measured(*w, workload, static_cast<std::uint64_t>(seed), seconds,
                   spawn_ns, out);
    } else {
      run_traced(*w, workload, static_cast<std::uint64_t>(seed), trace_file,
                 out);
      out.metric("error_rate",
                 out.attempted > 0 ? double(out.failed) / out.attempted : 0.0,
                 "ratio");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", workload.c_str(), e.what());
    return 1;
  }
  out.print();
  return out.correct ? 0 : 1;
}
