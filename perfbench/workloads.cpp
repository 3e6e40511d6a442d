#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "dedup/dedup.hpp"
#include "fuzz/diff.hpp"
#include "fuzz/gen.hpp"
#include "litmus/shapes.hpp"
#include "lockver/templates.hpp"
#include "opt/driver.hpp"
#include "opt/rewrite.hpp"
#include "prof/prof.hpp"
#include "runner/cache.hpp"
#include "runner/engine.hpp"
#include "runner/thread_pool.hpp"
#include "sim/machine.hpp"
#include "sim/platform.hpp"
#include "trace/json.hpp"
#include "trace/json_report.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using armbar::trace::Json;
using Layers = std::map<std::string, double>;
namespace prof = armbar::prof;
namespace runner = armbar::runner;

/// Lock-handoff-shaped fuzz programs optimized per opt_locks iteration.
constexpr std::uint64_t kLockShapePrograms = 200;

std::string join(const std::vector<std::string>& v) {
  std::string out;
  for (const std::string& s : v) out += (out.empty() ? "" : ",") + s;
  return out;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Deterministic Fisher-Yates from a splitmix64 stream.
template <typename T>
void shuffle(std::vector<T>* v, std::uint64_t seed) {
  std::uint64_t x = seed;
  for (std::size_t i = v->size(); i > 1; --i) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    std::swap((*v)[i - 1], (*v)[z % i]);
  }
}

void fresh_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

/// Points digests pinned for the figure/table experiments. Read at run
/// time, so a deliberate re-pin in the repository needs no change here.
std::map<std::string, std::string> load_pin(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read points-digest pin " + path);
  std::stringstream text;
  text << in.rdbuf();
  std::string err;
  const Json doc = Json::parse(text.str(), &err);
  const Json* digests = doc.find("digests");
  if (!err.empty() || digests == nullptr || !digests->is_object())
    throw std::runtime_error("malformed points-digest pin " + path);
  std::map<std::string, std::string> pin;
  for (const auto& [key, value] : digests->members())
    pin[key.substr(0, key.find('/'))] = value.str();
  return pin;
}

runner::EngineResult run_engine(const std::vector<std::string>& experiments,
                                const std::string& cache_dir, bool json,
                                bool profile) {
  runner::EngineOptions o;
  o.filter = join(experiments);
  o.jobs = kJobs;
  o.cache_dir = cache_dir;
  o.collect_metrics = json;
  o.handle_sigint = false;
  o.profile = profile;
  return runner::Engine(runner::Registry::global(), o).run();
}

/// Every named experiment ran, passed all of its checks and, where the
/// repository pins one, reproduced its points digest.
void check_engine(const runner::EngineResult& r,
                  const std::vector<std::string>& experiments,
                  const std::map<std::string, std::string>& pin,
                  Iteration* it) {
  it->attempted += experiments.size();
  if (r.outcomes.size() != experiments.size()) {
    it->errors.push_back("filter matched " + std::to_string(r.outcomes.size()) +
                         " of " + std::to_string(experiments.size()) +
                         " experiments");
    it->failed += experiments.size() -
                  std::min(experiments.size(), r.outcomes.size());
  }
  for (const runner::ExperimentOutcome& o : r.outcomes) {
    it->ops += static_cast<double>(o.points);
    bool ok = o.ok && o.status == "ok";
    if (!ok)
      it->errors.push_back(o.name + ": " + o.status + " " + o.kind + " " +
                           o.reason);
    if (auto p = pin.find(o.name);
        p != pin.end() && p->second != hex16(o.points_digest)) {
      ok = false;
      it->errors.push_back(o.name + ": points digest " +
                           hex16(o.points_digest) + " != pinned " + p->second);
    }
    if (!ok) ++it->failed;
  }
}

void check_report(const Json& doc, Iteration* it, const std::string& what) {
  std::string err;
  if (armbar::trace::validate_bench_report(doc, &err)) return;
  it->errors.push_back(what + " fails validate_bench_report: " + err);
  ++it->failed;
}

void engine_layers(const runner::EngineResult& r, Layers* l) {
  double points = 0, hits = 0;
  for (const runner::ExperimentOutcome& o : r.outcomes) {
    points += static_cast<double>(o.points);
    hits += static_cast<double>(o.cache_hits);
    (*l)["exp." + o.name + ".s"] = o.wall_ms * 1e-3;
  }
  (*l)["runner.points"] = points;
  (*l)["runner.point_hits"] = hits;
  (*l)["runner.cache.hits"] = static_cast<double>(r.cache_stats.hits);
  (*l)["runner.cache.misses"] = static_cast<double>(r.cache_stats.misses);
  (*l)["runner.cache.stores"] = static_cast<double>(r.cache_stats.stores);
  (*l)["runner.cache.evictions"] = static_cast<double>(r.cache_stats.evictions);
}

/// Adds the self-profiler's phase totals (thread-summed) and counters.
void prof_layers(const prof::Snapshot& s, Layers* l) {
  const auto sec = [&](prof::Phase p) {
    return static_cast<double>(s.phase(p).total_ns) * 1e-9;
  };
  (*l)["sim.run_s"] += sec(prof::Phase::kSimRun);
  (*l)["sim.verify_s"] += sec(prof::Phase::kSimVerify);
  (*l)["sim.instructions"] +=
      static_cast<double>(s.counter(prof::Counter::kSimInstructions));
  (*l)["sim.runs"] += static_cast<double>(s.counter(prof::Counter::kSimRuns));
  (*l)["trace.emit_count"] +=
      static_cast<double>(s.phase(prof::Phase::kTraceEmit).count);
  (*l)["trace.emit_s"] += sec(prof::Phase::kTraceEmit);
  (*l)["model.enumerate_s"] += sec(prof::Phase::kModelEnumerate);
  (*l)["model.candidates"] +=
      static_cast<double>(s.counter(prof::Counter::kModelExecutions));
}

/// Ratios, computed once every contribution is in.
void derive_rates(Layers* l) {
  if ((*l)["sim.run_s"] > 0)
    (*l)["sim.mips"] = (*l)["sim.instructions"] / (*l)["sim.run_s"] * 1e-6;
  if ((*l)["model.enumerate_s"] > 0)
    (*l)["model.execs_per_s"] =
        (*l)["model.candidates"] / (*l)["model.enumerate_s"];
}

double minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<double>(ru.ru_minflt);
}

/// Machine(spec, bytes) on every preset, the constructor alone timed.
void construct_replay(Spans& spans, std::uint64_t seed, Layers* l) {
  std::vector<armbar::sim::PlatformSpec> presets = armbar::sim::all_platforms();
  shuffle(&presets, seed);
  const int root = spans.open("replay.construct", -1, -1);
  for (const auto& [bytes, reps, label] :
       {std::tuple<std::size_t, int, const char*>{64u << 20, 2, "64MiB"},
        std::tuple<std::size_t, int, const char*>{1u << 20, 8, "1MiB"}}) {
    std::vector<double> us, faults;
    for (int rep = 0; rep < reps; ++rep) {
      for (const armbar::sim::PlatformSpec& spec : presets) {
        const double f0 = minor_faults();
        const int idx = spans.open("sim.Machine", root, -1);
        armbar::sim::Machine m(spec, bytes);
        spans.close(idx);
        faults.push_back(minor_faults() - f0);
        us.push_back(spans.duration_s(idx) * 1e6);
      }
    }
    (*l)[std::string("sim.construct_us.") + label] = median(us);
    if (bytes == (64u << 20))
      (*l)[std::string("sim.construct_faults.") + label] = median(faults);
  }
  spans.close(root);
}

/// Per-entry lookup (fresh cache object, so every entry is read and parsed
/// from disk) and store cost over a populated cache directory.
void cache_replay(const std::string& dir, const std::string& scratch,
                  Spans& spans, std::uint64_t seed, Layers* l) {
  std::vector<std::string> keys;
  for (const fs::directory_entry& e : fs::directory_iterator(dir))
    if (e.path().extension() == ".json") keys.push_back(e.path().stem());
  if (keys.empty()) throw std::runtime_error("cache replay: empty " + dir);
  std::sort(keys.begin(), keys.end());
  shuffle(&keys, seed);

  runner::ResultCache reader(dir);
  std::vector<Json> values;
  values.reserve(keys.size());
  const int lookup = spans.open("runner.ResultCache.lookup", -1, -1);
  for (const std::string& k : keys) {
    std::optional<Json> v = reader.lookup(k);
    if (!v) throw std::runtime_error("cache replay: lookup missed " + k);
    values.push_back(std::move(*v));
  }
  spans.close(lookup);

  fresh_dir(scratch);
  runner::ResultCache writer(scratch);
  const int store = spans.open("runner.ResultCache.store", -1, -1);
  for (std::size_t i = 0; i < keys.size(); ++i)
    writer.store(keys[i], "perfbench replay", values[i]);
  spans.close(store);
  fs::remove_all(scratch);

  const double n = static_cast<double>(keys.size());
  (*l)["runner.cache.lookup_us"] = spans.duration_s(lookup) / n * 1e6;
  (*l)["runner.cache.store_us"] = spans.duration_s(store) / n * 1e6;
}

/// fig6d's pipeline on its smallest input (1 MiB, half duplicate) over the
/// three channel kinds; run_pipeline verifies the round trip itself.
void dedup_replay(Spans& spans, Layers* l) {
  const std::vector<std::uint8_t> data = armbar::dedup::make_input(1u << 20, 0.5, 17);
  double total = 0;
  for (const auto kind : {armbar::dedup::ChannelKind::kLockQueue,
                          armbar::dedup::ChannelKind::kRing,
                          armbar::dedup::ChannelKind::kPilotRing}) {
    const int idx = spans.open("dedup.run_pipeline", -1, -1);
    armbar::dedup::run_pipeline(data, kind, /*verify=*/true);
    spans.close(idx);
    total += spans.duration_s(idx);
  }
  (*l)["dedup.pipeline_s"] = total;
}

// ---------------------------------------------------------------------------

/// Every fig*/table*/ablation* experiment except five. Three cost too much
/// to repeat within one run: fig2_intrinsic (2.6 s), fig3_store_store
/// (5.2 s) and fig7c_pilot_locks (2.1 s) at --jobs 4. fig6d_dedup's 5 s are
/// real host threads racing each other; the dedup replay measures its
/// pipeline instead. fig8b_list computes duplicate keys concurrently, so
/// how many of its points hit the cache, and how much it simulates, varies
/// from run to run; without it every count below repeats exactly.
const std::vector<std::string> kSweep = {
    "ablation_extensions", "fig5_load_store",   "fig6a_prodcons",
    "fig6b_pilot",         "fig6c_batch",       "fig7a_ticket",
    "fig7b_delegation",    "fig8a_queue_stack", "fig8c_hash",
    "fig8d_floorplan",     "table1_litmus",     "table2_platforms",
    "table3_suggestions"};

/// barrier_opt is left out: 99% of its 18 s is three enumerations of one
/// fuzz program (seed 3), which fuzz_campaign's model layer already covers;
/// its optimizer corpus runs below without that program.
const std::vector<std::string> kOptLocks = {"cna_scaling", "lock_verify"};

/// sweep_cold: every point simulates and is stored into an empty cache.
/// sweep_warm_json: the cache primed in set-up, metrics collected (so
/// instrumented points re-simulate), the report dumped and validated.
class Sweep final : public Workload {
 public:
  Sweep(const Config& cfg, bool warm_json)
      : cfg_(cfg), warm_json_(warm_json), pin_(load_pin(cfg.pin_path)) {}

  /// One cold sweep into an emptied cache directory. For the warm workload
  /// this primes the cache; for the cold one it is a warm-up, so code pages
  /// and allocator arenas are live before the first measured sweep.
  void setup() override {
    fresh_dir(cache_dir());
    Iteration it;
    check_engine(run_engine(kSweep, cache_dir(), false, false), kSweep, pin_,
                 &it);
    if (!it.errors.empty())
      throw std::runtime_error("cold sweep: " + it.errors.front());
  }
  void before_iteration() override {
    if (!warm_json_) fresh_dir(cache_dir());
  }

  Iteration iterate(Spans* spans, int parent, int run) override {
    Iteration it;
    runner::EngineResult r;
    {
      SpanScope s(spans, "runner.Engine.run", parent, run);
      r = run_engine(kSweep, cache_dir(), warm_json_, spans != nullptr);
    }
    check_engine(r, kSweep, pin_, &it);
    if (warm_json_) check_json_report(r.report, spans, parent, run, &it);
    if (spans != nullptr) {
      engine_layers(r, &it.layers);
      prof_layers(prof::snapshot(), &it.layers);
      derive_rates(&it.layers);
    }
    return it;
  }

  void replay(Spans& spans, std::uint64_t seed, Layers* l) override {
    construct_replay(spans, seed, l);
    cache_replay(cache_dir(), cfg_.work_dir + "/replay", spans, seed, l);
    dedup_replay(spans, l);
  }

 private:
  std::string cache_dir() const { return cfg_.work_dir + "/cache"; }

  /// What --json does with the report (dump(1), as armbar-bench writes it),
  /// then what report_check does (parse it back and validate).
  static void check_json_report(const Json& report, Spans* spans, int parent,
                                int run, Iteration* it) {
    std::string text;
    int dump = -1, validate = -1;
    {
      SpanScope s(spans, "trace.Json.dump", parent, run);
      dump = s.index();
      text = report.dump(1) + "\n";
    }
    {
      SpanScope s(spans, "trace.validate_bench_report", parent, run);
      validate = s.index();
      std::string err;
      const Json doc = Json::parse(text, &err);
      if (!err.empty()) {
        it->errors.push_back("report does not parse back: " + err);
        ++it->failed;
      } else {
        check_report(doc, it, "sweep report");
      }
    }
    if (spans != nullptr) {
      it->layers["trace.report_bytes"] = static_cast<double>(text.size());
      it->layers["trace.report_dump_ms"] = spans->duration_s(dump) * 1e3;
      it->layers["trace.report_validate_ms"] = spans->duration_s(validate) * 1e3;
    }
  }

  Config cfg_;
  bool warm_json_;
  std::map<std::string, std::string> pin_;
};

/// Differential fuzz campaign: generate + run_diff per seed on a pool of
/// kJobs threads, DiffOptions::defaults(8) as armbar-fuzz uses.
class FuzzCampaign final : public Workload {
 public:
  explicit FuzzCampaign(const Config& cfg) : cfg_(cfg) {}

  /// Warm-up: one full campaign. It also fixes the combined digest every
  /// measured campaign must reproduce.
  void setup() override {
    const bool first = !have_digest_;
    Iteration it = iterate(nullptr, -1, -1);
    if (!it.errors.empty())
      throw std::runtime_error("warm-up campaign: " + it.errors.front());
    if (first)
      std::fprintf(stderr, "perfbench: fuzz seeds %llu-%llu combined digest %s\n",
                   static_cast<unsigned long long>(cfg_.fuzz_lo),
                   static_cast<unsigned long long>(cfg_.fuzz_hi),
                   hex16(digest_).c_str());
  }

  Iteration iterate(Spans* spans, int parent, int run) override {
    struct SeedResult {
      bool ok = false;
      std::uint64_t digest = 0, runs = 0, sim_ns = 0;
      std::string summary;
    };
    const armbar::fuzz::DiffOptions opts = armbar::fuzz::DiffOptions::defaults(8);
    const std::size_t n = cfg_.fuzz_hi - cfg_.fuzz_lo + 1;
    std::vector<SeedResult> res(n);
    if (spans != nullptr) {
      prof::reset();
      prof::set_enabled(true);
    }
    {
      runner::ThreadPool pool(kJobs - 1);
      pool.parallel_for(n, [&](std::size_t i) {
        armbar::model::ConcurrentProgram prog;
        {
          SpanScope s(spans, "fuzz.generate", parent, run);
          prog = armbar::fuzz::generate(cfg_.fuzz_lo + i);
        }
        SpanScope s(spans, "fuzz.run_diff", parent, run);
        const armbar::fuzz::DiffResult d = armbar::fuzz::run_diff(prog, opts);
        res[i] = {d.ok(), d.digest(), d.runs, d.sim_ns,
                  d.ok() ? std::string() : d.summary()};
      });
    }
    Iteration it;
    it.ops = static_cast<double>(n);
    it.attempted = n;
    std::uint64_t combined = kFnvBasis, runs = 0, sim_ns = 0;
    for (std::size_t i = 0; i < n; ++i) {
      combined = fnv_mix(fnv_mix(combined, cfg_.fuzz_lo + i), res[i].digest);
      runs += res[i].runs;
      sim_ns += res[i].sim_ns;
      if (!res[i].ok) {
        ++it.failed;
        it.errors.push_back("fuzz seed " + std::to_string(cfg_.fuzz_lo + i) +
                            ": " + res[i].summary);
      }
    }
    if (!have_digest_) {
      digest_ = combined;
      have_digest_ = true;
    } else if (combined != digest_) {
      it.errors.push_back("combined DiffResult digest " + hex16(combined) +
                          " != first campaign's " + hex16(digest_));
    }
    if (spans != nullptr) {
      prof::set_enabled(false);
      prof_layers(prof::snapshot(), &it.layers);
      derive_rates(&it.layers);
      it.layers["fuzz.generate_ms"] = spans->busy_s("fuzz.generate", run) * 1e3;
      it.layers["fuzz.sim_s"] = static_cast<double>(sim_ns) * 1e-9;
      it.layers["fuzz.sim_runs"] = static_cast<double>(runs);
    }
    return it;
  }

  void replay(Spans& spans, std::uint64_t seed, Layers* l) override {
    construct_replay(spans, seed, l);
  }

 private:
  Config cfg_;
  bool have_digest_ = false;
  std::uint64_t digest_ = 0;
};

/// Lock verification and barrier optimization: the cna_scaling and
/// lock_verify experiments from an empty cache, then the optimizer over
/// many small lock-shaped programs, each decision checked by the oracle.
class OptLocks final : public Workload {
 public:
  explicit OptLocks(const Config& cfg) : cfg_(cfg) {}

  void setup() override {
    build_corpus();
    before_iteration();
    Iteration it = iterate(nullptr, -1, -1);
    if (!it.errors.empty())
      throw std::runtime_error("warm-up pass: " + it.errors.front());
  }
  void before_iteration() override { fresh_dir(cache_dir()); }

  Iteration iterate(Spans* spans, int parent, int run) override {
    Iteration it;
    runner::EngineResult r;
    {
      SpanScope s(spans, "runner.Engine.run", parent, run);
      r = run_engine(kOptLocks, cache_dir(), false, spans != nullptr);
    }
    check_engine(r, kOptLocks, {}, &it);
    prof::Snapshot engine_prof;
    if (spans != nullptr) engine_prof = prof::snapshot();
    {
      SpanScope s(spans, "trace.validate_bench_report", parent, run);
      check_report(r.report, &it, "engine report");
    }

    if (spans != nullptr) {
      prof::reset();
      prof::set_enabled(true);
    }
    std::vector<armbar::opt::OptResult> results(corpus_.size());
    int phase = -1;
    {
      SpanScope s(spans, "opt.corpus", parent, run);
      phase = s.index();
      runner::ThreadPool pool(kJobs - 1);
      pool.parallel_for(corpus_.size(), [&](std::size_t i) {
        SpanScope o(spans, "opt.optimize", phase, run);
        results[i] = armbar::opt::optimize(corpus_[i].prog);
      });
    }
    prof::Snapshot opt_prof;
    if (spans != nullptr) {
      prof::set_enabled(false);
      opt_prof = prof::snapshot();
    }

    std::uint64_t decisions = kFnvBasis;
    double attempted = 0, accepted = 0, restored = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const armbar::opt::OptResult& res = results[i];
      const Entry& e = corpus_[i];
      ++it.attempted;
      it.ops += 1;
      attempted += res.attempted;
      accepted += res.accepted;
      restored += res.restored;
      for (const char c : armbar::opt::describe_decisions(res))
        decisions = fnv_mix(decisions, static_cast<unsigned char>(c));
      std::string err;
      if (!res.model_valid)
        err = "model rejected the program: " + res.model_error;
      else if (!res.verified_equal)
        err = "optimized program not verified equal to the original";
      else if (e.weakened_barriers >= 0 &&
               res.barriers_after > static_cast<std::uint32_t>(e.weakened_barriers))
        err = "missed Table-3 parity (" + std::to_string(res.barriers_after) +
              " barriers > " + std::to_string(e.weakened_barriers) + ")";
      if (!err.empty()) {
        ++it.failed;
        it.errors.push_back(e.prog.name + ": " + err);
      }
    }
    if (!have_digest_) {
      digest_ = decisions;
      have_digest_ = true;
    } else if (decisions != digest_) {
      it.errors.push_back("optimizer decisions differ from the first pass");
    }
    {
      SpanScope s(spans, "trace.validate_bench_report", parent, run);
      armbar::trace::ReportBuilder rb("perfbench_opt_locks",
                                      "barrier-optimization decisions");
      rb.set_opt_report(armbar::opt::opt_report_json(results));
      check_report(rb.build(), &it, "opt report");
    }

    if (spans != nullptr) {
      engine_layers(r, &it.layers);
      prof_layers(engine_prof, &it.layers);
      prof_layers(opt_prof, &it.layers);
      derive_rates(&it.layers);
      it.layers["opt.attempted"] = attempted;
      it.layers["opt.accepted"] = accepted;
      it.layers["opt.restored"] = restored;
      it.layers["opt.phase_s"] = spans->duration_s(phase);
      it.layers["opt.self_s"] =
          spans->busy_s("opt.optimize", run) -
          static_cast<double>(
              opt_prof.phase(prof::Phase::kModelEnumerate).total_ns) * 1e-9;
      it.layers["trace.report_validate_ms"] =
          spans->busy_s("trace.validate_bench_report", run) * 1e3;
    }
    return it;
  }

  void replay(Spans& spans, std::uint64_t seed, Layers* l) override {
    construct_replay(spans, seed, l);
    cache_replay(cache_dir(), cfg_.work_dir + "/replay", spans, seed, l);
  }

 private:
  struct Entry {
    armbar::model::ConcurrentProgram prog;
    /// Standalone barriers of the hand-weakened template (strong lock
    /// templates only): the Table-3 parity bar the optimizer must clear.
    std::int64_t weakened_barriers = -1;
  };

  std::string cache_dir() const { return cfg_.work_dir + "/cache"; }

  /// barrier_opt's corpus minus fuzz seed 3, plus kLockShapePrograms
  /// lock-handoff skeletons from the fuzz generator.
  void build_corpus() {
    namespace lv = armbar::lockver;
    corpus_.clear();
    for (const armbar::litmus::Table1Shape& s : armbar::litmus::table1_shapes()) {
      Entry e;
      e.prog = s.model_prog;
      e.prog.name = s.name;
      corpus_.push_back(std::move(e));
    }
    for (lv::LockFamily f :
         {lv::LockFamily::kTicket, lv::LockFamily::kCna, lv::LockFamily::kFfwd}) {
      Entry e;
      lv::LockScenario strong = lv::make_scenario(f, lv::Strength::kStrong);
      e.prog = strong.prog;
      e.prog.name = strong.name;
      e.weakened_barriers = armbar::opt::count_standalone_barriers(
          lv::make_scenario(f, lv::Strength::kWeakened).prog);
      corpus_.push_back(std::move(e));
    }
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      if (seed == 3) continue;
      corpus_.push_back({armbar::fuzz::generate(seed), -1});
    }
    armbar::fuzz::GenOptions locks;
    locks.lock_shape_pct = 100;
    for (std::uint64_t seed = 1; seed <= kLockShapePrograms; ++seed) {
      Entry e{armbar::fuzz::generate(seed, locks), -1};
      e.prog.name = "lock-shape-" + std::to_string(seed);
      corpus_.push_back(std::move(e));
    }
  }

  Config cfg_;
  std::vector<Entry> corpus_;
  bool have_digest_ = false;
  std::uint64_t digest_ = 0;
};

}  // namespace

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

const std::vector<std::string>& sweep_experiments() { return kSweep; }
const std::vector<std::string>& opt_locks_experiments() { return kOptLocks; }

std::unique_ptr<Workload> make_workload(const Config& cfg) {
  if (cfg.workload == "sweep_cold") return std::make_unique<Sweep>(cfg, false);
  if (cfg.workload == "sweep_warm_json")
    return std::make_unique<Sweep>(cfg, true);
  if (cfg.workload == "fuzz_campaign")
    return std::make_unique<FuzzCampaign>(cfg);
  if (cfg.workload == "opt_locks") return std::make_unique<OptLocks>(cfg);
  return nullptr;
}

}  // namespace perfbench
