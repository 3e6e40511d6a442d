// armbar-fuzz: differential fuzzing campaign driver (ISSUE 4).
//
// Generates seeded random litmus programs, enumerates each one's allowed
// final-state set on the axiomatic reference model, runs the same programs
// on the timing simulator across a platform × fault-plan × skew grid, and
// flags any simulator outcome outside the model's set (plus invariant
// violations, hangs and timeouts). Every failing seed is delta-debugged to
// a minimal case (--minimize, on by default) and written as a
// self-contained armbar.repro/v1 bundle that `armbar-repro <path>` replays
// bit-exactly.
//
//   armbar-fuzz --seed-start 1 --seed-count 1000            # campaign
//   armbar-fuzz --seed-count 50 --mutation drop-rel-acq     # planted bug
//   armbar-fuzz --seed-count 200 --json FUZZ.json           # perf trajectory
//
// The summary reports campaign throughput (runs/sec) and the total time
// spent in the reference model, and --json emits the same numbers as an
// armbar.bench.report/v2 document so BENCH_*.json trajectories cover the
// checker (ISSUE 5). --model-naive switches the model to the pre-POR
// enumerator — the oracle baseline the speedup is measured against.
//
// Exit status: 0 zero failures, 1 failures found (bundles written), 2 bad
// usage or unwritable --out-dir/--json.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/bundle.hpp"
#include "fuzz/diff.hpp"
#include "fuzz/gen.hpp"
#include "fuzz/minimize.hpp"
#include "prof/export.hpp"
#include "prof/prof.hpp"
#include "runner/arg_parser.hpp"
#include "runner/thread_pool.hpp"
#include "sim/platform.hpp"
#include "trace/json_report.hpp"

namespace {

using armbar::fuzz::DiffOptions;
using armbar::fuzz::DiffResult;

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

/// One fuzzed seed's outcome, filled by a pool worker.
struct SeedResult {
  std::uint64_t seed = 0;
  bool failed = false;
  std::string kind;          ///< first failure kind
  std::string summary;
  std::string bundle_path;   ///< written only for failures
  std::uint64_t runs = 0;
  std::uint64_t model_ns = 0;          ///< reference-model wall time
  std::uint64_t model_candidates = 0;  ///< executions the checker examined
  std::uint32_t instructions_before = 0;
  std::uint32_t instructions_after = 0;
};

}  // namespace

int main(int argc, char** argv) {
  armbar::runner::ArgParser args(
      "armbar-fuzz",
      "Differential fuzzing of the timing simulator against the axiomatic "
      "ARMv8 reference model. Failing seeds are minimized and written as "
      "armbar.repro/v1 bundles (replay: armbar-repro <path>).");
  args.add_int("seed-start", "N", "first generator seed", 1, 1,
               std::numeric_limits<std::int64_t>::max() / 2);
  args.add_int("seed-count", "N", "number of consecutive seeds to fuzz", 100,
               1, 10'000'000);
  args.add_int("jobs", "N", "parallel seeds (0 = hardware threads)", 0, 0,
               4096);
  args.add_int("chaos-seeds", "N",
               "chaos fault plans per program (plus one clean plan)", 8, 0,
               64);
  args.add_value("platforms", "A,B",
                 "comma-separated platform presets (default: all)");
  args.add_value("skews", "N,M", "comma-separated start skews", "0,7");
  args.add_value("mutation", "M",
                 "plant a simulator-side bug: none|drop-dmb-st|drop-dmb-ld|"
                 "drop-dmb-full|drop-rel-acq",
                 "none");
  args.add_flag("no-minimize", "skip delta-debugging of failing cases");
  args.add_flag("model-naive",
                "use the pre-POR exhaustive model enumerator (the oracle "
                "baseline; slower, identical outcome sets)");
  args.add_value("out-dir", "DIR", "where repro bundles are written", ".");
  args.add_value("json", "PATH",
                 "write the campaign summary as armbar.bench.report/v2", "");
  args.add_int("max-threads", "N", "generator: threads per program",
               armbar::fuzz::GenOptions{}.max_threads, 2, 8);
  args.add_int("max-ops", "N", "generator: memory/barrier ops per thread",
               armbar::fuzz::GenOptions{}.max_ops_per_thread, 1, 32);
  args.add_int("lock-shape-pct", "N",
               "generator: percent of cases drawn as lock-handoff skeletons "
               "(0 keeps pinned seeds bit-identical)",
               armbar::fuzz::GenOptions{}.lock_shape_pct, 0, 100);
  args.add_flag("profile",
                "enable the host-side self-profiler for the campaign; adds "
                "a host_prof section to --json (report-only)");

  std::string err;
  if (!args.parse(argc, argv, &err)) {
    std::fprintf(stderr, "armbar-fuzz: %s\n", err.c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fputs(args.help().c_str(), stdout);
    return 0;
  }
  if (!args.positionals().empty()) {
    std::fprintf(stderr, "armbar-fuzz: unexpected argument '%s'\n",
                 args.positionals().front().c_str());
    return 2;
  }
  const bool profile = args.given("profile");

  DiffOptions base = DiffOptions::defaults(
      static_cast<std::uint32_t>(args.integer("chaos-seeds")));
  if (args.given("platforms")) {
    base.platforms = split_csv(args.str("platforms"));
    if (base.platforms.empty()) {
      std::fprintf(stderr, "armbar-fuzz: --platforms list is empty\n");
      return 2;
    }
    for (const std::string& p : base.platforms)
      if (!armbar::sim::known_platform(p, &err)) {
        std::fprintf(stderr, "armbar-fuzz: --platforms: %s\n", err.c_str());
        return 2;
      }
  }
  if (args.given("skews")) {
    base.skews.clear();
    for (const std::string& s : split_csv(args.str("skews"))) {
      std::int64_t skew = 0;
      if (!armbar::runner::parse_int_option("skews", s, 0, UINT32_MAX, &skew,
                                            &err)) {
        std::fprintf(stderr, "armbar-fuzz: %s\n", err.c_str());
        return 2;
      }
      base.skews.push_back(static_cast<std::uint32_t>(skew));
    }
    if (base.skews.empty()) {
      std::fprintf(stderr, "armbar-fuzz: --skews list is empty\n");
      return 2;
    }
  }
  if (!armbar::fuzz::mutation_from_string(args.str("mutation"),
                                          &base.mutation)) {
    std::fprintf(stderr, "armbar-fuzz: unknown mutation '%s'\n",
                 args.str("mutation").c_str());
    return 2;
  }
  base.model.naive = args.given("model-naive");

  armbar::fuzz::GenOptions gen;
  gen.max_threads = static_cast<std::uint32_t>(args.integer("max-threads"));
  gen.max_ops_per_thread = static_cast<std::uint32_t>(args.integer("max-ops"));
  gen.lock_shape_pct =
      static_cast<std::uint32_t>(args.integer("lock-shape-pct"));

  const std::uint64_t seed_start =
      static_cast<std::uint64_t>(args.integer("seed-start"));
  const std::uint64_t seed_count =
      static_cast<std::uint64_t>(args.integer("seed-count"));
  const bool do_minimize = !args.given("no-minimize");
  const std::string out_dir = args.str("out-dir");

  std::size_t jobs = static_cast<std::size_t>(args.integer("jobs"));
  if (jobs == 0) jobs = armbar::runner::ThreadPool::hardware_jobs();

  std::printf("armbar-fuzz: seeds [%" PRIu64 ", %" PRIu64 ") across %zu "
              "platforms x %zu plans x %zu skews, mutation %s, model %s, "
              "%zu jobs\n",
              seed_start, seed_start + seed_count, base.platforms.size(),
              base.plans.size(), base.skews.size(),
              armbar::fuzz::to_string(base.mutation),
              base.model.naive ? "naive" : "por", jobs);

  std::vector<SeedResult> results(seed_count);
  std::mutex io_mu;
  std::string io_err;  // first bundle-write failure, reported at the end

  const auto fuzz_one = [&](std::size_t i) {
    SeedResult& r = results[i];
    r.seed = seed_start + i;
    armbar::model::ConcurrentProgram prog =
        armbar::fuzz::generate(r.seed, gen);
    DiffOptions opts = base;
    DiffResult diff = armbar::fuzz::run_diff(prog, opts);
    r.runs = diff.runs;
    r.model_ns = diff.model_ns;
    r.model_candidates = diff.model_candidates;
    if (diff.ok()) return;

    r.failed = true;
    r.kind = diff.failures.front().kind;
    r.instructions_before = armbar::fuzz::total_instructions(prog);
    if (do_minimize) {
      const auto stats = armbar::fuzz::minimize(
          &prog, &opts, armbar::fuzz::same_kind_predicate(r.kind));
      r.instructions_after = stats.instructions_after;
      diff = armbar::fuzz::run_diff(prog, opts);  // bundle the minimal case
    } else {
      r.instructions_after = r.instructions_before;
    }
    const armbar::fuzz::ReproBundle bundle =
        armbar::fuzz::make_bundle(prog, opts, r.seed, diff);
    r.summary = diff.summary();
    r.bundle_path =
        out_dir + "/fuzz-" + std::to_string(r.seed) + ".repro.json";
    std::string werr;
    if (!armbar::fuzz::write_bundle(r.bundle_path, bundle, &werr)) {
      std::lock_guard<std::mutex> lock(io_mu);
      if (io_err.empty()) io_err = r.bundle_path + ": " + werr;
    }
  };

  if (profile) {
    armbar::prof::reset();
    armbar::prof::set_enabled(true);
  }
  const auto campaign_start = std::chrono::steady_clock::now();
  if (jobs <= 1) {
    for (std::size_t i = 0; i < results.size(); ++i) fuzz_one(i);
  } else {
    armbar::runner::ThreadPool pool(jobs);
    pool.parallel_for(results.size(), fuzz_one);
  }
  const double campaign_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    campaign_start)
          .count();
  armbar::prof::Snapshot prof_snap;
  if (profile) {
    armbar::prof::set_enabled(false);
    prof_snap = armbar::prof::snapshot();  // pool joined: threads quiescent
  }

  std::uint64_t total_runs = 0;
  std::uint64_t failures = 0;
  std::uint64_t model_ns = 0;
  std::uint64_t model_candidates = 0;
  for (const SeedResult& r : results) {
    total_runs += r.runs;
    model_ns += r.model_ns;
    model_candidates += r.model_candidates;
    if (!r.failed) continue;
    ++failures;
    std::printf("seed %" PRIu64 ": %s (%u -> %u instructions)\n", r.seed,
                r.kind.c_str(), r.instructions_before, r.instructions_after);
    std::printf("  %s\n", r.summary.c_str());
    std::printf("  bundle: %s  (replay: armbar-repro %s)\n",
                r.bundle_path.c_str(), r.bundle_path.c_str());
  }
  const double model_s = static_cast<double>(model_ns) * 1e-9;
  const double runs_per_sec =
      campaign_s > 0 ? static_cast<double>(total_runs) / campaign_s : 0;
  const double execs_per_sec =
      model_s > 0 ? static_cast<double>(model_candidates) / model_s : 0;
  std::printf("armbar-fuzz: %" PRIu64 " seeds, %" PRIu64 " simulator runs, "
              "%" PRIu64 " failing seed%s\n",
              seed_count, total_runs, failures, failures == 1 ? "" : "s");
  std::printf("armbar-fuzz: %.1f s wall (%.0f runs/sec), model-check "
              "%.3f s total (%" PRIu64 " executions, %.0f/sec, engine %s)\n",
              campaign_s, runs_per_sec, model_s, model_candidates,
              execs_per_sec, base.model.naive ? "naive" : "por");
  if (prof_snap.has_data()) {
    const armbar::prof::PhaseStats& ph_gen =
        prof_snap.phase(armbar::prof::Phase::kFuzzGenerate);
    const armbar::prof::PhaseStats& ph_diff =
        prof_snap.phase(armbar::prof::Phase::kFuzzDiff);
    const armbar::prof::PhaseStats& ph_model =
        prof_snap.phase(armbar::prof::Phase::kModelEnumerate);
    std::printf("armbar-fuzz: host profile (report-only): generate %.1f ms, "
                "diff %.1f ms (model %.1f ms), %u thread%s\n",
                static_cast<double>(ph_gen.total_ns) / 1e6,
                static_cast<double>(ph_diff.total_ns) / 1e6,
                static_cast<double>(ph_model.total_ns) / 1e6,
                prof_snap.threads, prof_snap.threads == 1 ? "" : "s");
  }

  if (args.given("json") && !args.str("json").empty()) {
    armbar::trace::ReportBuilder report(
        "armbar_fuzz", "Differential fuzz campaign: simulator vs model");
    report.add_param("seed_start", std::to_string(seed_start));
    report.add_param("seed_count", std::to_string(seed_count));
    report.add_param("mutation", armbar::fuzz::to_string(base.mutation));
    report.add_param("model_engine", base.model.naive ? "naive" : "por");
    report.add_param("jobs", std::to_string(jobs));
    report.add_metric("fuzz_seeds", static_cast<double>(seed_count));
    report.add_metric("sim_runs", static_cast<double>(total_runs));
    report.add_metric("failing_seeds", static_cast<double>(failures));
    report.add_metric("campaign_runs_per_sec", runs_per_sec);
    report.add_metric("model_check_ms", model_s * 1e3);
    report.add_metric("model_candidates",
                      static_cast<double>(model_candidates));
    report.add_metric("model_execs_per_sec", execs_per_sec);
    report.add_check("campaign found no differential failures",
                     failures == 0);
    if (prof_snap.has_data())
      report.set_host_prof(armbar::prof::host_prof_json(prof_snap));
    for (const SeedResult& r : results) {
      if (!r.failed) continue;
      report.add_quarantine("fuzz-" + std::to_string(r.seed), "failed",
                            r.kind, r.summary, armbar::trace::Json(),
                            r.bundle_path);
    }
    if (!report.write(args.str("json"))) {
      std::fprintf(stderr, "armbar-fuzz: cannot write --json %s\n",
                   args.str("json").c_str());
      return 2;
    }
  }

  if (!io_err.empty()) {
    std::fprintf(stderr, "armbar-fuzz: failed to write bundle: %s\n",
                 io_err.c_str());
    return 2;
  }
  return failures == 0 ? 0 : 1;
}
