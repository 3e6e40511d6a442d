// Differential fuzzing experiment (ISSUE 4): a bounded, fixed-seed slice of
// the armbar-fuzz campaign, run inside the bench engine so CI gets a
// quantitative "simulator ⊆ model" check on every armbar-bench sweep.
//
// Each seed's differential run is one ctx.cached() point: generate the
// program, enumerate the model's allowed final-state set, run the same
// program across the platform × fault-plan × skew grid, and record whether
// any simulator outcome escaped the model's set (or the machine verifier /
// watchdog fired). A failing seed is minimized, captured as a repro bundle
// next to the report, attached to the quarantine entry via
// ctx.note_repro_bundle(), and the experiment throws — the report then says
// exactly how to replay: `armbar-repro <bundle>`.
//
// The acceptance-grade campaign (1,000 seeds, 8 chaos plans) runs through
// the standalone armbar-fuzz CLI; this slice keeps the same shape but small
// enough for the "run all benches" loop.
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/table.hpp"
#include "experiment_util.hpp"
#include "fuzz/bundle.hpp"
#include "fuzz/diff.hpp"
#include "fuzz/gen.hpp"
#include "fuzz/minimize.hpp"

using namespace armbar;
using bench::json_num;
using runner::ExperimentContext;
using runner::Fingerprint;

ARMBAR_EXPERIMENT(fuzz_differential, "Fuzz",
                  "differential fuzzing: simulator vs axiomatic ARMv8 model") {
  constexpr std::uint64_t kSeedStart = 1;
  constexpr std::uint64_t kSeedCount = 24;
  constexpr std::uint32_t kChaosSeeds = 4;

  const fuzz::DiffOptions grid = fuzz::DiffOptions::defaults(kChaosSeeds);
  ctx.param("seeds", std::to_string(kSeedStart) + ".." +
                         std::to_string(kSeedStart + kSeedCount - 1));
  ctx.param("grid", std::to_string(grid.platforms.size()) + " platforms x " +
                        std::to_string(grid.plans.size()) + " plans x " +
                        std::to_string(grid.skews.size()) + " skews");

  // Checker/campaign throughput (ISSUE 5). Wall-clock must never enter a
  // cached row (it would poison the order-independent points digest), so
  // the timings accumulate in side atomics that only fresh computations
  // touch — on a fully warm cache the throughput metrics are simply
  // omitted from the report.
  std::atomic<std::uint64_t> fresh_model_ns{0};
  std::atomic<std::uint64_t> fresh_sim_ns{0};
  std::atomic<std::uint64_t> fresh_candidates{0};
  std::atomic<std::uint64_t> fresh_runs{0};

  const auto rows = ctx.map(kSeedCount, [&](std::size_t i) {
    const std::uint64_t seed = kSeedStart + i;
    Fingerprint key = ExperimentContext::key();
    // v2: ISSUE 5 raised the generator defaults (every seed maps to a new
    // program) and made the POR engine the default checker.
    key.mix("fuzz-differential/v2")
        .mix(seed)
        .mix(kChaosSeeds)
        .mix(static_cast<std::uint32_t>(grid.skews.size()));
    return ctx.cached(key, "fuzz seed " + std::to_string(seed), [&] {
      fuzz::GenOptions gen;
      model::ConcurrentProgram prog = fuzz::generate(seed, gen);
      fuzz::DiffOptions opts = grid;
      fuzz::DiffResult diff = fuzz::run_diff(prog, opts);
      fresh_model_ns.fetch_add(diff.model_ns, std::memory_order_relaxed);
      fresh_sim_ns.fetch_add(diff.sim_ns, std::memory_order_relaxed);
      fresh_candidates.fetch_add(diff.model_candidates,
                                 std::memory_order_relaxed);
      fresh_runs.fetch_add(diff.runs, std::memory_order_relaxed);

      trace::Json row = trace::Json::object();
      row.set("seed", std::to_string(seed));
      row.set("runs", static_cast<double>(diff.runs));
      row.set("allowed", static_cast<double>(diff.allowed.size()));
      row.set("observed", static_cast<double>(diff.observed.size()));
      row.set("failed", !diff.ok());
      if (!diff.ok()) {
        const std::string kind = diff.failures.front().kind;
        row.set("kind", kind);
        row.set("detail", diff.failures.front().detail);
        // Minimize before bundling so the cached value (and thus the bundle
        // rewritten on every cache hit) is already the minimal case.
        fuzz::minimize(&prog, &opts, fuzz::same_kind_predicate(kind));
        const fuzz::DiffResult min_diff = fuzz::run_diff(prog, opts);
        row.set("bundle",
                fuzz::bundle_to_json(
                    fuzz::make_bundle(prog, opts, seed, min_diff)));
      }
      return row;
    });
  });

  TextTable t("Differential fuzz — simulator outcomes vs model allowed sets");
  t.header({"seed", "runs", "allowed", "observed", "verdict"});
  std::uint64_t total_runs = 0;
  std::uint64_t failing = 0;
  std::string first_detail;
  std::string first_bundle_path;
  for (const trace::Json& row : rows) {
    total_runs += static_cast<std::uint64_t>(json_num(row, "runs"));
    const bool failed = bench::json_bool(row, "failed");
    t.row({row.find("seed")->str(), TextTable::num(json_num(row, "runs"), 0),
           TextTable::num(json_num(row, "allowed"), 0),
           TextTable::num(json_num(row, "observed"), 0),
           failed ? row.find("kind")->str() : "ok"});
    if (!failed) continue;
    ++failing;
    const std::string path =
        "fuzz_differential-seed" + row.find("seed")->str() + ".repro.json";
    if (trace::write_file(path, row.find("bundle")->dump(1) + "\n")) {
      if (first_bundle_path.empty()) {
        first_bundle_path = path;
        ctx.note_repro_bundle(path);
      }
      std::printf("  repro bundle: %s  (replay: armbar-repro %s)\n",
                  path.c_str(), path.c_str());
    }
    if (first_detail.empty()) first_detail = row.find("detail")->str();
  }
  t.note("check direction is sim subset-of model: the simulator may be");
  t.note("stronger than the architecture, never weaker");
  t.print();

  ctx.metric("fuzz_seeds", static_cast<double>(kSeedCount));
  ctx.metric("sim_runs", static_cast<double>(total_runs));
  ctx.metric("failing_seeds", static_cast<double>(failing));
  if (const std::uint64_t mns = fresh_model_ns.load(); mns > 0) {
    ctx.metric("model_check_ms", static_cast<double>(mns) * 1e-6);
    ctx.metric("model_execs_per_sec",
               static_cast<double>(fresh_candidates.load()) /
                   (static_cast<double>(mns) * 1e-9));
  }
  if (const std::uint64_t sns = fresh_sim_ns.load(); sns > 0)
    ctx.metric("campaign_runs_per_sec",
               static_cast<double>(fresh_runs.load()) /
                   (static_cast<double>(sns) * 1e-9));
  ctx.check(failing == 0,
            "every simulator outcome lies inside the model's allowed set");
  if (failing != 0)
    throw std::runtime_error(
        "differential mismatch: " + first_detail +
        (first_bundle_path.empty()
             ? ""
             : " (replay: armbar-repro " + first_bundle_path + ")"));
}
