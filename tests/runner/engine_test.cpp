// Engine: filter resolution, deterministic sweeps at any job count, cache
// warm-up, cached metrics, repeat determinism, abort isolation, report
// assembly.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "runner/engine.hpp"
#include "runner/experiment.hpp"
#include "simprog/abstract_model.hpp"

namespace armbar::runner {
namespace {

// ---- bodies for the local registry (function pointers, no captures) ----

std::atomic<int> g_beta_runs{0};

void body_alpha_squares(ExperimentContext& ctx) {
  // 16 cached points; sum of squares 0..15 = 1240.
  auto vals = ctx.map(16, [&](std::size_t i) {
    Fingerprint k = ExperimentContext::key();
    k.mix("engine_test/alpha").mix(static_cast<std::uint64_t>(i));
    return ctx
        .cached(k, "square " + std::to_string(i),
                [&] { return trace::Json(static_cast<double>(i * i)); })
        .number();
  });
  double total = 0;
  for (double v : vals) total += v;
  ctx.metric("total", total);
  ctx.param("points", "16");
  ctx.check(total == 1240.0, "sum of squares is 1240");
}

void body_alpha_cubes(ExperimentContext& ctx) {
  auto vals = ctx.map(8, [&](std::size_t i) {
    Fingerprint k = ExperimentContext::key();
    k.mix("engine_test/cubes").mix(static_cast<std::uint64_t>(i));
    return ctx
        .cached(k, "cube " + std::to_string(i),
                [&] { return trace::Json(static_cast<double>(i * i * i)); })
        .number();
  });
  ctx.check(vals[2] == 8.0, "2^3 == 8");
}

void body_beta_counts(ExperimentContext& ctx) {
  g_beta_runs.fetch_add(1);
  ctx.check(true, "beta ran");
}

void body_gamma_aborts(ExperimentContext& ctx) {
  ctx.fatal("CHECKSUM FAILURE injected");
}

void body_delta_fails(ExperimentContext& ctx) {
  ctx.check(false, "this claim is false");
}

std::atomic<int> g_drift_calls{0};

void body_epsilon_drifts(ExperimentContext& ctx) {
  // One cached point whose computed value differs on every call: a
  // nondeterministic experiment the --repeat audit must catch.
  Fingerprint k = ExperimentContext::key();
  k.mix("engine_test/drift");
  ctx.cached(k, "drift", [] {
    return trace::Json(static_cast<double>(g_drift_calls.fetch_add(1)));
  });
}

void body_instrumented_pairs(ExperimentContext& ctx) {
  // Six cross-node Machine runs; each point's counters and histograms ride
  // in its cache entry.
  auto rates = ctx.map(6, [&](std::size_t i) {
    const auto iters = static_cast<std::uint32_t>(16 + 4 * i);
    Fingerprint k = ExperimentContext::key();
    k.mix("engine_test/pairs").mix(iters);
    return ctx
        .cached_instrumented(
            k, "pair " + std::to_string(iters),
            [&](trace::Tracer* t, trace::MetricsRegistry* m) {
              const sim::Program p = simprog::make_store_store_model(
                  simprog::OrderChoice::kDmbFull, simprog::BarrierLoc::kLoc1,
                  2, iters, simprog::kBufA, simprog::kBufB);
              return trace::Json(simprog::run_pair(sim::kunpeng916(), p, iters,
                                                   0, 32, t, m));
            })
        .number();
  });
  bool all_ran = true;
  for (double r : rates) all_ran = all_ran && r > 0;
  ctx.check(all_ran, "every pair ran");
}

Registry make_registry() {
  Registry r;
  r.add({"alpha_squares", "Test A1", "sums squares", &body_alpha_squares});
  r.add({"alpha_cubes", "Test A2", "sums cubes", &body_alpha_cubes});
  r.add({"beta_counts", "Test B", "counts runs", &body_beta_counts});
  r.add({"gamma_aborts", "Test C", "always aborts", &body_gamma_aborts});
  r.add({"delta_fails", "Test D", "fails a check", &body_delta_fails});
  r.add({"instrumented_pairs", "Test E", "cross-node Machine runs",
         &body_instrumented_pairs});
  r.add({"epsilon_drifts", "Test F", "a different value every call",
         &body_epsilon_drifts});
  return r;
}

EngineOptions base_opts() {
  EngineOptions o;
  o.cache_enabled = false;  // most tests want pure recompute
  o.jobs = 1;
  return o;
}

TEST(Engine, FilterGlobSelectsAndSorts) {
  Registry r = make_registry();
  EngineOptions o = base_opts();
  o.filter = "alpha*";
  auto res = Engine(r, o).run();
  EXPECT_TRUE(res.ok);
  ASSERT_EQ(res.outcomes.size(), 2u);
  EXPECT_EQ(res.outcomes[0].name, "alpha_cubes");  // name order
  EXPECT_EQ(res.outcomes[1].name, "alpha_squares");
}

TEST(Engine, CommaSeparatedFilter) {
  Registry r = make_registry();
  EngineOptions o = base_opts();
  o.filter = "beta*,alpha_squares";
  auto res = Engine(r, o).run();
  EXPECT_TRUE(res.ok);
  ASSERT_EQ(res.outcomes.size(), 2u);
  EXPECT_EQ(res.outcomes[0].name, "alpha_squares");
  EXPECT_EQ(res.outcomes[1].name, "beta_counts");
}

TEST(Engine, EmptyMatchIsAFailure) {
  Registry r = make_registry();
  EngineOptions o = base_opts();
  o.filter = "nonexistent*";
  auto res = Engine(r, o).run();
  EXPECT_FALSE(res.ok);
  EXPECT_TRUE(res.outcomes.empty());
}

TEST(Engine, ParallelAndSerialAreBitIdentical) {
  // The determinism claim at the heart of the runner: jobs=1 and jobs=8
  // produce the same per-experiment points digests and verdicts.
  Registry r = make_registry();

  EngineOptions serial = base_opts();
  serial.filter = "alpha*";
  auto res1 = Engine(r, serial).run();

  EngineOptions parallel = base_opts();
  parallel.filter = "alpha*";
  parallel.jobs = 8;
  auto res8 = Engine(r, parallel).run();

  EXPECT_EQ(res8.jobs, 8u);
  ASSERT_EQ(res1.outcomes.size(), res8.outcomes.size());
  for (std::size_t i = 0; i < res1.outcomes.size(); ++i) {
    EXPECT_EQ(res1.outcomes[i].name, res8.outcomes[i].name);
    EXPECT_EQ(res1.outcomes[i].ok, res8.outcomes[i].ok);
    EXPECT_EQ(res1.outcomes[i].points, res8.outcomes[i].points);
    EXPECT_EQ(res1.outcomes[i].points_digest, res8.outcomes[i].points_digest)
        << res1.outcomes[i].name;
  }
}

TEST(Engine, RunTwiceDigestsStable) {
  Registry r = make_registry();
  EngineOptions o = base_opts();
  o.filter = "alpha_squares";
  auto a = Engine(r, o).run();
  auto b = Engine(r, o).run();
  ASSERT_EQ(a.outcomes.size(), 1u);
  ASSERT_EQ(b.outcomes.size(), 1u);
  EXPECT_EQ(a.outcomes[0].points_digest, b.outcomes[0].points_digest);
  EXPECT_NE(a.outcomes[0].points_digest, 0u);
}

TEST(Engine, RepeatRunsBodyNTimesAndStaysDeterministic) {
  Registry r = make_registry();
  g_beta_runs.store(0);
  EngineOptions o = base_opts();
  o.filter = "beta_counts";
  o.repeat = 3;
  auto res = Engine(r, o).run();
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(g_beta_runs.load(), 3);
}

TEST(Engine, RepeatSimulatesEveryRepetitionWithTheCacheOn) {
  // Repetitions after the first must not read the entries the first one
  // stored, or the audit compares cached values with themselves.
  Registry r = make_registry();
  const std::string dir = ::testing::TempDir() + "armbar_engine_cache_drift";
  std::filesystem::remove_all(dir);
  EngineOptions o = base_opts();
  o.filter = "epsilon_drifts";
  o.repeat = 2;
  o.cache_enabled = true;
  o.cache_dir = dir;
  g_drift_calls.store(0);
  auto res = Engine(r, o).run();
  ASSERT_EQ(res.outcomes.size(), 1u);
  EXPECT_FALSE(res.outcomes[0].ok);
  EXPECT_TRUE(res.outcomes[0].kind.empty());  // a failed check, no error
  EXPECT_EQ(g_drift_calls.load(), 2);
  EXPECT_EQ(res.cache_stats.hits, 0u);
}

TEST(Engine, ColdThenWarmCacheServesEveryPoint) {
  Registry r = make_registry();
  const std::string dir = ::testing::TempDir() + "armbar_engine_cache_squares";
  std::filesystem::remove_all(dir);  // prior ctest runs leave entries behind

  EngineOptions cold = base_opts();
  cold.filter = "alpha_squares";
  cold.cache_enabled = true;
  cold.cache_dir = dir;
  auto first = Engine(r, cold).run();
  ASSERT_EQ(first.outcomes.size(), 1u);
  EXPECT_EQ(first.outcomes[0].cache_hits, 0u);
  EXPECT_EQ(first.cache_stats.stores, 16u);

  auto second = Engine(r, cold).run();
  ASSERT_EQ(second.outcomes.size(), 1u);
  EXPECT_EQ(second.outcomes[0].cache_hits, 16u);
  EXPECT_EQ(second.cache_stats.misses, 0u);
  // Cached and recomputed sweeps digest identically.
  EXPECT_EQ(first.outcomes[0].points_digest, second.outcomes[0].points_digest);
}

/// A single-match report's counters and histograms: every metric except
/// the host- and cache-dependent ones, then the histogram section.
std::string counters_and_histograms(const trace::Json& report) {
  trace::Json metrics = trace::Json::object();
  for (const auto& [k, v] : report.find("metrics")->members())
    if (k != "wall_ms" && k != "cache_point_hits") metrics.set(k, v);
  return metrics.dump() + report.find("histograms")->dump();
}

TEST(Engine, CachedMetricsEqualFreshOnes) {
  Registry r = make_registry();
  const std::string dir = ::testing::TempDir() + "armbar_engine_cache_metrics";
  std::filesystem::remove_all(dir);

  EngineOptions fresh = base_opts();  // --no-cache --json
  fresh.filter = "instrumented_pairs";
  fresh.collect_metrics = true;
  const auto ref = Engine(r, fresh).run();
  ASSERT_TRUE(ref.ok);
  ASSERT_GE(ref.report.find("histograms")->size(), 3u);

  EngineOptions cold = base_opts();  // primes the cache without --json
  cold.filter = "instrumented_pairs";
  cold.cache_enabled = true;
  cold.cache_dir = dir;
  const auto primed = Engine(r, cold).run();
  EXPECT_EQ(primed.cache_stats.stores, 6u);
  EXPECT_EQ(primed.report.find("histograms")->size(), 0u);

  for (const std::size_t jobs : {1u, 4u}) {
    EngineOptions warm = cold;
    warm.collect_metrics = true;
    warm.jobs = jobs;
    const auto res = Engine(r, warm).run();
    ASSERT_EQ(res.outcomes.size(), 1u);
    EXPECT_EQ(res.outcomes[0].points, 6u);
    EXPECT_EQ(res.outcomes[0].cache_hits, res.outcomes[0].points)
        << "jobs " << jobs;
    EXPECT_EQ(res.cache_stats.stores, 0u);
    EXPECT_EQ(counters_and_histograms(res.report),
              counters_and_histograms(ref.report))
        << "jobs " << jobs;
    EXPECT_EQ(res.outcomes[0].points_digest, ref.outcomes[0].points_digest);
  }
}

/// A flat v3 "metrics" member in the per-core shape entry schema v2 had,
/// every number under core 0.
trace::Json per_core(const trace::Json& flat) {
  trace::Json out = trace::Json::object();
  for (const char* section : {"counters", "histograms"}) {
    trace::Json names = trace::Json::object();
    for (const auto& [name, v] : flat.find(section)->members()) {
      trace::Json cores = trace::Json::object();
      cores.set("0", v);
      names.set(name, std::move(cores));
    }
    out.set(section, std::move(names));
  }
  return out;
}

TEST(Engine, V1EntriesAreEvictedAndRecomputed) {
  // Entries of an older schema are stale: a v1 entry (from before metrics
  // were cached) and a v2 entry with per-core metrics are both evicted,
  // and the recomputed values and metrics equal a --no-cache run's.
  Registry r = make_registry();
  EngineOptions fresh = base_opts();  // --no-cache --json
  fresh.filter = "instrumented_pairs";
  fresh.collect_metrics = true;
  const auto ref = Engine(r, fresh).run();
  ASSERT_TRUE(ref.ok);

  for (const std::string old : {"armbar.cache.entry/v1", "armbar.cache.entry/v2"}) {
    SCOPED_TRACE(old);
    const std::string dir = ::testing::TempDir() + "armbar_engine_cache_old";
    std::filesystem::remove_all(dir);
    EngineOptions o = fresh;
    o.cache_enabled = true;
    o.cache_dir = dir;
    ASSERT_EQ(Engine(r, o).run().cache_stats.stores, 6u);

    int rewritten = 0;
    for (const auto& f : std::filesystem::directory_iterator(dir)) {
      std::stringstream text;
      text << std::ifstream(f.path()).rdbuf();
      trace::Json doc = trace::Json::parse(text.str());
      ASSERT_EQ(doc.find("schema")->str(), kCacheEntrySchema);
      doc.set("schema", old);
      if (old == "armbar.cache.entry/v2")
        doc.set("metrics", per_core(*doc.find("metrics")));
      std::ofstream(f.path(), std::ios::trunc) << doc.dump(1) << "\n";
      ++rewritten;
    }
    ASSERT_EQ(rewritten, 6);

    const auto res = Engine(r, o).run();
    EXPECT_EQ(res.cache_stats.evictions, 6u);
    EXPECT_EQ(res.cache_stats.hits, 0u);
    EXPECT_EQ(res.cache_stats.stores, 6u);
    EXPECT_EQ(counters_and_histograms(res.report),
              counters_and_histograms(ref.report));
    EXPECT_EQ(res.outcomes[0].points_digest, ref.outcomes[0].points_digest);

    const auto again = Engine(r, o).run();  // the recomputed entries are v3
    EXPECT_EQ(again.outcomes[0].cache_hits, 6u);
    EXPECT_EQ(again.cache_stats.evictions, 0u);
    EXPECT_EQ(counters_and_histograms(again.report),
              counters_and_histograms(ref.report));
  }
}

TEST(Engine, AbortIsolatesToOneExperiment) {
  Registry r = make_registry();
  EngineOptions o = base_opts();
  o.filter = "beta*,gamma*";
  auto res = Engine(r, o).run();
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.outcomes.size(), 2u);
  EXPECT_TRUE(res.outcomes[0].ok);  // beta_counts unaffected
  EXPECT_FALSE(res.outcomes[1].ok);
  EXPECT_TRUE(res.outcomes[1].aborted);
}

TEST(Engine, FailedCheckFailsTheRun) {
  Registry r = make_registry();
  EngineOptions o = base_opts();
  o.filter = "delta_fails";
  auto res = Engine(r, o).run();
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.outcomes.size(), 1u);
  EXPECT_FALSE(res.outcomes[0].ok);
  EXPECT_FALSE(res.outcomes[0].aborted);
}

TEST(Engine, SingleMatchReportUsesExperimentName) {
  Registry r = make_registry();
  EngineOptions o = base_opts();
  o.filter = "alpha_squares";
  auto res = Engine(r, o).run();
  const trace::Json* bench = res.report.find("bench");
  ASSERT_NE(bench, nullptr);
  EXPECT_EQ(bench->str(), "alpha_squares");
}

TEST(Engine, MultiMatchReportIsConsolidated) {
  Registry r = make_registry();
  EngineOptions o = base_opts();
  o.filter = "alpha*";
  auto res = Engine(r, o).run();
  const trace::Json* bench = res.report.find("bench");
  ASSERT_NE(bench, nullptr);
  EXPECT_EQ(bench->str(), "armbar-bench");
  // Metric keys are prefixed by experiment name.
  const std::string dump = res.report.dump(0);
  EXPECT_NE(dump.find("alpha_squares/total"), std::string::npos);
  EXPECT_NE(dump.find("alpha_squares: sum of squares is 1240"),
            std::string::npos);
}

TEST(GlobalRegistry, MacroRegistrationIsVisible) {
  // This test binary links armbar_runner but not the experiment objects;
  // the global registry exists and is usable either way.
  Registry& g = Registry::global();
  auto all = g.sorted();
  for (std::size_t i = 1; i < all.size(); ++i)
    EXPECT_LT(all[i - 1]->name, all[i]->name);
}

}  // namespace
}  // namespace armbar::runner
