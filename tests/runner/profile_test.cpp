// Engine-level profiling integration: --profile produces a valid host_prof
// section, profiling never perturbs points digests, and a cached point
// value that smuggles host-profiling fields is flagged, failed, and
// rejected by the report validator.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "prof/prof.hpp"
#include "runner/engine.hpp"
#include "runner/experiment.hpp"
#include "sim/machine.hpp"
#include "sim/platform.hpp"
#include "trace/json_report.hpp"

namespace armbar::runner {
namespace {

// ---- bodies for the local registry (function pointers, no captures) ----

/// A real (tiny) simulation inside a cached point: the digest reflects
/// simulated cycles, which must be identical profiled or not.
void body_simulates(ExperimentContext& ctx) {
  Fingerprint k = ExperimentContext::key();
  k.mix("profile_test/simulates");
  const trace::Json v =
      ctx.cached(k, "tiny machine run", [] {
        using namespace sim;
        Asm a;
        a.movi(X0, 0x1000).movi(X5, 50).movi(X3, 0);
        a.label("loop");
        a.addi(X3, X3, 1);
        a.str(X3, X0, 0);
        a.dmb_st();
        a.cmp(X3, X5);
        a.bne("loop");
        a.halt();
        const Program p = a.take("profile-test-loop");
        Machine m(rpi4(), 1u << 20);
        m.load_program(0, p);
        const RunResult res = m.run(RunConfig{});
        return trace::Json(static_cast<double>(res.cycles));
      });
  ctx.metric("cycles", v.number());
  ctx.check(v.number() > 0, "simulation produced cycles");
}

/// Smuggles a reserved host-profiling key into a cached value.
void body_leaks(ExperimentContext& ctx) {
  Fingerprint k = ExperimentContext::key();
  k.mix("profile_test/leaks");
  ctx.cached(k, "leaky point", [] {
    trace::Json v = trace::Json::object();
    v.set("cycles", 10.0);
    v.set("host_ns", 12345.0);  // forbidden: wall-clock in digest material
    return v;
  });
  ctx.check(true, "leaky body ran");
}

Registry make_registry() {
  Registry r;
  r.add({"prof_sim", "Test P1", "simulates under profiling", &body_simulates});
  r.add({"prof_leak", "Test P2", "leaks host time", &body_leaks});
  return r;
}

EngineOptions base_opts() {
  EngineOptions o;
  o.cache_enabled = false;
  o.jobs = 1;
  return o;
}

TEST(EngineProfile, ProfileEmitsValidHostProf) {
  Registry r = make_registry();
  EngineOptions o = base_opts();
  o.filter = "prof_sim";
  o.profile = true;
  auto res = Engine(r, o).run();
  EXPECT_TRUE(res.ok);

  const trace::Json* hp = res.report.find("host_prof");
  ASSERT_NE(hp, nullptr) << "--profile must attach a host_prof section";
  EXPECT_EQ(hp->find("schema")->str(), "armbar.host_prof/v1");
  const trace::Json* phases = hp->find("phases");
  ASSERT_NE(phases, nullptr);
  EXPECT_NE(phases->find("sim.run"), nullptr);

  std::string err;
  EXPECT_TRUE(trace::validate_bench_report(res.report, &err)) << err;

  // The engine owned the session: profiling is off again after run().
  EXPECT_FALSE(prof::enabled());
}

TEST(EngineProfile, FullyCachedRunHasValidHostProf) {
  // A warm run simulates nothing. Its host profile must still validate,
  // with the time it did spend attributed to cache lookups.
  Registry r = make_registry();
  const std::string dir = ::testing::TempDir() + "armbar_profile_cache";
  std::filesystem::remove_all(dir);
  EngineOptions o = base_opts();
  o.filter = "prof_sim";
  o.cache_enabled = true;
  o.cache_dir = dir;
  ASSERT_TRUE(Engine(r, o).run().ok);  // primes the cache

  o.profile = true;
  const auto res = Engine(r, o).run();
  ASSERT_EQ(res.outcomes.size(), 1u);
  ASSERT_EQ(res.outcomes[0].cache_hits, res.outcomes[0].points);
  const trace::Json* hp = res.report.find("host_prof");
  ASSERT_NE(hp, nullptr);
  ASSERT_NE(hp->find("phases"), nullptr);
  EXPECT_NE(hp->find("phases")->find("cache.lookup"), nullptr);
  std::string err;
  EXPECT_TRUE(trace::validate_bench_report(res.report, &err)) << err;
}

TEST(EngineProfile, NoProfileMeansNoHostProf) {
  Registry r = make_registry();
  EngineOptions o = base_opts();
  o.filter = "prof_sim";
  auto res = Engine(r, o).run();
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.report.find("host_prof"), nullptr);
}

TEST(EngineProfile, ProfilingDoesNotPerturbDigests) {
  // The acceptance invariant: simulated values are bit-identical with
  // profiling on or off, so the points digest cannot move.
  Registry r = make_registry();

  EngineOptions off = base_opts();
  off.filter = "prof_sim";
  auto res_off = Engine(r, off).run();

  EngineOptions on = base_opts();
  on.filter = "prof_sim";
  on.profile = true;
  auto res_on = Engine(r, on).run();

  ASSERT_EQ(res_off.outcomes.size(), 1u);
  ASSERT_EQ(res_on.outcomes.size(), 1u);
  EXPECT_TRUE(res_off.ok);
  EXPECT_TRUE(res_on.ok);
  EXPECT_EQ(res_off.outcomes[0].points_digest, res_on.outcomes[0].points_digest);
}

TEST(EngineProfile, DigestLeakIsFlaggedAndRejected) {
  Registry r = make_registry();
  EngineOptions o = base_opts();
  o.filter = "prof_leak";
  auto res = Engine(r, o).run();

  // The experiment itself "passed" its own checks, but the engine fails it
  // for digest contamination and stamps the report param.
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.outcomes.size(), 1u);
  EXPECT_FALSE(res.outcomes[0].ok);

  const trace::Json* params = res.report.find("params");
  ASSERT_NE(params, nullptr);
  const trace::Json* leak = params->find("prof_digest_leak");
  ASSERT_NE(leak, nullptr);
  EXPECT_EQ(leak->str(), "true");

  std::string err;
  EXPECT_FALSE(trace::validate_bench_report(res.report, &err));
  EXPECT_NE(err.find("leaked into point digests"), std::string::npos) << err;
}

TEST(EngineProfile, CleanReportCarriesNoLeakParam) {
  Registry r = make_registry();
  EngineOptions o = base_opts();
  o.filter = "prof_sim";
  auto res = Engine(r, o).run();
  const trace::Json* params = res.report.find("params");
  ASSERT_NE(params, nullptr);
  EXPECT_EQ(params->find("prof_digest_leak"), nullptr);
}

}  // namespace
}  // namespace armbar::runner
