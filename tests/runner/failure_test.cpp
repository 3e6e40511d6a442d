// Engine graceful degradation (ISSUE 3): a failing experiment — throw,
// tripped ARMBAR_CHECK, invariant violation, hang, timeout — is captured as
// a quarantined "failed" outcome while the rest of the sweep completes; a
// flaky experiment succeeds under --retries; SIGINT stops new work but
// still yields a valid partial report.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <stdexcept>
#include <thread>

#include "runner/engine.hpp"
#include "runner/experiment.hpp"
#include "sim/fault/fault.hpp"
#include "sim/machine.hpp"
#include "sim/verify.hpp"
#include "trace/json_report.hpp"

namespace armbar::runner {
namespace {

using sim::fault::FaultPlan;

std::atomic<int> g_flaky_attempts{0};
std::atomic<int> g_good_runs{0};

void body_good(ExperimentContext& ctx) {
  g_good_runs.fetch_add(1);
  ctx.check(true, "good experiment ran");
}

void body_throws(ExperimentContext& ctx) {
  ctx.check(true, "reached the cliff");
  throw std::runtime_error("simulated infrastructure failure");
}

void body_trips_check(ExperimentContext&) {
  const int points = 0;
  ARMBAR_CHECK_MSG(points > 0, "experiment produced no points");
}

void body_flaky(ExperimentContext& ctx) {
  if (g_flaky_attempts.fetch_add(1) == 0)
    throw std::runtime_error("transient failure, first attempt only");
  ctx.check(true, "flaky experiment eventually ran");
}

void body_slow(ExperimentContext& ctx) {
  for (int i = 0; i < 100; ++i) {
    Fingerprint k = ExperimentContext::key();
    k.mix("failure_test/slow").mix(static_cast<std::uint64_t>(i));
    ctx.cached(k, "slow point", [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      return trace::Json(1.0);
    });
  }
  ctx.check(true, "slow experiment finished every point");
}

void body_invariant_violation(ExperimentContext& ctx) {
  sim::Machine m(sim::rpi4(), 1u << 20);
  sim::Asm a;
  a.movi(sim::X0, 0x1000).movi(sim::X2, 7);
  a.str(sim::X2, sim::X0, 0);
  a.halt();
  sim::Program p = a.take("t");
  m.load_program(0, p);
  sim::LineState ls;
  ls.owner = 0;
  ls.sharers = 1ULL << 2;  // single-writer violated
  m.mem().debug_set_line_state(0x5000, ls);
  sim::RunConfig cfg;
  cfg.verify_every = 4;
  (void)m.run(cfg);  // throws InvariantViolation
  ctx.check(false, "unreachable");
}

void body_hang(ExperimentContext& ctx) {
  static const FaultPlan plan = [] {
    FaultPlan p;
    p.sb_stall_pm = 1000;  // every drain re-postponed: livelock
    p.sb_stall_cycles = 100;
    return p;
  }();
  sim::Machine m(sim::rpi4(), 1u << 20);
  sim::Asm a;
  a.movi(sim::X0, 0x1000).movi(sim::X1, 7);
  a.str(sim::X1, sim::X0, 0);
  a.dsb_full();
  a.halt();
  sim::Program p = a.take("t");
  m.load_program(0, p);
  sim::RunConfig cfg;
  cfg.watchdog_cycles = 20'000;
  cfg.fault = &plan;
  (void)m.run(cfg);  // throws SimHang
  ctx.check(false, "unreachable");
}

template <int kSignal>
void body_raises_signal(ExperimentContext& ctx) {
  Fingerprint k = ExperimentContext::key();
  k.mix("failure_test/pre-interrupt");
  ctx.cached(k, "pre-interrupt point", [] { return trace::Json(1.0); });
  std::raise(kSignal);
  for (int i = 0; i < 10; ++i) {
    Fingerprint k2 = ExperimentContext::key();
    k2.mix("failure_test/post-interrupt").mix(static_cast<std::uint64_t>(i));
    ctx.cached(k2, "post-interrupt point", [] { return trace::Json(2.0); });
  }
  ctx.check(false, "interrupted experiment kept running");
}
constexpr auto body_raises_sigint = &body_raises_signal<SIGINT>;
constexpr auto body_raises_sigterm = &body_raises_signal<SIGTERM>;

void body_sim_sweep(ExperimentContext& ctx) {
  auto cycles = ctx.map(4, [&](std::size_t i) {
    Fingerprint k = ExperimentContext::key();
    k.mix("failure_test/sim-sweep").mix(static_cast<std::uint64_t>(i));
    return ctx
        .cached(k, "sweep point " + std::to_string(i),
                [i] {
                  sim::Machine m(sim::rpi4(), 1u << 20);
                  sim::Asm a;
                  a.movi(sim::X0, 0x1000).movi(sim::X2, 0);
                  a.label("loop");
                  a.str(sim::X2, sim::X0, 0);
                  a.addi(sim::X0, sim::X0, 64);
                  a.addi(sim::X2, sim::X2, 1);
                  a.cmpi(sim::X2, 50 + 10 * static_cast<int>(i));
                  a.blt("loop");
                  a.dsb_full();
                  a.halt();
                  sim::Program p = a.take("t");
                  m.load_program(0, p);
                  auto r = m.run({});
                  return trace::Json(static_cast<double>(r.cycles));
                })
        .number();
  });
  ctx.check(cycles[3] > cycles[0], "longer sweeps take longer");
}

void body_mismatch_with_bundle(ExperimentContext& ctx) {
  // The shape the fuzz harness uses: write a repro bundle, attach its path,
  // then throw so the engine quarantines the run with the replay handle.
  ctx.note_repro_bundle("out/fuzz/seed42.repro.json");
  throw std::runtime_error("differential mismatch: sim outcome not allowed");
}

EngineOptions base_opts() {
  EngineOptions o;
  o.cache_enabled = false;
  o.jobs = 1;
  return o;
}

const ExperimentOutcome* find_outcome(const EngineResult& res,
                                      const std::string& name) {
  for (const auto& out : res.outcomes)
    if (out.name == name) return &out;
  return nullptr;
}

TEST(EngineFailure, ThrowIsQuarantinedOthersComplete) {
  Registry r;
  r.add({"a_throws", "F1", "throws mid-body", &body_throws});
  r.add({"z_good", "F2", "healthy", &body_good});
  g_good_runs.store(0);
  auto res = Engine(r, base_opts()).run();

  EXPECT_FALSE(res.ok);
  EXPECT_EQ(g_good_runs.load(), 1) << "healthy experiment did not run";
  const ExperimentOutcome* bad = find_outcome(res, "a_throws");
  ASSERT_NE(bad, nullptr);
  EXPECT_EQ(bad->status, "failed");
  EXPECT_EQ(bad->kind, "error");
  EXPECT_NE(bad->reason.find("simulated infrastructure failure"),
            std::string::npos);
  const ExperimentOutcome* good = find_outcome(res, "z_good");
  ASSERT_NE(good, nullptr);
  EXPECT_TRUE(good->ok);
  EXPECT_EQ(good->status, "ok");

  // The consolidated report carries the quarantine entry and still
  // validates against the schema.
  std::string err;
  EXPECT_TRUE(trace::validate_bench_report(res.report, &err)) << err;
  const trace::Json* q = res.report.find("quarantine");
  ASSERT_NE(q, nullptr);
  ASSERT_EQ(q->size(), 1u);
  EXPECT_EQ(q->items()[0].find("name")->str(), "a_throws");
  EXPECT_EQ(q->items()[0].find("kind")->str(), "error");
  EXPECT_FALSE(res.report.find("ok")->boolean());
}

TEST(EngineFailure, QuarantineEntryCarriesReproBundlePath) {
  Registry r;
  r.add({"a_fuzz", "F1", "mismatch with bundle", &body_mismatch_with_bundle});
  r.add({"z_good", "F2", "healthy", &body_good});
  auto res = Engine(r, base_opts()).run();
  EXPECT_FALSE(res.ok);
  const ExperimentOutcome* bad = find_outcome(res, "a_fuzz");
  ASSERT_NE(bad, nullptr);
  EXPECT_EQ(bad->status, "failed");
  EXPECT_EQ(bad->repro_bundle, "out/fuzz/seed42.repro.json");
  const ExperimentOutcome* good = find_outcome(res, "z_good");
  ASSERT_NE(good, nullptr);
  EXPECT_TRUE(good->repro_bundle.empty());

  std::string err;
  EXPECT_TRUE(trace::validate_bench_report(res.report, &err)) << err;
  const trace::Json* q = res.report.find("quarantine");
  ASSERT_NE(q, nullptr);
  ASSERT_EQ(q->size(), 1u);
  const trace::Json* bundle = q->items()[0].find("repro_bundle");
  ASSERT_NE(bundle, nullptr);
  EXPECT_EQ(bundle->str(), "out/fuzz/seed42.repro.json");
}

TEST(EngineFailure, TrippedCheckBecomesCheckFailedNotAbort) {
  Registry r;
  r.add({"a_check", "F1", "trips ARMBAR_CHECK", &body_trips_check});
  r.add({"z_good", "F2", "healthy", &body_good});
  auto res = Engine(r, base_opts()).run();
  const ExperimentOutcome* bad = find_outcome(res, "a_check");
  ASSERT_NE(bad, nullptr);
  EXPECT_EQ(bad->status, "failed");
  EXPECT_EQ(bad->kind, "check_failed");
  EXPECT_NE(bad->reason.find("experiment produced no points"),
            std::string::npos);
  EXPECT_TRUE(find_outcome(res, "z_good")->ok);
}

TEST(EngineFailure, InvariantViolationCarriesDiagnostic) {
  Registry r;
  r.add({"a_corrupt", "F1", "corrupted machine", &body_invariant_violation});
  r.add({"z_good", "F2", "healthy", &body_good});
  auto res = Engine(r, base_opts()).run();
  EXPECT_FALSE(res.ok);
  const ExperimentOutcome* bad = find_outcome(res, "a_corrupt");
  ASSERT_NE(bad, nullptr);
  EXPECT_EQ(bad->status, "failed");
  EXPECT_EQ(bad->kind, "invariant_violation");
  ASSERT_FALSE(bad->diagnostic.is_null());
  EXPECT_EQ(bad->diagnostic.find("kind")->str(), "invariant_violation");
  EXPECT_TRUE(find_outcome(res, "z_good")->ok);
  std::string err;
  EXPECT_TRUE(trace::validate_bench_report(res.report, &err)) << err;
}

TEST(EngineFailure, WatchdogHangIsTypedAndQuarantined) {
  Registry r;
  r.add({"a_hang", "F1", "livelocked machine", &body_hang});
  r.add({"z_good", "F2", "healthy", &body_good});
  auto res = Engine(r, base_opts()).run();
  const ExperimentOutcome* bad = find_outcome(res, "a_hang");
  ASSERT_NE(bad, nullptr);
  EXPECT_EQ(bad->status, "failed");
  EXPECT_EQ(bad->kind, "hang");
  ASSERT_FALSE(bad->diagnostic.is_null());
  EXPECT_EQ(bad->diagnostic.find("kind")->str(), "hang");
  EXPECT_TRUE(find_outcome(res, "z_good")->ok);
}

TEST(EngineFailure, TimeoutBoundsASlowExperiment) {
  Registry r;
  r.add({"a_slow", "F1", "sleeps per point", &body_slow});
  r.add({"z_good", "F2", "healthy", &body_good});
  EngineOptions o = base_opts();
  o.timeout_ms = 25;  // ~5 of the 100 5ms points fit in the budget
  const auto t0 = std::chrono::steady_clock::now();
  auto res = Engine(r, o).run();
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  const ExperimentOutcome* slow = find_outcome(res, "a_slow");
  ASSERT_NE(slow, nullptr);
  EXPECT_EQ(slow->status, "failed");
  EXPECT_EQ(slow->kind, "timeout");
  EXPECT_LT(slow->points, 100u);
  EXPECT_LT(ms, 400.0) << "timeout did not bound the experiment";
  EXPECT_TRUE(find_outcome(res, "z_good")->ok);
}

TEST(EngineFailure, RetriesRecoverAFlakyExperiment) {
  Registry r;
  r.add({"a_flaky", "F1", "fails once then passes", &body_flaky});
  g_flaky_attempts.store(0);
  EngineOptions o = base_opts();
  o.retries = 2;
  auto res = Engine(r, o).run();
  EXPECT_TRUE(res.ok);
  const ExperimentOutcome* out = find_outcome(res, "a_flaky");
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->status, "ok");
  EXPECT_EQ(out->attempts, 2u);
  EXPECT_EQ(g_flaky_attempts.load(), 2);
  // A recovered experiment is not quarantined.
  EXPECT_EQ(res.report.find("quarantine")->size(), 0u);
}

TEST(EngineFailure, NoRetryForDeterministicFailures) {
  Registry r;
  r.add({"a_check", "F1", "trips ARMBAR_CHECK", &body_trips_check});
  EngineOptions o = base_opts();
  o.retries = 3;
  auto res = Engine(r, o).run();
  const ExperimentOutcome* out = find_outcome(res, "a_check");
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->attempts, 1u) << "check_failed must not be retried";
}

TEST(EngineFailure, SigintFlushesPartialReportAndSkipsRest) {
  Registry r;
  r.add({"m_interrupts", "F1", "raises SIGINT mid-body", body_raises_sigint});
  r.add({"z_good", "F2", "healthy", &body_good});
  g_good_runs.store(0);
  auto res = Engine(r, base_opts()).run();

  EXPECT_TRUE(res.interrupted);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(g_good_runs.load(), 0) << "experiment started after SIGINT";
  const ExperimentOutcome* hit = find_outcome(res, "m_interrupts");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->status, "failed");
  EXPECT_EQ(hit->kind, "interrupted");
  const ExperimentOutcome* skipped = find_outcome(res, "z_good");
  ASSERT_NE(skipped, nullptr);
  EXPECT_EQ(skipped->status, "skipped");
  EXPECT_EQ(skipped->attempts, 0u);

  // The partial report is still a valid schema document with both
  // experiments accounted for.
  std::string err;
  EXPECT_TRUE(trace::validate_bench_report(res.report, &err)) << err;
  EXPECT_EQ(res.report.find("quarantine")->size(), 2u);

  // The next engine run starts with a clean slate.
  Registry r2;
  r2.add({"z_good", "F2", "healthy", &body_good});
  auto res2 = Engine(r2, base_opts()).run();
  EXPECT_TRUE(res2.ok);
  EXPECT_FALSE(res2.interrupted);
  EXPECT_EQ(g_good_runs.load(), 1);
}

TEST(EngineFailure, SigtermBehavesLikeSigint) {
  // ISSUE 4: a CI timeout delivers SIGTERM, which must flush the same
  // partial report as ^C — and record the signal for the 128+N exit code.
  Registry r;
  r.add({"m_interrupts", "F1", "raises SIGTERM mid-body",
         body_raises_sigterm});
  r.add({"z_good", "F2", "healthy", &body_good});
  g_good_runs.store(0);
  auto res = Engine(r, base_opts()).run();

  EXPECT_TRUE(res.interrupted);
  EXPECT_EQ(res.signal, SIGTERM);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(g_good_runs.load(), 0) << "experiment started after SIGTERM";
  const ExperimentOutcome* hit = find_outcome(res, "m_interrupts");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->status, "failed");
  EXPECT_EQ(hit->kind, "interrupted");
  EXPECT_NE(hit->reason.find("SIGTERM"), std::string::npos) << hit->reason;
  const ExperimentOutcome* skipped = find_outcome(res, "z_good");
  ASSERT_NE(skipped, nullptr);
  EXPECT_EQ(skipped->status, "skipped");

  std::string err;
  EXPECT_TRUE(trace::validate_bench_report(res.report, &err)) << err;
  EXPECT_EQ(res.report.find("quarantine")->size(), 2u);

  // The previous SIGTERM disposition is restored on scope exit and the
  // next run starts clean.
  Registry r2;
  r2.add({"z_good", "F2", "healthy", &body_good});
  auto res2 = Engine(r2, base_opts()).run();
  EXPECT_TRUE(res2.ok);
  EXPECT_FALSE(res2.interrupted);
  EXPECT_EQ(res2.signal, 0);
}

TEST(EngineFailure, FaultedSweepIsBitIdenticalAcrossJobCounts) {
  Registry r;
  r.add({"sim_sweep", "F1", "machine sweep", &body_sim_sweep});

  EngineOptions serial = base_opts();
  serial.fault = FaultPlan::chaos(7);
  auto res1 = Engine(r, serial).run();
  ASSERT_TRUE(res1.ok);

  EngineOptions parallel = base_opts();
  parallel.fault = FaultPlan::chaos(7);
  parallel.jobs = 8;
  auto res8 = Engine(r, parallel).run();
  ASSERT_TRUE(res8.ok);

  EXPECT_EQ(res1.outcomes[0].points_digest, res8.outcomes[0].points_digest)
      << "faulted sweep not schedule-independent";

  // A different seed perturbs the sweep into a different digest.
  EngineOptions other = base_opts();
  other.fault = FaultPlan::chaos(8);
  auto res_other = Engine(r, other).run();
  ASSERT_TRUE(res_other.ok);
  EXPECT_NE(res_other.outcomes[0].points_digest,
            res1.outcomes[0].points_digest);
}

TEST(EngineFailure, VerifyCadencePlumbsToMachines) {
  // With the global cadence installed by the engine, a healthy sim sweep
  // still passes (the verifier finds nothing on a correct machine).
  Registry r;
  r.add({"sim_sweep", "F1", "machine sweep", &body_sim_sweep});
  EngineOptions o = base_opts();
  o.verify_every = 512;
  auto res = Engine(r, o).run();
  EXPECT_TRUE(res.ok);
}

}  // namespace
}  // namespace armbar::runner
