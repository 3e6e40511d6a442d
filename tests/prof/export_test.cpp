// Exporters and the report surface: host_prof JSON shape + validation
// through ReportBuilder, collapsed-stack and chrome-trace formats, the
// perfdiff gate, and the validator's rejection paths.
#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "prof/export.hpp"
#include "prof/perfdiff.hpp"
#include "prof/prof.hpp"
#include "trace/json.hpp"
#include "trace/json_report.hpp"

namespace armbar::prof {
namespace {

using trace::Json;

void busy_us(std::int64_t us) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

/// Record a small but real profile: sim.run{sim.schedule} + instruction count.
Snapshot recorded_snapshot() {
  set_enabled(false);
  reset();
  {
    Session s;
    ARMBAR_PROF_SCOPE(kSimRun);
    busy_us(200);
    {
      ARMBAR_PROF_SCOPE(kSimSchedule);
      busy_us(100);
    }
    ARMBAR_PROF_COUNT(kSimInstructions, 12345);
  }
  Snapshot snap = snapshot();
  set_enabled(false);
  reset();
  return snap;
}

/// Minimal hand-built host_prof section (used where the real API cannot
/// produce the malformed shape under test).
Json hand_host_prof(double total_ns, double self_ns, double ips) {
  Json hp = Json::object();
  hp.set("schema", kHostProfSchema);
  hp.set("excluded_from_digests", true);
  hp.set("wall_ns", 1e6);
  hp.set("threads", 1);
  Json phases = Json::object();
  Json p = Json::object();
  p.set("count", 10);
  p.set("total_ns", total_ns);
  p.set("self_ns", self_ns);
  phases.set("sim.run", p);
  hp.set("phases", phases);
  if (ips != 0) hp.set("sim_instructions_per_sec", ips);
  return hp;
}

/// A minimal valid report document carrying `hp` and an ips_vs_null metric.
Json report_with(const Json& hp, double ips_vs_null) {
  trace::ReportBuilder rb("sim_perf", "test report");
  rb.add_check("measured", true);
  if (ips_vs_null != 0) rb.add_metric("ips_vs_null", ips_vs_null);
  if (!hp.is_null()) rb.set_host_prof(hp);
  return rb.build();
}

TEST(HostProfJson, ShapeAndValidation) {
  const Snapshot snap = recorded_snapshot();
  ASSERT_TRUE(snap.has_data());
  const Json hp = host_prof_json(snap);

  ASSERT_TRUE(hp.is_object());
  EXPECT_EQ(hp.find("schema")->str(), kHostProfSchema);
  EXPECT_TRUE(hp.find("excluded_from_digests")->boolean());
  const Json* phases = hp.find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_NE(phases->find("sim.run"), nullptr);
  ASSERT_NE(phases->find("sim.schedule"), nullptr);
  EXPECT_GT(phases->find("sim.run")->find("total_ns")->number(), 0.0);
  // 12345 instructions over a real sim.run scope: derived ips present, > 0.
  ASSERT_NE(hp.find("sim_instructions_per_sec"), nullptr);
  EXPECT_GT(hp.find("sim_instructions_per_sec")->number(), 0.0);

  // The full report with this section attached validates.
  const Json doc = report_with(hp, 0.001);
  std::string err;
  EXPECT_TRUE(trace::validate_bench_report(doc, &err)) << err;
  ASSERT_NE(doc.find("host_prof"), nullptr);
}

TEST(HostProfJson, CollapsedStacksFormat) {
  const Snapshot snap = recorded_snapshot();
  const std::string folded = collapsed_stacks(snap);
  // flamegraph.pl lines: "path;path <self_ns>\n" — the nested phase shows
  // up under its parent's path.
  EXPECT_NE(folded.find("sim.run "), std::string::npos);
  EXPECT_NE(folded.find("sim.run;sim.schedule "), std::string::npos);
}

TEST(HostProfJson, ChromeTraceParses) {
  const Snapshot snap = recorded_snapshot();
  std::string err;
  const Json doc = Json::parse(chrome_trace_json(snap), &err);
  ASSERT_TRUE(err.empty()) << err;
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_GE(events->size(), 2u);  // both phases + metadata
}

TEST(PerfDiff, GatePassesAndFails) {
  const Json hp = hand_host_prof(/*total_ns=*/5e5, /*self_ns=*/4e5,
                                 /*ips=*/2e6);
  const Json base = report_with(hp, 0.004);

  // Same self-relative throughput: gate passes.
  PerfDiff ok = diff_reports(base, report_with(hp, 0.0039), {});
  EXPECT_TRUE(ok.comparable);
  EXPECT_TRUE(ok.ok);
  EXPECT_NEAR(ok.rel_ratio, 0.975, 1e-9);

  // Current at a quarter of the baseline ratio: below the 0.5 floor.
  PerfDiff bad = diff_reports(base, report_with(hp, 0.001), {});
  EXPECT_TRUE(bad.comparable);
  EXPECT_FALSE(bad.ok);

  // Missing host_prof on either side: not comparable, gate fails closed.
  PerfDiff missing = diff_reports(base, report_with(Json(), 0.004), {});
  EXPECT_FALSE(missing.comparable);
  EXPECT_FALSE(missing.ok);
}

TEST(PerfDiff, PhaseDriftVerdicts) {
  // Base: one phase at 100% share. Current: a second phase takes 40%.
  Json base_hp = hand_host_prof(5e5, 4e5, 2e6);
  Json cur_hp = hand_host_prof(5e5, 3e5, 2e6);
  Json extra = Json::object();
  extra.set("count", 5);
  extra.set("total_ns", 2e5);
  extra.set("self_ns", 2e5);
  // find() returns const; rebuild phases with the extra entry.
  Json phases = *cur_hp.find("phases");
  phases.set("sim.coherence", extra);
  cur_hp.set("phases", phases);

  PerfDiffOptions opts;
  opts.phase_drift_pp = 15.0;
  const PerfDiff d =
      diff_reports(report_with(base_hp, 0.004), report_with(cur_hp, 0.004), opts);
  ASSERT_TRUE(d.comparable);
  EXPECT_TRUE(d.ok);  // drifts are advisory by default
  bool saw_new = false;
  for (const PhaseVerdict& v : d.phases)
    if (v.phase == "sim.coherence") {
      saw_new = true;
      EXPECT_EQ(v.verdict, "new");
    }
  EXPECT_TRUE(saw_new);

  // gate_phases promotes a big drift to a failure.
  PerfDiffOptions strict = opts;
  strict.gate_phases = true;
  strict.phase_drift_pp = 5.0;
  const PerfDiff s = diff_reports(report_with(base_hp, 0.004),
                                  report_with(cur_hp, 0.004), strict);
  // sim.run went 100% -> 60%: negative drift, fine. But if we flip the
  // direction (cur as base) sim.run grows by 40pp and must fail.
  const PerfDiff flipped = diff_reports(report_with(cur_hp, 0.004),
                                        report_with(base_hp, 0.004), strict);
  EXPECT_TRUE(s.ok);
  EXPECT_FALSE(flipped.ok);
}

TEST(PerfDiff, PhaseDriftFloorSuppressesTinyPhases) {
  // Base: "sim.run" 99.9% + "sim.verify" 0.1%. Current: the hot path got
  // ~20x faster so "sim.verify" inflates to 1.9% — a +1.8pp drift that
  // would exceed a 1pp threshold, but its current share is still under the
  // 2% floor: not a regression.
  auto two_phase = [](double run_self, double verify_self) {
    Json hp = hand_host_prof(run_self, run_self, 2e6);
    Json verify = Json::object();
    verify.set("count", 3);
    verify.set("total_ns", verify_self);
    verify.set("self_ns", verify_self);
    Json phases = *hp.find("phases");
    phases.set("sim.verify", verify);
    hp.set("phases", phases);
    return hp;
  };
  const Json base_hp = two_phase(9.99e8, 1e6);   // verify share 0.1%
  const Json cur_hp = two_phase(5.2e7, 1e6);     // verify share ~1.9%

  PerfDiffOptions opts;
  opts.phase_drift_pp = 1.0;
  opts.gate_phases = true;
  opts.min_phase_share_pct = 2.0;
  const PerfDiff d = diff_reports(report_with(base_hp, 0.004),
                                  report_with(cur_hp, 0.012), opts);
  ASSERT_TRUE(d.comparable);
  for (const PhaseVerdict& v : d.phases)
    if (v.phase == "sim.verify") {
      EXPECT_GT(v.drift_pp, opts.phase_drift_pp);
      EXPECT_EQ(v.verdict, "ok") << "sub-floor share must not regress";
    }
  EXPECT_TRUE(d.ok);

  // Drop the floor to zero and the same drift regresses again.
  opts.min_phase_share_pct = 0.0;
  const PerfDiff strict = diff_reports(report_with(base_hp, 0.004),
                                       report_with(cur_hp, 0.012), opts);
  EXPECT_FALSE(strict.ok);
}

TEST(PerfDiff, PresetRatioGate) {
  const Json hp = hand_host_prof(5e5, 4e5, 2e6);
  auto report = [&](double null_mops, double rpi4_ips, double kp_ips) {
    trace::ReportBuilder rb("sim_perf", "test report");
    rb.add_check("measured", true);
    rb.add_metric("ips_vs_null", 0.004);
    rb.add_metric("null_loop_mops", null_mops);
    rb.add_metric("rpi4_mp_ips", rpi4_ips);
    rb.add_metric("kunpeng916_deep_ips", kp_ips);
    rb.set_host_prof(hp);
    return rb.build();
  };
  // Current host is 2x faster (null loop 600 -> 1200 Mops); raw preset ips
  // doubled too, so the normalized per-preset ratio is exactly 1.0.
  const Json base = report(600.0, 3e6, 8e6);
  const Json same = report(1200.0, 6e6, 16e6);
  PerfDiffOptions opts;
  opts.min_preset_ratio = 0.9;
  PerfDiff d = diff_reports(base, same, opts);
  ASSERT_TRUE(d.comparable);
  ASSERT_EQ(d.presets.size(), 2u);
  for (const PresetRatio& p : d.presets) {
    EXPECT_NEAR(p.ratio, 1.0, 1e-9) << p.metric;
    EXPECT_TRUE(p.ok);
  }
  EXPECT_TRUE(d.ok);

  // One preset regresses (same host speed, kunpeng916 at half): the
  // aggregate ips_vs_null is untouched but the preset gate still fails.
  const Json one_bad = report(600.0, 3e6, 4e6);
  d = diff_reports(base, one_bad, opts);
  ASSERT_TRUE(d.comparable);
  EXPECT_FALSE(d.ok);
  bool saw_bad = false;
  for (const PresetRatio& p : d.presets)
    if (p.metric == "kunpeng916_deep_ips") {
      saw_bad = true;
      EXPECT_NEAR(p.ratio, 0.5, 1e-9);
      EXPECT_FALSE(p.ok);
    }
  EXPECT_TRUE(saw_bad);

  // min_preset_ratio = 0 (default) ignores preset metrics entirely.
  d = diff_reports(base, one_bad, {});
  EXPECT_TRUE(d.ok);

  // A baseline without preset metrics fails closed when gating is on.
  trace::ReportBuilder rb("sim_perf", "no presets");
  rb.add_check("measured", true);
  rb.add_metric("ips_vs_null", 0.004);
  rb.add_metric("null_loop_mops", 600.0);
  rb.set_host_prof(hp);
  d = diff_reports(rb.build(), same, opts);
  EXPECT_FALSE(d.comparable);
  EXPECT_FALSE(d.ok);
}

TEST(Validator, RejectsMalformedHostProf) {
  std::string err;

  // self_ns > total_ns: monotone-summable violation.
  EXPECT_FALSE(trace::validate_bench_report(
      report_with(hand_host_prof(1e5, 2e5, 2e6), 0.004), &err));
  EXPECT_NE(err.find("self_ns > total_ns"), std::string::npos) << err;

  // Non-positive throughput.
  Json hp = hand_host_prof(5e5, 4e5, 0);
  hp.set("sim_instructions_per_sec", -1.0);
  EXPECT_FALSE(trace::validate_bench_report(report_with(hp, 0.004), &err));

  // Missing the excluded_from_digests marker.
  Json unmarked = hand_host_prof(5e5, 4e5, 2e6);
  unmarked.set("excluded_from_digests", false);
  EXPECT_FALSE(
      trace::validate_bench_report(report_with(unmarked, 0.004), &err));
  EXPECT_NE(err.find("excluded_from_digests"), std::string::npos) << err;

  // Empty phase name (impossible via the API, possible in a doctored file).
  Json doctored = hand_host_prof(5e5, 4e5, 2e6);
  Json phases = *doctored.find("phases");
  Json p = Json::object();
  p.set("count", 1);
  p.set("total_ns", 1.0);
  p.set("self_ns", 1.0);
  phases.set("", p);
  doctored.set("phases", phases);
  EXPECT_FALSE(
      trace::validate_bench_report(report_with(doctored, 0.004), &err));

  // Phase self sum exceeding the wall * threads envelope.
  Json over = hand_host_prof(5e5, 4e5, 2e6);
  over.set("wall_ns", 1e3);  // 400us of self time in a 1us wall
  EXPECT_FALSE(trace::validate_bench_report(report_with(over, 0.004), &err));
  EXPECT_NE(err.find("exceeds wall_ns"), std::string::npos) << err;
}

TEST(Validator, RejectsProfDigestLeakParam) {
  trace::ReportBuilder rb("leaky", "leak test");
  rb.add_check("ran", true);
  rb.add_param("prof_digest_leak", "true");
  std::string err;
  EXPECT_FALSE(trace::validate_bench_report(rb.build(), &err));
  EXPECT_NE(err.find("leaked into point digests"), std::string::npos) << err;

  // Consolidated (prefixed) spelling is rejected too.
  trace::ReportBuilder rb2("armbar-bench", "leak test");
  rb2.add_check("ran", true);
  rb2.add_param("sim_perf/prof_digest_leak", "true");
  EXPECT_FALSE(trace::validate_bench_report(rb2.build(), &err));

  // "false" does not trip it.
  trace::ReportBuilder rb3("clean", "leak test");
  rb3.add_check("ran", true);
  rb3.add_param("prof_digest_leak", "false");
  EXPECT_TRUE(trace::validate_bench_report(rb3.build(), &err)) << err;
}

}  // namespace
}  // namespace armbar::prof
