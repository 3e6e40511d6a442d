// Lock-verification experiment (ISSUE 9): run every clean lock scenario
// (3 families x 2 strengths) through the lockver harness — axiomatic
// enumeration of the handoff litmus program, invariant evaluation over the
// full allowed set, and a simulator cross-check over the platform x
// fault-plan x skew grid — then self-test the harness by planting every
// bug class into every variant (model layer) and demanding each one is
// caught.
//
// A clean scenario failing is a real lock-ordering regression: the run is
// quarantined with failure kind "lock_invariant", the violated invariant
// and witness outcome are attached to the quarantine entry, and a repro
// bundle is written next to the report (replay: `armbar-repro <bundle>`).
#include <cstdio>
#include <string>

#include "common/table.hpp"
#include "experiment_util.hpp"
#include "fuzz/bundle.hpp"
#include "lockver/harness.hpp"
#include "sim/platform.hpp"

using namespace armbar;
using bench::json_num;
using runner::ExperimentContext;
using runner::Fingerprint;

namespace {

std::string sanitize(std::string s) {
  for (char& c : s)
    if (c == '/' || c == '+') c = '_';
  return s;
}

/// Everything a verdict depends on but the invariants (which the program's
/// name selects): the whole program and the run grid the options expand to.
void mix_verify(Fingerprint* key, const lockver::LockScenario& sc,
                const lockver::VerifyOptions& opts) {
  const fuzz::DiffOptions d = opts.diff_options();
  key->mix(sc.prog).mix(opts.sim_crosscheck).mix(d.max_cycles);
  key->mix(d.verify_every).mix(d.model);
  key->mix(static_cast<std::uint32_t>(d.platforms.size()));
  for (const std::string& p : d.platforms) key->mix(sim::platform_by_name(p));
  key->mix(static_cast<std::uint32_t>(d.plans.size()));
  for (const sim::fault::FaultPlan& plan : d.plans) key->mix(plan);
  key->mix(static_cast<std::uint32_t>(d.skews.size()));
  for (const std::uint32_t skew : d.skews) key->mix(skew);
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
                  std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

}  // namespace

ARMBAR_EXPERIMENT(lock_verify, "Lock verify",
                  "weak-memory lock verification over the axiomatic checker") {
  const lockver::VerifyOptions opts;  // all platforms, clean + 2 chaos plans
  const fuzz::DiffOptions grid = opts.diff_options();
  ctx.param("grid", std::to_string(grid.platforms.size()) + " platforms x " +
                        std::to_string(grid.plans.size()) + " plans x " +
                        std::to_string(grid.skews.size()) + " skews");

  // ---- clean scenarios: all must hold every invariant ----
  const std::vector<lockver::LockScenario> clean =
      lockver::all_clean_scenarios();
  const auto rows = ctx.map(clean.size(), [&](std::size_t i) {
    const lockver::LockScenario& sc = clean[i];
    Fingerprint key = ExperimentContext::key();
    key.mix("lock_verify/v2");
    mix_verify(&key, sc, opts);
    return ctx.cached(key, "verify " + sc.name, [&] {
      const lockver::VerifyResult res = lockver::verify(sc, opts);
      trace::Json row = trace::Json::object();
      row.set("name", sc.name);
      row.set("dmbs", static_cast<double>(sc.handoff_dmbs));
      row.set("outcomes", static_cast<double>(res.model.allowed.size()));
      row.set("runs", static_cast<double>(res.diff.runs));
      row.set("failed", !res.ok());
      if (!res.ok()) {
        row.set("detail", res.summary());
        if (!res.violations.empty()) {
          row.set("invariant", res.violations.front().invariant);
          row.set("witness",
                  model::to_string(res.violations.front().witness));
        }
        row.set("bundle", fuzz::bundle_to_json(
                              lockver::make_lock_bundle(sc, opts, res)));
      }
      return row;
    });
  });

  TextTable t("Lock verification — invariants over the full allowed set");
  t.header({"scenario", "dmb/handoff", "model outcomes", "sim runs",
            "verdict"});
  std::size_t failing = 0;
  std::string first_detail, first_invariant, first_witness, first_bundle;
  for (const trace::Json& row : rows) {
    const bool failed = bench::json_bool(row, "failed");
    t.row({row.find("name")->str(), TextTable::num(json_num(row, "dmbs"), 0),
           TextTable::num(json_num(row, "outcomes"), 0),
           TextTable::num(json_num(row, "runs"), 0),
           failed ? "VIOLATED" : "ok"});
    if (!failed) continue;
    ++failing;
    const std::string path =
        "lock_verify-" + sanitize(row.find("name")->str()) + ".repro.json";
    if (write_text_file(path, row.find("bundle")->dump(1))) {
      if (first_bundle.empty()) {
        first_bundle = path;
        ctx.note_repro_bundle(path);
      }
      std::printf("  repro bundle: %s  (replay: armbar-repro %s)\n",
                  path.c_str(), path.c_str());
    }
    if (first_detail.empty()) {
      first_detail = row.find("detail")->str();
      if (const trace::Json* f = row.find("invariant")) first_invariant = f->str();
      if (const trace::Json* f = row.find("witness")) first_witness = f->str();
    }
  }
  t.note("strong and weakened variants must both hold every invariant;");
  t.note("the sim cross-check also demands sim subset-of model");
  t.print();

  // ---- planted-bug self-test: every bug class must be caught ----
  // Model layer only: the invariant scan over the allowed set is what
  // catches a miscompiled handoff; the sim grid is covered above and by
  // the slow-tier lockver_full_test.
  lockver::VerifyOptions model_only = opts;
  model_only.sim_crosscheck = false;
  std::size_t planted = 0, caught = 0;
  TextTable p("Planted-bug self-test — each class must violate an invariant");
  p.header({"scenario", "caught by"});
  for (const lockver::LockScenario& base : clean) {
    for (lockver::PlantedBug bug :
         {lockver::PlantedBug::kDropAcquire, lockver::PlantedBug::kDropRelease,
          lockver::PlantedBug::kDowngradeDmb}) {
      const lockver::LockScenario sc =
          lockver::make_scenario(base.family, base.strength, bug);
      Fingerprint key = ExperimentContext::key();
      key.mix("lock_verify/planted/v2");
      mix_verify(&key, sc, model_only);
      const trace::Json row =
          ctx.cached(key, "plant " + sc.name, [&] {
            const lockver::VerifyResult res = lockver::verify(sc, model_only);
            trace::Json r = trace::Json::object();
            r.set("caught", !res.violations.empty());
            r.set("invariant", res.violations.empty()
                                   ? std::string("NOT CAUGHT")
                                   : res.violations.front().invariant);
            return r;
          });
      ++planted;
      if (bench::json_bool(row, "caught")) ++caught;
      p.row({sc.name, row.find("invariant")->str()});
    }
  }
  p.note("a harness that cannot fail a buggy lock proves nothing — this");
  p.note("asymmetry is the evidence the clean verdicts above carry weight");
  p.print();

  ctx.metric("clean_scenarios", static_cast<double>(clean.size()));
  ctx.metric("clean_failures", static_cast<double>(failing));
  ctx.metric("planted_bugs", static_cast<double>(planted));
  ctx.metric("planted_caught", static_cast<double>(caught));
  ctx.check(caught == planted,
            "every planted acquire/release/downgrade bug is caught");
  ctx.check(failing == 0,
            "every clean lock variant holds every invariant on every preset");
  if (failing != 0) {
    ctx.note_failure_kind(lockver::kLockInvariantKind);
    ctx.note_quarantine_param("invariant", first_invariant);
    ctx.note_quarantine_param("witness", first_witness);
    ctx.fatal("lock invariant violated: " + first_detail +
              (first_bundle.empty()
                   ? ""
                   : " (replay: armbar-repro " + first_bundle + ")"));
  }
}
